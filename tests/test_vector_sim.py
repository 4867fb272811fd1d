"""The vectorized step-program simulator is bit-exact against the
reference interpreter oracle.

Every comparison checks the *complete* observable state of a run:
output tensors, cycle count, per-node toggle counts, and the memory
access counters the energy model consumes — across all kernel families,
fused and broadcast designs, multi-level tilings, and randomized shapes
(hypothesis).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import BackendOptions, generate, run_backend
from repro.core import kernels
from repro.core.contraction import contraction
from repro.core.dataflow import Dataflow
from repro.core.frontend import FrontendConfig, build_adg
from repro.service.spec import DesignRequest
from repro.sim.dag_sim import Simulator, make_input

RNG = np.random.default_rng(11)


def assert_bit_exact(design, dataflow: str, tensors: dict) -> None:
    """Run both engines on identical inputs; every SimResult field must
    agree exactly."""
    vec = Simulator(design, dataflow)
    assert vec._program is not None, \
        "vectorized path unexpectedly unsupported for this design"
    got = vec.run(tensors)
    want = Simulator(design, dataflow, reference=True).run(tensors)
    assert got.cycles == want.cycles
    assert set(got.outputs) == set(want.outputs)
    for name in want.outputs:
        assert np.array_equal(got.outputs[name], want.outputs[name]), name
    assert got.toggles == want.toggles
    assert got.mem_reads == want.mem_reads
    assert got.mem_writes == want.mem_writes


def build(dataflows, options=None, frontend=None):
    return run_backend(generate(build_adg(list(dataflows),
                                          frontend or FrontendConfig())),
                       options)


def inputs_for(design, dataflow, rng=RNG):
    cfg = design.configs[dataflow]
    names = sorted({design.dag.nodes[n].params["tensor"]
                    for n in cfg.read_enable})
    return {t: make_input(design, dataflow, t, rng) for t in names}


class TestEveryKernelFamily:
    @pytest.mark.parametrize("kind,systolic", [
        ("KJ", True), ("KJ", False), ("IJ", False), ("IK", True)])
    def test_gemm(self, kind, systolic):
        wl = kernels.gemm(16, 16, 16)
        df = kernels.gemm_dataflow(kind, wl, 4, 4, systolic=systolic)
        design = build([df])
        tensors = inputs_for(design, df.name)
        assert_bit_exact(design, df.name, tensors)
        got = Simulator(design, df.name).run(tensors).outputs["Y"]
        assert np.array_equal(got, tensors["X"] @ tensors["W"])

    @pytest.mark.parametrize("kind", ["ICOC", "OHOW"])
    def test_conv2d(self, kind):
        wl = kernels.conv2d(1, 8, 8, 4, 4, 3, 3)
        df = kernels.conv2d_dataflow(kind, wl, 4, 4)
        design = build([df])
        assert_bit_exact(design, df.name, inputs_for(design, df.name))

    def test_mttkrp(self):
        wl = kernels.mttkrp(8, 8, 4, 4)
        df = kernels.mttkrp_dataflow("IJ", wl, 4, 4, systolic=False)
        design = build([df])
        assert_bit_exact(design, df.name, inputs_for(design, df.name))

    def test_attention_both_dataflows(self):
        request = DesignRequest(kernel="attention", array=(2, 2))
        design = build(request.build_dataflows())
        for name in design.configs:
            assert_bit_exact(design, name, inputs_for(design, name))

    def test_two_axis_reduction(self):
        """Combine-adder in-trees (reducers with multiple simultaneous
        partials) must vectorize exactly."""
        wl = contraction("ij,ijk->i", {"i": 4, "j": 4, "k": 4})
        df = Dataflow.build(wl, spatial=[("j", 4), ("k", 4)],
                            control=(0, 0), name="red2d")
        design = build([df])
        tensors = inputs_for(design, "red2d")
        assert_bit_exact(design, "red2d", tensors)
        got = Simulator(design, "red2d").run(tensors).outputs["Y"]
        assert np.array_equal(
            got, np.einsum("ij,ijk->i", tensors["T0"], tensors["T1"]))


class TestFusedAndVariants:
    @pytest.mark.parametrize("fuse", [True, False])
    def test_fused_broadcast_gemm(self, fuse):
        """Fused designs exercise dynamic (timestamp-gated) muxes and
        per-dataflow reducer pin filtering."""
        wl = kernels.gemm(16, 16, 16)
        dfs = [kernels.gemm_dataflow("IJ", wl, 8, 8, systolic=False),
               kernels.gemm_dataflow("KJ", wl, 8, 8, systolic=False)]
        design = build(dfs, frontend=FrontendConfig(fuse_heuristic=fuse))
        for name in ("GEMM-IJ", "GEMM-KJ"):
            assert_bit_exact(design, name, inputs_for(design, name))

    @pytest.mark.parametrize("options", [
        BackendOptions.baseline(),
        BackendOptions(rewiring=False, power_gating=False),
        BackendOptions(),
    ])
    def test_backend_option_variants(self, options):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4, systolic=False)
        design = build([df], options)
        assert_bit_exact(design, df.name, inputs_for(design, df.name))

    def test_multilevel_tiling(self):
        wl = kernels.gemm(16, 16, 8)
        df = Dataflow.build(wl, spatial=[("i", 4), ("j", 4)],
                            temporal=[("i", 2), ("j", 2), ("k", 8),
                                      ("i", 2), ("j", 2)],
                            control=(1, 1), name="ml")
        design = build([df])
        assert_bit_exact(design, "ml", inputs_for(design, "ml"))


class TestRandomizedBitExactness:
    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([(2, 2), (2, 4), (4, 2)]),
        st.sampled_from(["IJ", "IK", "KJ"]),
        st.booleans(),
    )
    @settings(max_examples=10, deadline=None)
    def test_random_gemm_shapes(self, tm, tn, tk, array, kind, systolic):
        p0, p1 = array
        wl = kernels.gemm(4 * tm, 4 * tn, 4 * tk)
        df = kernels.gemm_dataflow(kind, wl, p0, p1, systolic=systolic)
        design = build([df])
        assert_bit_exact(design, df.name, inputs_for(design, df.name))


class TestEngineSelection:
    def test_reference_flag_skips_compilation(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 2, 2)
        design = build([df])
        assert Simulator(design, df.name, reference=True)._program is None
        assert Simulator(design, df.name)._program is not None

    def test_unsupported_designs_fall_back(self):
        """A non-accumulating commit port is order-sensitive across
        writers; the compiler must refuse it and run() must still work
        via the interpreter."""
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 2, 2)
        design = build([df])
        for node in design.dag.nodes.values():
            if node.kind == "mem_write":
                node.params["accumulate"] = False
        sim = Simulator(design, df.name)
        assert sim._program is None  # fell back at compile time
        tensors = inputs_for(design, df.name)
        got = sim.run(tensors)
        want = Simulator(design, df.name, reference=True).run(tensors)
        for name in want.outputs:
            assert np.array_equal(got.outputs[name], want.outputs[name])

    def test_large_magnitude_inputs_fall_back_at_run_time(self):
        """Inputs whose products could exceed int64 must not wrap
        silently: the magnitude guard routes the run to the interpreter,
        which preserves the loud Python OverflowError on commit."""
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 2, 2)
        design = build([df])
        sim = Simulator(design, df.name)
        assert sim._program is not None
        huge = {
            "X": np.full((8, 8), 2 ** 33, dtype=np.int64),
            "W": np.full((8, 8), 2 ** 33, dtype=np.int64),
        }
        storage, _ = sim._prepare_storage(huge)
        assert not sim._program.magnitude_safe(storage)
        with pytest.raises(OverflowError):  # same failure as pre-PR
            sim.run(huge)
        # sane magnitudes stay on the fast path
        small = inputs_for(design, df.name)
        storage, _ = sim._prepare_storage(small)
        assert sim._program.magnitude_safe(storage)

    def test_step_program_groups_by_kind(self):
        """The compiled program batches same-kind primitives and never
        groups a node with one of its own producers."""
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        design = build([df])
        program = Simulator(design, df.name)._program
        assert program is not None and program.steps
        row_of = program.row
        for kind, specs in program.steps:
            open_rows = set()
            for spec in specs:
                assert not (set(spec.get("_srcs", ())) & open_rows), \
                    f"step {kind!r} groups a node with its producer"
                open_rows.add(spec["row"])
        assert len(program.steps) < len(program.order), \
            "no batching happened at all"
