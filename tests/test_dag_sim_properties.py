"""Property-based functional verification: random GEMM/conv shapes, array
sizes, and schedule styles through the complete flow, all bit-exact
against numpy.  Complements `test_integration.py`'s fixed cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import BackendOptions, generate, run_backend
from repro.core import kernels
from repro.core.dataflow import Dataflow
from repro.core.frontend import FrontendConfig, build_adg
from repro.sim.dag_sim import Simulator, make_input

RNG = np.random.default_rng(23)


class TestRandomGemm:
    @given(
        st.integers(min_value=1, max_value=3),   # tiles of p0 in m
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([(2, 2), (2, 4), (4, 2)]),
        st.sampled_from(["IJ", "IK", "KJ"]),
        st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_gemm_shapes(self, tm, tn, tk, array, kind, systolic):
        p0, p1 = array
        m, n, k = 4 * tm, 4 * tn, 4 * tk
        wl = kernels.gemm(m, n, k)
        df = kernels.gemm_dataflow(kind, wl, p0, p1, systolic=systolic)
        design = run_backend(generate(build_adg([df])))
        x = make_input(design, df.name, "X", RNG)
        w = make_input(design, df.name, "W", RNG)
        y = Simulator(design, df.name).run({"X": x, "W": w}).outputs["Y"]
        assert np.array_equal(y, x @ w), (m, n, k, array, kind, systolic)

    @given(st.integers(min_value=0, max_value=3),
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=8, deadline=None)
    def test_gemm_multilevel_tiling(self, extra_i, extra_j):
        """Multi-level loop tiling (a dim split across several temporal
        levels) must not change results."""
        wl = kernels.gemm(16, 16, 8)
        temporal = [("i", 2), ("j", 2), ("k", 8), ("i", 2 + extra_i),
                    ("j", 2 + extra_j)]
        df = Dataflow.build(wl, spatial=[("i", 4), ("j", 4)],
                            temporal=temporal, control=(1, 1), name="ml")
        design = run_backend(generate(build_adg([df])))
        x = make_input(design, "ml", "X", RNG)
        w = make_input(design, "ml", "W", RNG)
        y = Simulator(design, "ml").run({"X": x, "W": w}).outputs["Y"]
        assert np.array_equal(y, x @ w)


class TestBackendVariantsAgree:
    """Every combination of backend options must produce the same
    results — optimizations change cost, never semantics."""

    @pytest.mark.parametrize("options", [
        BackendOptions.baseline(),
        BackendOptions(rewiring=False, power_gating=False),
        BackendOptions(reduction_tree=False, power_gating=False),
        BackendOptions(),
    ])
    def test_nonsystolic_gemm(self, options):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4, systolic=False)
        design = run_backend(generate(build_adg([df])), options)
        rng = np.random.default_rng(0)  # same data across variants
        x = make_input(design, df.name, "X", rng)
        w = make_input(design, df.name, "W", rng)
        y = Simulator(design, df.name).run({"X": x, "W": w}).outputs["Y"]
        assert np.array_equal(y, x @ w)

    @pytest.mark.parametrize("fuse", [True, False])
    def test_fused_broadcast_mj(self, fuse):
        """Regression for the extraction bug found by hypothesis: fused
        broadcast designs where one dataflow uses the chain adders
        standalone."""
        wl = kernels.gemm(16, 16, 16)
        dfs = [kernels.gemm_dataflow("IJ", wl, 8, 8, systolic=False),
               kernels.gemm_dataflow("KJ", wl, 8, 8, systolic=False)]
        design = run_backend(generate(build_adg(
            dfs, FrontendConfig(fuse_heuristic=fuse))))
        rng = np.random.default_rng(4)
        for name in ("GEMM-IJ", "GEMM-KJ"):
            x = make_input(design, name, "X", rng)
            w = make_input(design, name, "W", rng)
            y = Simulator(design, name).run({"X": x, "W": w}).outputs["Y"]
            assert np.array_equal(y, x @ w), (name, fuse)


class TestDoubleSpatialReduction:
    def test_two_axis_reduction_combines_partials(self):
        """Regression for the combine-tree bug found by hypothesis: a
        dataflow reducing along both spatial dims forms an in-tree where
        interior FUs receive two partials simultaneously."""
        from repro.core.contraction import contraction
        spec = "ij,ijk->i"
        wl = contraction(spec, {"i": 4, "j": 4, "k": 4})
        df = Dataflow.build(wl, spatial=[("j", 4), ("k", 4)],
                            control=(0, 0), name="red2d")
        design = run_backend(generate(build_adg([df])))
        t0 = make_input(design, "red2d", "T0", RNG)
        t1 = make_input(design, "red2d", "T1", RNG)
        y = Simulator(design, "red2d").run({"T0": t0, "T1": t1}).outputs["Y"]
        assert np.array_equal(y, np.einsum(spec, t0, t1))

    def test_combine_adders_created(self):
        from repro.core.contraction import contraction
        wl = contraction("ij,ijk->i", {"i": 4, "j": 4, "k": 4})
        df = Dataflow.build(wl, spatial=[("j", 4), ("k", 4)],
                            control=(0, 0), name="red2d")
        design = generate(build_adg([df]))
        combines = [n for n in design.dag.nodes.values()
                    if n.kind == "add" and n.params.get("role") == "combine"]
        assert combines, "2-D reduction needs combine adders"
