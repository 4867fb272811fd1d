"""Differential coverage of the vector engine's static streams, levelized
steps and narrowed value type against the reference interpreter, and of
its labelled fallback.

Every comparison checks the complete observable state of a run (outputs,
cycles, toggles, memory counters) and that an outputs-only run
(``activity=False``, what golden vectors use) produces the same outputs.
The fallback tests cover each reason the simulator reports: memory
feedback, a non-accumulating commit, int64 magnitude, and a timestamp or
address that is not a counter or address generator.
"""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import generate, run_backend
from repro.backends import EmitContext
from repro.cli import main
from repro.core import kernels
from repro.core.frontend import FrontendConfig, build_adg
from repro.obs import export_chrome_trace, get_tracer
from repro.service.spec import DesignRequest
from repro.sim.dag_sim import (Simulator, canonical_stimulus, golden_vectors,
                               make_input)
from repro.sim.step_program import StepProgram, value_dtype


def build(dataflows, frontend=None):
    return run_backend(generate(build_adg(list(dataflows),
                                          frontend or FrontendConfig())))


def stimulus(design, dataflow, rng, lo=0, hi=8):
    cfg = design.configs[dataflow]
    names = sorted({design.dag.nodes[n].params["tensor"]
                    for n in cfg.read_enable})
    return {t: make_input(design, dataflow, t, rng, lo, hi) for t in names}


def assert_engines_agree(design, dataflow, tensors):
    vec = Simulator(design, dataflow)
    assert vec.engine == "vector", vec.fallback
    got = vec.run(tensors)
    assert (vec.engine, vec.fallback) == ("vector", None)
    quick = Simulator(design, dataflow).run(tensors, activity=False)
    want = Simulator(design, dataflow, reference=True).run(tensors)
    assert got.cycles == quick.cycles == want.cycles
    assert set(got.outputs) == set(quick.outputs) == set(want.outputs)
    for name, arr in want.outputs.items():
        assert np.array_equal(got.outputs[name], arr), name
        assert np.array_equal(quick.outputs[name], arr), name
    assert got.toggles == want.toggles
    assert got.mem_reads == want.mem_reads
    assert got.mem_writes == want.mem_writes
    assert (quick.toggles, quick.mem_reads, quick.mem_writes) == ({}, {}, {})


def has_dynamic_mux(design, dataflow) -> bool:
    cfg = design.configs[dataflow]
    return any(nid in cfg.active_nodes for nid in cfg.mux_policy)


class TestRandomDesigns:
    @given(st.sampled_from(["ICOC", "OHOW"]),
           st.sampled_from([2, 4]), st.sampled_from([2, 4]),
           st.sampled_from([1, 3]), st.sampled_from([1, 3]),
           st.integers(0, 2 ** 16))
    @settings(max_examples=8, deadline=None)
    def test_conv2d(self, kind, channels, size, kh, kw, seed):
        wl = kernels.conv2d(1, channels, channels, size, size, kh, kw)
        df = kernels.conv2d_dataflow(kind, wl, 2, 2)
        design = build([df])
        if kind == "OHOW" and kh == kw == 3:
            # halo reuse between neighbouring FUs is coverage-limited
            assert has_dynamic_mux(design, df.name)
        rng = np.random.default_rng(seed)
        assert_engines_agree(design, df.name, stimulus(design, df.name, rng))

    @given(st.booleans(), st.integers(0, 2 ** 16))
    @settings(max_examples=4, deadline=None)
    def test_fused_conv2d(self, systolic, seed):
        """OHOW (dynamic muxes, broadcast control) fused with ICOC; with
        systolic ICOC the two control vectors meet in a static mux on
        the timestamp path."""
        wl = kernels.conv2d(1, 4, 4, 4, 4, 3, 3)
        dfs = [kernels.conv2d_dataflow("OHOW", wl, 2, 2),
               kernels.conv2d_dataflow("ICOC", wl, 2, 2, systolic=systolic)]
        design = build(dfs)
        assert has_dynamic_mux(design, "Conv2d-OHOW")
        rng = np.random.default_rng(seed)
        for df in dfs:
            assert_engines_agree(design, df.name,
                                 stimulus(design, df.name, rng))

    @given(st.sampled_from(["IJ", "KJ"]), st.booleans(),
           st.sampled_from([2, 4]), st.sampled_from([2, 4]),
           st.integers(0, 2 ** 16))
    @settings(max_examples=8, deadline=None)
    def test_mttkrp(self, kind, systolic, i, k, seed):
        wl = kernels.mttkrp(2 * i, 4, k, 2)
        df = kernels.mttkrp_dataflow(kind, wl, 2, 2, systolic=systolic)
        design = build([df])
        rng = np.random.default_rng(seed)
        assert_engines_agree(design, df.name, stimulus(design, df.name, rng))

    @given(st.sampled_from([(2, 2), (4, 4)]), st.sampled_from([1, 2]),
           st.booleans(), st.integers(0, 2 ** 16))
    @settings(max_examples=6, deadline=None)
    def test_fused_gemm(self, array, scale, fuse, seed):
        """Per-dataflow mux selects and reducer pin filtering."""
        wl = kernels.gemm(8 * scale, 8, 8)
        dfs = [kernels.gemm_dataflow(kind, wl, *array, systolic=False)
               for kind in ("IJ", "KJ")]
        design = build(dfs, FrontendConfig(fuse_heuristic=fuse))
        assert any(cfg.mux_select for cfg in design.configs.values())
        rng = np.random.default_rng(seed)
        for df in dfs:
            assert_engines_agree(design, df.name,
                                 stimulus(design, df.name, rng))

    @given(st.sampled_from([1, 2]), st.booleans(), st.integers(0, 2 ** 16))
    @settings(max_examples=4, deadline=None)
    def test_attention(self, heads, systolic, seed):
        request = DesignRequest(kernel="attention", array=(2, 2),
                                systolic=systolic, bounds=(("h", heads),))
        design = build(request.build_dataflows())
        rng = np.random.default_rng(seed)
        for name in design.configs:
            assert_engines_agree(design, name, stimulus(design, name, rng))


def _peak(sim, magnitude: int) -> int:
    """Largest value bound of a run whose inputs reach *magnitude*."""
    tensors = {t: np.full(shape, magnitude, dtype=np.int64)
               for t, shape in _shapes(sim).items()}
    storage, _ = sim._prepare_storage(tensors)
    bounds, unsafe = sim._program.value_bounds(storage)
    assert unsafe is None
    return max(bounds.values())


def _shapes(sim):
    cfg = sim.cfg
    dag = sim.dag
    reads = {dag.nodes[n].params["tensor"] for n in cfg.read_enable}
    return {dag.nodes[ag].params["tensor"]: agc.dims
            for ag, agc in cfg.addrgen.items()
            if dag.nodes[ag].params["tensor"] in reads}


def _largest_magnitude_below(sim, limit: int) -> int:
    lo, hi = 1, 1
    while _peak(sim, hi) < limit:
        lo, hi = hi, hi * 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _peak(sim, mid) < limit else (lo, mid)
    return lo


@pytest.fixture(scope="module")
def gemm_kj():
    wl = kernels.gemm(8, 8, 8)
    return build([kernels.gemm_dataflow("KJ", wl, 2, 2)])


class TestValueTypeBoundary:
    """``V`` narrows to int16/int32 when the value bounds allow; inputs
    right at each boundary (and one past it) stay bit-exact."""

    def test_value_dtype_ladder(self):
        assert value_dtype(0) is np.int16
        assert value_dtype(2 ** 15 - 1) is np.int16
        assert value_dtype(2 ** 15) is np.int32
        assert value_dtype(2 ** 31 - 1) is np.int32
        assert value_dtype(2 ** 31) is np.int64
        with pytest.raises(ValueError):
            value_dtype(2 ** 62)

    @pytest.mark.parametrize("limit,narrow,wide", [
        (2 ** 15, np.int16, np.int32), (2 ** 31, np.int32, np.int64)])
    @given(signs=st.lists(st.sampled_from([-1, 1]), min_size=2,
                          max_size=2),
           seed=st.integers(0, 2 ** 16), spread=st.booleans())
    @settings(max_examples=6, deadline=None)
    def test_inputs_at_the_boundary(self, gemm_kj, limit, narrow, wide,
                                    signs, seed, spread):
        design = gemm_kj
        sim = Simulator(design, "GEMM-KJ")
        top = _largest_magnitude_below(sim, limit)
        rng = np.random.default_rng(seed)
        for magnitude, dtype in ((top, narrow), (top + 1, wide)):
            assert value_dtype(_peak(sim, magnitude)) is dtype
            tensors = {}
            for sign, (t, shape) in zip(signs, sorted(_shapes(sim).items())):
                values = np.full(shape, sign * magnitude, dtype=np.int64)
                if spread:  # mixed signs and sizes, one extreme kept
                    values = rng.integers(-magnitude, magnitude + 1,
                                          size=shape)
                    values.flat[0] = sign * magnitude
                tensors[t] = values
            assert_engines_agree(design, "GEMM-KJ", tensors)


class TestLabelledFallback:
    def gemm(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 2, 2)
        return build([df]), df.name

    def assert_falls_back(self, design, dataflow, reason, caplog):
        with caplog.at_level(logging.WARNING, logger="repro.sim"):
            sim = Simulator(design, dataflow)
        assert sim._program is None
        assert (sim.engine, sim.fallback) == ("reference", reason)
        assert [r.getMessage() for r in caplog.records
                if r.name == "repro.sim"] == [
            f"dataflow {dataflow} runs on the reference interpreter: "
            f"{reason}"]
        tensors = stimulus(design, dataflow, np.random.default_rng(0))
        got = sim.run(tensors)
        want = Simulator(design, dataflow, reference=True).run(tensors)
        for name in want.outputs:
            assert np.array_equal(got.outputs[name], want.outputs[name])
        assert got.toggles == want.toggles

    def test_memory_feedback(self, caplog):
        design, name = self.gemm()
        for nid in design.configs[name].write_enable:
            design.dag.nodes[nid].params["tensor"] = "X"
            for e in design.dag.in_edges(nid):
                node = design.dag.nodes[e.src]
                if node.kind == "addrgen":
                    node.params["tensor"] = "X"
        self.assert_falls_back(design, name,
                               "memory feedback on tensor 'X'", caplog)

    def test_non_accumulating_commit(self, caplog):
        design, name = self.gemm()
        writers = sorted(design.configs[name].write_enable)
        design.dag.nodes[writers[0]].params["accumulate"] = False
        self.assert_falls_back(
            design, name, f"non-accumulating commit on node {writers[0]}",
            caplog)

    def test_int64_magnitude_at_run_time(self, caplog):
        design, name = self.gemm()
        sim = Simulator(design, name)
        assert (sim.engine, sim.fallback) == ("vector", None)
        huge = {"X": np.full((8, 8), 2 ** 33, dtype=np.int64),
                "W": np.full((8, 8), 2 ** 33, dtype=np.int64)}
        with caplog.at_level(logging.WARNING, logger="repro.sim"):
            with pytest.raises(OverflowError):
                sim.run(huge)
        assert sim.engine == "reference"
        assert sim.fallback.startswith("int64 magnitude: ")
        assert len([r for r in caplog.records if r.name == "repro.sim"]) == 1
        sim.run(stimulus(design, name, np.random.default_rng(0)))
        assert (sim.engine, sim.fallback) == ("vector", None)

    def rewired(self, design, name, kind, pin):
        """A reference simulator whose last *kind* node reads *pin* from
        an earlier data-carrying node instead, and that node."""
        sim = Simulator(design, name, reference=True)
        at, target = max((i, n) for i, n in enumerate(sim.order)
                         if design.dag.nodes[n].kind == kind
                         and (kind != "mux" or n in sim.cfg.mux_policy))
        data = next(n for n in sim.order[:at] if design.dag.nodes[n].kind
                    in ("const", "mem_read", "mul", "add"))
        sim.inputs[target][pin] = (data, 0)
        return sim, target

    @pytest.mark.parametrize("kind,pin,what", [
        ("addrgen", 0, "timestamp input of node {} is not a counter"),
        ("mem_read", 0, "address input of node {} is not an address "
                        "generator"),
        ("mem_write", 0, "address input of node {} is not an address "
                         "generator")])
    def test_static_streams_are_required(self, kind, pin, what):
        design, name = self.gemm()
        sim, target = self.rewired(design, name, kind, pin)
        assert StepProgram(sim).fallback == what.format(target)

    def test_dynamic_mux_timestamp_is_required(self):
        wl = kernels.conv2d(1, 4, 4, 4, 4, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 2, 2)
        design = build([df])
        sim, mux = self.rewired(design, df.name, "mux", 0)
        assert StepProgram(sim).fallback == \
            f"timestamp input of node {mux} is not a counter"


class TestGoldenVectors:
    def test_documented_contract(self):
        """docs/backends.md, "Golden vectors": canonical stimulus, the
        written tensors as outputs, and the cycle count formula."""
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 2, 2)
        design = build([df])
        tensors, outputs, cycles = golden_vectors(design, df.name)
        stim = canonical_stimulus(design, df.name)
        assert list(tensors) == sorted(tensors) == ["W", "X"]
        for name, arr in stim.items():
            assert np.array_equal(tensors[name], arr)
            assert arr.min() >= 0 and arr.max() < 8
        assert list(outputs) == ["Y"]
        assert np.array_equal(outputs["Y"], tensors["X"] @ tensors["W"])
        sim = Simulator(design, df.name)
        assert cycles == (design.configs[df.name].total_timestamps
                          + sim.pipeline_bound + 2)

    def test_sim_span_names_the_engine(self, tmp_path, capsys):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 2, 2)
        design = build([df])
        get_tracer().clear()
        EmitContext().golden_vectors(design, df.name)
        spans = [e for e in get_tracer().events() if e["name"] == "sim"]
        assert len(spans) == 1
        assert spans[0]["args"]["engine"] == "vector"
        assert spans[0]["args"]["fallback"] is None
        trace_file = tmp_path / "sim.json"
        export_chrome_trace(trace_file)
        assert main(["trace", str(trace_file)]) == 0
        assert "sim engine : vector x1" in capsys.readouterr().out
