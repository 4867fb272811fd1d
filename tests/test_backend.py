"""Tests for the backend: DAG structure, codegen, and every §V pass."""

import math

import pytest

from repro.backend import BackendOptions, generate, run_backend
from repro.backend.codegen import AddrGenConfig, compute_liveness
from repro.backend.dag import DAG
from repro.backend.delay_matching import broadcast_sources, delay_match
from repro.backend.passes import infer_bitwidths, power_gate
from repro.backend.pin_reuse import solve_pin_mapping
from repro.backend.reduction import extract_reduction_trees, find_chains
from repro.core import kernels
from repro.core.frontend import build_adg


def _design(workload=None, kind="KJ", p=4, systolic=True, optimize=False):
    wl = workload or kernels.gemm(8, 8, 8)
    df = kernels.gemm_dataflow(kind, wl, p, p, systolic=systolic)
    design = generate(build_adg([df]))
    if optimize:
        run_backend(design)
    return design, df


class TestDAG:
    def test_add_and_query(self):
        dag = DAG()
        a = dag.add_node("const", params={"value": 3})
        b = dag.add_node("add", pins=("a", "b"))
        e = dag.add_edge(a, b, 0)
        assert e.uid == 0
        assert dag.in_edges(b) == [e]
        assert dag.out_edges(a) == [e]

    def test_unknown_kind(self):
        dag = DAG()
        with pytest.raises(ValueError, match="unknown primitive"):
            dag.add_node("frobnicator")

    def test_edge_to_missing_node(self):
        dag = DAG()
        a = dag.add_node("const")
        with pytest.raises(KeyError):
            dag.add_edge(a, 999)

    def test_cycle_detection(self):
        dag = DAG()
        a = dag.add_node("add", pins=("a", "b"))
        b = dag.add_node("add", pins=("a", "b"))
        dag.add_edge(a, b)
        dag.add_edge(b, a)
        with pytest.raises(ValueError, match="cycle"):
            dag.topo_order()

    def test_fifo_breaks_cycle(self):
        dag = DAG()
        a = dag.add_node("add", pins=("a", "b"))
        f = dag.add_node("fifo")
        dag.add_edge(a, f)
        dag.add_edge(f, a, 1)
        order = dag.topo_order(sequential_break=True)
        assert set(order) == {a, f}

    def test_register_accounting(self):
        dag = DAG()
        a = dag.add_node("const", width=8)
        b = dag.add_node("add", width=8, pins=("a", "b"))
        e = dag.add_edge(a, b)
        e.el = 3
        assert dag.pipeline_register_bits() == 24


class TestAddrGen:
    def test_gemm_addresses(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        agc = AddrGenConfig.build(df, "Y", (0, 0))
        # At FU (0,0): y = [i, j] with j = t_j*4, i = t_i.
        assert agc.index_of(0) == (0, 0)
        total = df.total_timestamps
        assert agc.flat_address(total) is None  # out of temporal range

    def test_padding_returns_minus_one(self):
        wl = kernels.conv2d(1, 2, 2, 4, 4, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 2, 2)
        agc = AddrGenConfig.build(df, "X", (0, 0))
        # t = 0 means kh = kw = 0, so ih = iw = -1: padding.
        assert agc.flat_address(0) == -1

    def test_commit_gate(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        gated = AddrGenConfig.build(df, "Y", (0, 0), gate_dt=(0, 0, 1))
        # Timestamps whose k-step successor exists are suppressed.
        assert gated.flat_address(0) is None
        # The last k step commits (t = (0, 0, rt_k - 1)).
        last_k = df.rt[2] - 1
        scalar = last_k  # innermost position
        assert gated.flat_address(scalar) is not None


class TestCodegen:
    def test_gemm_structure(self):
        design, df = _design()
        stats = design.dag.stats()
        assert stats["mul"] == 16          # one multiplier per FU
        assert stats["ctrl"] == 1          # single shared control unit
        assert stats["ctrl_tap"] == 16
        assert stats["mem_write"] >= 4     # Y commit nodes

    def test_share_control_off(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        adg = build_adg([df])
        shared = generate(adg, share_control=True)
        per_fu = generate(build_adg([df]), share_control=False)
        assert per_fu.dag.count("ctrl") == 16
        assert shared.dag.count("ctrl") == 1

    def test_liveness_covers_writes_to_ctrl(self):
        design, df = _design()
        cfg = design.configs[df.name]
        kinds = {design.dag.nodes[n].kind for n in cfg.active_nodes}
        assert "ctrl" in kinds and "mem_write" in kinds and "mul" in kinds

    def test_fused_configs_have_distinct_selects(self):
        wl = kernels.gemm(8, 8, 8)
        dfa = kernels.gemm_dataflow("IJ", wl, 4, 4)
        dfb = kernels.gemm_dataflow("KJ", wl, 4, 4)
        design = generate(build_adg([dfa, dfb]))
        assert set(design.configs) == {"GEMM-IJ", "GEMM-KJ"}
        # W is per-FU in KJ but flows spatially in IJ: some mux differs.
        sel_a = design.configs["GEMM-IJ"].mux_select
        sel_b = design.configs["GEMM-KJ"].mux_select
        common = set(sel_a) & set(sel_b)
        assert any(sel_a[m] != sel_b[m] for m in common)

    def test_dynamic_mux_has_tap_input(self):
        wl = kernels.conv2d(1, 2, 2, 4, 4, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 2, 2)
        design = generate(build_adg([df]))
        cfg = design.configs[df.name]
        assert cfg.mux_policy, "delay connections require dynamic muxes"
        for mux in cfg.mux_policy:
            pins = {e.dst_pin for e in design.dag.in_edges(mux)}
            assert 0 in pins  # timestamp input


class TestDelayMatching:
    def test_alignment_invariant(self):
        """After the LP, every multi-input node's input paths must have
        equal accumulated delay along the per-dataflow active subgraph."""
        design, df = _design()
        delay_match(design)
        cfg = design.configs[df.name]
        dag = design.dag
        # Recompute arrival phases by propagation and check consistency.
        arrival: dict[int, float] = {}
        order = dag.topo_order(sequential_break=False,
                               edge_filter=lambda e: e.uid in cfg.active_edges)
        for nid in order:
            node = dag.nodes[nid]
            if node.is_source:
                arrival[nid] = 0.0
            ins = [e for e in dag.edges if e.dst == nid
                   and e.uid in cfg.active_edges]
            if node.kind == "mux":
                sel_pins = {cfg.mux_select.get(nid)}
                if nid in cfg.mux_policy:
                    sel_pins = {0} | {p for p, _ in cfg.mux_policy[nid]}
                ins = [e for e in ins if e.dst_pin in sel_pins]
            vals = []
            unknown = False
            for e in ins:
                src = dag.nodes[e.src]
                if src.kind == "fifo" or arrival.get(e.src) is None:
                    # FIFO outputs (and anything downstream of one) have
                    # their phase fixed by the LP's programmable depths;
                    # alignment there is proven by the bit-exact functional
                    # simulation instead.
                    unknown = True
                    continue
                vals.append(arrival[e.src] + e.el + node.latency)
            if not unknown and len(vals) > 1:
                assert max(vals) - min(vals) < 1e-6, \
                    f"misaligned inputs at {dag.nodes[nid]}"
            if nid not in arrival:
                arrival[nid] = None if (unknown or not vals) else vals[0]

    def test_nonnegative_els_and_depths(self):
        design, df = _design(kind="IJ")
        delay_match(design)
        assert all(e.el >= 0 for e in design.dag.edges)
        for cfg in design.configs.values():
            assert all(d >= 0 for d in cfg.fifo_phys.values())

    def test_optimized_cheaper_than_baseline(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4, systolic=False)
        base = run_backend(generate(build_adg([df])), BackendOptions.baseline())
        opt = run_backend(generate(build_adg([df])), BackendOptions())
        assert opt.report["register_bits"] <= base.report["register_bits"]

    def test_broadcast_sources_found(self):
        design, _df = _design(systolic=False)
        assert broadcast_sources(design)


class TestReduction:
    def test_extraction_on_broadcast_gemm(self):
        design, df = _design(systolic=False)
        infer_bitwidths(design)
        chains = find_chains(design)
        assert chains, "non-systolic GEMM-KJ must have combinational chains"
        stats = extract_reduction_trees(design)
        assert stats["chains_extracted"] >= 4
        reducers = [n for n in design.dag.nodes.values()
                    if n.kind == "reducer"]
        assert reducers
        for r in reducers:
            assert r.latency == max(1, math.ceil(
                math.log2(max(r.params["n_inputs"], 2))))

    def test_no_extraction_on_systolic(self):
        design, _df = _design(systolic=True)
        stats = extract_reduction_trees(design)
        assert stats["chains_extracted"] == 0


class TestPinReuse:
    def test_fig9_example(self):
        """Fig. 9: pins {A,B}, {A,C}, {B,C} over three dataflows fit in
        two physical pins."""
        live = {"df1": {0, 1}, "df2": {0, 2}, "df3": {1, 2}}
        assignment, n_phys = solve_pin_mapping(live)
        assert n_phys == 2
        for k, pins in live.items():
            used = {assignment[(i, k)] for i in pins}
            assert len(used) == len(pins)  # no physical pin double-booked

    def test_single_dataflow_identity(self):
        live = {"only": {0, 1, 2}}
        assignment, n_phys = solve_pin_mapping(live)
        assert n_phys == 3

    def test_empty(self):
        assignment, n_phys = solve_pin_mapping({})
        assert n_phys == 0 and assignment == {}


class TestPasses:
    def test_bitwidth_growth(self):
        design, _df = _design()
        infer_bitwidths(design)
        dag = design.dag
        for nid, node in dag.nodes.items():
            if node.kind == "mul":
                ins = [dag.nodes[e.src].width for e in dag.in_edges(nid)]
                assert node.width == min(sum(ins[:2]), 48)

    def test_power_gate_marks_partial_nodes(self):
        wl = kernels.gemm(8, 8, 8)
        dfa = kernels.gemm_dataflow("IJ", wl, 4, 4)
        dfb = kernels.gemm_dataflow("KJ", wl, 4, 4)
        design = generate(build_adg([dfa, dfb]))
        stats = power_gate(design)
        assert stats["gated_nodes"] > 0

    def test_full_pipeline_report(self):
        design, _df = _design(systolic=False)
        run_backend(design)
        assert "register_bits" in design.report
        assert "reduction" in design.report
        assert "pin_reuse" in design.report
        assert design.report["register_bits"] >= 0

    def test_baseline_options(self):
        opts = BackendOptions.baseline()
        assert not (opts.reduction_tree or opts.rewiring or opts.pin_reuse
                    or opts.power_gating)
