"""Focused unit tests for delay matching, rewiring, and schedule-coverage
utilities — exercising the passes on hand-built DAGs where the optimal
answer is known in closed form."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import generate
from repro.backend.codegen import Design, DataflowConfig
from repro.backend.dag import DAG, Edge
from repro.backend.delay_matching import broadcast_sources, delay_match
from repro.backend.passes import infer_bitwidths
from repro.backend.primitives import MAX_WIDTH
from repro.backend.rewiring import (_adjacent, broadcast_tree,
                                    rewire_broadcasts, run_rewiring)
from repro.core import kernels
from repro.core.dataflow import Dataflow
from repro.core.frontend import build_adg


def _toy_design(dag: DAG, write_nodes, read_nodes=(), dataflow=None):
    """Wrap a hand-built DAG in a Design with one trivial dataflow."""
    df = dataflow or kernels.gemm_dataflow("KJ", kernels.gemm(4, 4, 4), 2, 2)
    cfg = DataflowConfig(dataflow=df)
    cfg.write_enable = set(write_nodes)
    cfg.read_enable = set(read_nodes)
    from repro.core.frontend import build_adg as _b
    adg = _b([df])
    return Design(adg=adg, dag=dag, configs={df.name: cfg})


class TestDelayMatchingClosedForm:
    def test_unbalanced_diamond(self):
        """Classic diamond: a 2-cycle branch and a 0-cycle branch joining
        at an adder need exactly 2 registers on the short branch."""
        dag = DAG()
        src = dag.add_node("ctrl", width=8)
        slow1 = dag.add_node("add", width=8, pins=("a", "b"))
        slow2 = dag.add_node("add", width=8, pins=("a", "b"))
        join = dag.add_node("add", width=8, pins=("a", "b"))
        sink = dag.add_node("mem_write", width=8, pins=("addr", "data"))
        dag.add_edge(src, slow1)
        dag.add_edge(slow1, slow2)
        dag.add_edge(slow2, join, 0)
        fast = dag.add_edge(src, join, 1)
        dag.add_edge(join, sink, 0)
        dag.add_edge(join, sink, 1)
        design = _toy_design(dag, [sink])
        delay_match(design)
        assert fast.el == 2
        assert sum(e.el for e in dag.edges) == 2

    def test_width_steers_register_placement(self):
        """With a fan-out before the imbalance, registers go on the
        *narrow* signal (Eq. 11 weighs EL by bit-width)."""
        dag = DAG()
        src = dag.add_node("ctrl", width=8)
        wide = dag.add_node("mul", width=32, pins=("a", "b"))
        narrow = dag.add_node("wire", width=4)
        join = dag.add_node("add", width=32, pins=("a", "b"))
        sink = dag.add_node("mem_write", width=32, pins=("addr", "data"))
        dag.add_edge(src, wide, 0)
        dag.add_edge(src, wide, 1)
        dag.add_edge(src, narrow)
        e_wide = dag.add_edge(wide, join, 0)
        e_narrow = dag.add_edge(narrow, join, 1)
        e_narrow.width = 4
        dag.add_edge(join, sink, 0)
        dag.add_edge(join, sink, 1)
        design = _toy_design(dag, [sink])
        delay_match(design)
        # mul has latency 1, wire latency 0: one register needed, and it
        # must land on the 4-bit edge, not the 32-bit one.
        assert e_narrow.el == 1 and e_wide.el == 0

    def test_fifo_absorbs_slack_for_free(self):
        """An imbalance behind a programmable FIFO costs no EL registers:
        the FIFO's physical depth absorbs it."""
        dag = DAG()
        src = dag.add_node("ctrl", width=8)
        stage = dag.add_node("add", width=8, pins=("a", "b"))
        fifo = dag.add_node("fifo", width=8)
        join = dag.add_node("add", width=8, pins=("a", "b"))
        sink = dag.add_node("mem_write", width=8, pins=("addr", "data"))
        dag.add_edge(src, stage)
        dag.add_edge(stage, join, 0)
        dag.add_edge(src, fifo)
        dag.add_edge(fifo, join, 1)
        dag.add_edge(join, sink, 0)
        dag.add_edge(join, sink, 1)
        df = kernels.gemm_dataflow("KJ", kernels.gemm(4, 4, 4), 2, 2)
        design = _toy_design(dag, [sink], dataflow=df)
        design.configs[df.name].fifo_depth[fifo] = 0
        delay_match(design)
        assert sum(e.el for e in dag.edges) == 0
        assert design.configs[df.name].fifo_phys[fifo] == 1

    STAT_KEYS = {"status", "objective", "register_bits", "n_vars",
                 "n_constraints"}

    def test_stats_have_the_same_keys_solved_or_not(self, monkeypatch):
        """A design with nothing to match takes the early exit: same
        five keys (all zero) as a solved one, and no solver import."""
        dag = DAG()
        src = dag.add_node("ctrl", width=8)
        sink = dag.add_node("mem_write", width=8, pins=("addr", "data"))
        dag.add_edge(src, sink, 0)
        dag.add_edge(src, sink, 1)
        solved = delay_match(_toy_design(dag, [sink]))
        assert set(solved) == self.STAT_KEYS and solved["n_vars"] > 0

        monkeypatch.setitem(sys.modules, "repro.solvers", None)  # unimportable
        empty = delay_match(Design(adg=None, dag=DAG(), configs={}))
        assert empty == dict.fromkeys(self.STAT_KEYS, 0.0)

    def test_run_rewiring_on_a_design_with_nothing_to_match(self):
        """Used to raise KeyError('objective') out of the early exit."""
        stats = run_rewiring(Design(adg=None, dag=DAG(), configs={}))
        assert stats == {"stage1_objective": 0.0, "edges_rewired": 0.0,
                         "register_bits": 0.0}


class TestRewiring:
    def test_broadcast_chain_conversion(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4, systolic=False)
        design = generate(build_adg([df]))
        delay_match(design, broadcast_virtual_cost=True)
        before = len(broadcast_sources(design))
        n = rewire_broadcasts(design, min_fanout=3)
        assert n > 0, "broadcast designs must yield rewiring opportunities"
        relays = [x for x in design.dag.nodes.values()
                  if x.params.get("role") == "bcast_relay"]
        assert len(relays) >= n

    def test_rewired_design_still_aligns(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4, systolic=False)
        design = generate(build_adg([df]))
        delay_match(design, broadcast_virtual_cost=True)
        rewire_broadcasts(design)
        stats = delay_match(design)  # stage 3 must stay feasible
        assert stats["status"] == 0.0


def _exhaustive_prim(dests):
    """The pre-incremental tree search, kept as the oracle: for each
    pick, every remaining destination against every tree member."""
    in_tree, tree_order = {}, []
    remaining = set(range(len(dests)))
    while remaining:
        best = None
        for idx in remaining:
            e_i, p_i = dests[idx]
            cand = (float(e_i.el), idx, -1)
            if best is None or cand < best:
                best = cand
            for t_idx in tree_order:
                e_t, p_t = dests[t_idx]
                if _adjacent(p_i, p_t):
                    cand = (abs(float(e_i.el - e_t.el)), idx, t_idx)
                    if cand < best:
                        best = cand
        _cost, idx, parent = best
        in_tree[idx] = (dests[idx][0], None if parent == -1 else parent)
        tree_order.append(idx)
        remaining.discard(idx)
    return in_tree


class TestBroadcastTree:
    # a 3x3 grid and ELs in 0..3: adjacency and cost ties everywhere
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                              st.integers(0, 3)), max_size=14))
    @settings(max_examples=300, deadline=None)
    def test_incremental_prim_builds_the_exhaustive_tree(self, spec):
        dests = [(Edge(0, 1 + i, el=el, uid=i), (x, y))
                 for i, (x, y, el) in enumerate(spec)]
        tree, oracle = broadcast_tree(dests), _exhaustive_prim(dests)
        assert tree == oracle
        assert list(tree) == list(oracle), "join order names the relays"

    def test_tie_prefers_the_direct_edge(self):
        dests = [(Edge(0, 1, el=0, uid=0), (0, 0)),
                 (Edge(0, 2, el=0, uid=1), (0, 1))]
        assert [p for _e, p in broadcast_tree(dests).values()] == [None, None]


class TestBitwidthConvergence:
    def _accumulator_ring(self):
        """const -> add -> fifo -> add: the sum grows a bit per round."""
        dag = DAG()
        one = dag.add_node("const", params={"value": 1})
        acc = dag.add_node("add", pins=("a", "b"))
        ring = dag.add_node("fifo")
        dag.add_edge(one, acc, 0)
        dag.add_edge(acc, ring, 0)
        dag.add_edge(ring, acc, 1)
        return Design(adg=None, dag=dag, configs={})

    def test_growing_ring_stops_at_max_width(self):
        design = self._accumulator_ring()
        infer_bitwidths(design)
        assert {n.width for n in design.dag.nodes.values()
                if n.kind != "const"} == {MAX_WIDTH}

    def test_fixpoint_is_reported(self):
        dag = DAG()
        a = dag.add_node("const", params={"value": 5})
        b = dag.add_node("wire")
        dag.add_edge(a, b)
        result = infer_bitwidths(Design(adg=None, dag=dag, configs={}))
        assert result == {"rounds": 2}
        assert dag.nodes[b].width == 3

    def test_rotating_fifo_ring_raises_instead_of_looping(self):
        """Three FIFOs in a ring, nothing feeding it: every round rotates
        the widths, so no round ever changes nothing."""
        dag = DAG()
        fifos = [dag.add_node("fifo", width=w) for w in (16, 4, 4)]
        for i, f in enumerate(fifos):
            dag.add_edge(fifos[i - 1], f)
        with pytest.raises(RuntimeError, match="cycles without a fixpoint"):
            infer_bitwidths(Design(adg=None, dag=dag, configs={}))

    @pytest.mark.parametrize("n", [8, 12, 16])
    @pytest.mark.parametrize("kind", ["IK", "KJ"])
    def test_baseline_accumulation_chain_converges(self, kind, n):
        """Before reduction extraction (and for good in the baseline
        pipeline) a systolic accumulation chain of n adders, one FIFO
        apart, is in the DAG: n rounds carry the width down it, one more
        confirms."""
        df = kernels.gemm_dataflow(kind, kernels.gemm(16, 16, 16), n, n)
        design = generate(build_adg([df]))
        assert infer_bitwidths(design) == {"rounds": n + 1}
        assert infer_bitwidths(design) == {"rounds": 1}


class TestScheduleCoverage:
    def test_exact_cover_gemm(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        counts = df.iteration_multiplicity()
        assert df.visits_every_point()
        assert set(counts.values()) == {1}, "no redundant recomputation"

    def test_padded_schedule_overcounts(self):
        """Non-divisible parallelization pads the array; padded lanes
        re-visit in-bounds points or fall outside — multiplicity exposes
        both."""
        wl = kernels.gemm(6, 6, 6)
        df = Dataflow.build(wl, spatial=[("i", 4), ("j", 4)],
                            control=(0, 0), name="padded")
        counts = df.iteration_multiplicity()
        assert len(counts) == 6 * 6 * 6  # still covers everything

    @given(st.sampled_from(["IJ", "IK", "KJ"]),
           st.sampled_from([2, 4]))
    @settings(max_examples=10, deadline=None)
    def test_divisible_schedules_are_exact(self, kind, p):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow(kind, wl, p, p)
        counts = df.iteration_multiplicity()
        assert set(counts.values()) == {1}
        assert len(counts) == 512

