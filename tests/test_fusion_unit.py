"""Unit tests for the fusion heuristics (§IV-C) and additional front-end
properties checked with hypothesis."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import kernels
from repro.core.dataflow import Dataflow
from repro.core.frontend import FrontendConfig, build_adg
from repro.core.fusion import (Chain, FusionPlan, condensed_delay_tree,
                               partition_chains, plan_direct_interconnects)
from repro.core.interconnect import ReuseKind, find_reuse_solutions
from repro.core.memory_analysis import analyze_banks, verify_conflict_free
from repro.service.spec import DesignRequest
from test_golden_identity import KERNELS as GOLDEN_KERNELS


class TestPartitionChains:
    def test_broadcast_makes_one_chain(self):
        wl = kernels.conv2d(1, 4, 4, 8, 8, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 4, 4)
        sols = find_reuse_solutions(df, "W")
        chains = partition_chains(df, "W", sols, delay_sinks=set())
        assert len(chains) == 1
        assert len(chains[0]) == 16

    def test_no_direct_reuse_gives_singletons(self):
        wl = kernels.conv2d(1, 4, 4, 8, 8, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 4, 4)
        sols = find_reuse_solutions(df, "X")  # delay-only reuse
        chains = partition_chains(df, "X", sols, delay_sinks=set())
        assert len(chains) == 16
        assert all(len(c) == 1 for c in chains)

    def test_row_chains_for_gemm_x(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        sols = find_reuse_solutions(df, "X")
        chains = partition_chains(df, "X", sols, delay_sinks=set())
        assert len(chains) == 4          # one chain per s_k row
        assert all(len(c) == 4 for c in chains)

    def test_delay_sinks_become_root_candidates(self):
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow("KJ", wl, 4, 4)
        sols = find_reuse_solutions(df, "X")
        chains = partition_chains(df, "X", sols, delay_sinks={(0, 0), (1, 0)})
        for chain in chains:
            if (0, 0) in chain.members:
                assert chain.root_candidates == ((0, 0),)


class TestPlanDirectInterconnects:
    def _chain(self, members, deltas, dataflow="df", tensor="X",
               candidates=None):
        return Chain(dataflow, tensor, tuple(members),
                     tuple(candidates or members), tuple(deltas))

    def test_single_chain_forms_path(self):
        members = [(0, i) for i in range(4)]
        plan = plan_direct_interconnects(
            [self._chain(members, [(0, 1)])], set())
        assert plan.n_physical_links == 3
        assert plan.mux_inputs() == 0

    def test_two_dataflows_share_links(self):
        members = [(0, i) for i in range(4)]
        chains = [self._chain(members, [(0, 1)], dataflow="a"),
                  self._chain(members, [(0, 1)], dataflow="b")]
        plan = plan_direct_interconnects(chains, set())
        assert plan.n_physical_links == 3
        assert plan.n_logical_links == 6  # 3 links x 2 users

    def test_output_chain_flows_toward_root(self):
        members = [(0, i) for i in range(3)]
        plan = plan_direct_interconnects(
            [self._chain(members, [(0, 1)])], set(), is_output=True)
        root = plan.roots["df"][0]
        # All links point at increasing proximity to the root.
        for (_src, dst) in plan.links:
            pass
        sinks = {dst for _s, dst in plan.links}
        sources = {src for src, _d in plan.links}
        assert root in sinks and root not in sources

    def test_empty(self):
        plan = plan_direct_interconnects([], set())
        assert plan.n_physical_links == 0


class TestCondensedDelayTree:
    def test_chains_connected_by_delay(self):
        wl = kernels.conv2d(1, 4, 4, 8, 8, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 2, 2)
        sols = find_reuse_solutions(df, "X")
        chains = partition_chains(df, "X", sols, delay_sinks=set())
        plan = plan_direct_interconnects(list(chains), set())
        edges, roots = condensed_delay_tree(df, "X", False, chains, plan,
                                            sols, memory_cost=16.0)
        # The 4 singleton chains are spanned by 3 delay edges + >=1 root.
        assert len(edges) + len(roots) == len(chains)
        assert len(roots) >= 1

    def test_expensive_delay_loses_to_memory(self):
        wl = kernels.conv2d(1, 4, 4, 8, 8, 3, 3)
        df = kernels.conv2d_dataflow("OHOW", wl, 2, 2)
        sols = find_reuse_solutions(df, "X")
        chains = partition_chains(df, "X", sols, delay_sinks=set())
        plan = plan_direct_interconnects(list(chains), set())
        edges, roots = condensed_delay_tree(df, "X", False, chains, plan,
                                            sols, memory_cost=0.0)
        assert not edges
        assert len(roots) == len(chains)


class TestFrontendProperties:
    @given(st.sampled_from(["IJ", "IK", "KJ"]),
           st.sampled_from([2, 4]),
           st.booleans())
    @settings(max_examples=12, deadline=None)
    def test_every_fu_has_single_source_per_tensor(self, kind, p, systolic):
        """§IV-B's guarantee: one valid data source per FU per tensor —
        either exactly one incoming link or a data node (or both, when a
        boundary fallback port backs a partially-covering link)."""
        wl = kernels.gemm(8, 8, 8)
        df = kernels.gemm_dataflow(kind, wl, p, p, systolic=systolic)
        adg = build_adg([df])
        for tensor in ("X", "W"):
            nodes = {n.fu: n for n in adg.data_nodes_for(tensor, df.name)}
            for fu in df.fu_coords():
                incoming = [c for c in adg.connections_for(tensor, df.name)
                            if c.dst == fu]
                node = nodes.get(fu)
                if not incoming:
                    assert node is not None, (tensor, fu)
                else:
                    assert len(incoming) == 1
                    if node is not None:
                        assert df.name in node.fallback_of

    @given(st.sampled_from(["OHOW", "ICOC", "KHOH", "OCOH"]),
           st.sampled_from([2, 4]))
    @settings(max_examples=10, deadline=None)
    def test_banking_is_always_conflict_free(self, kind, p):
        wl = kernels.conv2d(1, 4, 4, 8, 8, 3, 3)
        df = kernels.conv2d_dataflow(kind, wl, p, p)
        adg = build_adg([df])
        for tensor, layout in adg.memory.items():
            nodes = [n.fu for n in adg.data_nodes_for(tensor, df.name)]
            assert verify_conflict_free(layout, df, tensor, nodes), tensor

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=15, deadline=None)
    def test_bank_bound_matches_eq9(self, p0, p1):
        """B_i computed by the analysis must equal max|delta|/gcd + 1 over
        the data-node index deltas (Eq. 9), checked by brute force."""
        wl = kernels.gemm(8, 8, 8)
        df = Dataflow.build(wl, spatial=[("i", p0), ("j", p1)],
                            control=(0, 0), name="t")
        nodes = df.fu_coords()
        layout = analyze_banks(df, "X", nodes)
        _mdt, mds, bias = df.tensor_ts_map("X")
        idxs = [mds @ np.array(fu) + bias for fu in nodes]
        for dim in range(len(layout.bank_shape)):
            deltas = {abs(int(a[dim] - b[dim]))
                      for a in idxs for b in idxs} - {0}
            if not deltas:
                assert layout.bank_shape[dim] == 1
            else:
                g = np.gcd.reduce(sorted(deltas))
                assert layout.bank_shape[dim] == max(deltas) // g + 1


def _pairwise_banks(mds, bias, data_nodes):
    """Eq. 8-9 by the definition — every ordered pair of data nodes, one
    Python set of ``|delta|`` per tensor dimension — kept here as the
    reference the array form of ``analyze_banks`` is held to."""
    rank = len(mds)
    indexes = [[sum(m * s for m, s in zip(row, fu)) + b
                for row, b in zip(mds, bias)] for fu in data_nodes]
    shape, stride = [], []
    for dim in range(rank):
        deltas = {abs(a[dim] - b[dim]) for a in indexes for b in indexes}
        deltas.discard(0)
        g = math.gcd(*deltas) if deltas else 1
        shape.append(max(deltas) // g + 1 if deltas else 1)
        stride.append(g)
    return tuple(shape), tuple(stride)


class _TsMap:
    """What ``analyze_banks`` reads of a dataflow: ``(M_D M_S, b)``."""

    def __init__(self, mds, bias):
        self.mds = np.array(mds, dtype=np.int64).reshape(len(bias), -1)
        self.bias = np.array(bias, dtype=np.int64)

    def tensor_ts_map(self, tensor):
        return None, self.mds, self.bias


@st.composite
def _bank_cases(draw):
    rank = draw(st.integers(1, 4))
    fu_rank = draw(st.integers(1, 3))
    small = st.integers(-6, 6)
    mds = draw(st.lists(st.lists(small, min_size=fu_rank, max_size=fu_rank),
                        min_size=rank, max_size=rank))
    bias = draw(st.lists(small, min_size=rank, max_size=rank))
    # few distinct coordinates, so duplicates and zero deltas are common
    coord = st.tuples(*[st.integers(-2, 3)] * fu_rank)
    nodes = draw(st.lists(coord, min_size=0, max_size=9))
    return mds, bias, nodes


class TestArrayBankAnalysis:
    @given(_bank_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_the_pairwise_reference(self, case):
        mds, bias, nodes = case
        layout = analyze_banks(_TsMap(mds, bias), "T", nodes)
        shape, stride = _pairwise_banks(mds, bias, nodes)
        assert (layout.bank_shape, layout.bank_stride) == (shape, stride)
        assert layout.n_data_nodes == len(nodes)
        assert all(type(v) is int
                   for v in layout.bank_shape + layout.bank_stride)
        # Eq. 8: distinct data indexes never share a bank
        ts = _TsMap(mds, bias)
        indexes = {tuple((ts.mds @ np.array(fu) + ts.bias).tolist())
                   for fu in nodes}
        assert len({layout.bank_of(d) for d in indexes}) == len(indexes)

    @pytest.mark.parametrize("kernel", list(GOLDEN_KERNELS))
    def test_suite_kernels_match_and_are_conflict_free(self, kernel):
        request = DesignRequest(array=(4, 4), **GOLDEN_KERNELS[kernel])
        dataflows = request.build_dataflows()
        adg = build_adg(dataflows, request.frontend)
        checked = 0
        for df in dataflows:
            for tensor in adg.memory:
                nodes = [n.fu for n in adg.data_nodes_for(tensor, df.name)]
                if not nodes:
                    continue
                _mdt, mds, bias = df.tensor_ts_map(tensor)
                layout = analyze_banks(df, tensor, nodes)
                assert (layout.bank_shape, layout.bank_stride) == \
                    _pairwise_banks(mds.tolist(), bias.tolist(), nodes)
                assert verify_conflict_free(layout, df, tensor, nodes)
                checked += 1
        assert checked
