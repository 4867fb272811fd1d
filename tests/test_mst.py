"""Tests for the Chu-Liu/Edmonds arborescence solver: its cost is
cross-checked against networkx, and its arcs *and their order* against
:func:`recursive_solve`, a frozen copy of the recursive formulation the
array solver replaced (the order decides which FUs become data nodes and
how the ADG's connections are numbered)."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mst import (Arc, arborescence, min_arborescence,
                            spanning_forest_with_memory_root)


def recursive_solve(arcs, n, root):
    """The recursive cycle-contraction Chu-Liu/Edmonds, kept verbatim as
    the oracle (self-loops must be filtered by the caller)."""
    best = [None] * n
    for arc in arcs:
        if arc.dst == root:
            continue
        cur = best[arc.dst]
        if cur is None or arc.weight < cur.weight:
            best[arc.dst] = arc
    for v in range(n):
        if v != root and best[v] is None:
            return None
    comp = [-1] * n
    visited = [-1] * n
    n_comp = 0
    has_cycle = False
    for start in range(n):
        if visited[start] != -1:
            continue
        path = []
        v = start
        while v != -1 and visited[v] == -1:
            visited[v] = start
            path.append(v)
            v = best[v].src if (v != root and best[v] is not None) else -1
        if v != -1 and visited[v] == start and comp[v] == -1:
            cycle_start = path.index(v)
            for u in path[cycle_start:]:
                comp[u] = n_comp
            n_comp += 1
            has_cycle = True
    if not has_cycle:
        return [best[v] for v in range(n) if v != root]
    for v in range(n):
        if comp[v] == -1:
            comp[v] = n_comp
            n_comp += 1
    new_arcs = []
    for arc in arcs:
        cu, cv = comp[arc.src], comp[arc.dst]
        if cu == cv:
            continue
        weight = arc.weight
        sel = best[arc.dst] if arc.dst != root else None
        if sel is not None and comp[sel.src] == comp[arc.dst]:
            weight -= sel.weight
        new_arcs.append(Arc(cu, cv, weight, payload=arc))
    sub = recursive_solve(new_arcs, n_comp, comp[root])
    if sub is None:
        return None
    chosen, entered = [], set()
    for meta in sub:
        chosen.append(meta.payload)
        entered.add(meta.payload.dst)
    for v in range(n):
        if v != root and v not in entered:
            chosen.append(best[v])
    return chosen if len(chosen) == n - 1 else None


def _same_as_recursion(n, arcs, root=0):
    """Tag every arc with its position so equal (src, dst, weight) arcs
    stay distinguishable, then require identical arcs in identical order."""
    tagged = [Arc(a.src, a.dst, a.weight, payload=i)
              for i, a in enumerate(arcs)]
    ours = min_arborescence(n, tagged, root)
    theirs = recursive_solve([a for a in tagged if a.src != a.dst], n, root)
    if theirs is None:
        assert ours is None
    else:
        assert ours is not None
        assert [a.payload for a in ours] == [a.payload for a in theirs]
    return ours


def _nx_cost(n, arcs, root):
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for a in arcs:
        if a.src == a.dst:
            continue
        if a.dst == root:
            # networkx optimizes over all roots; dropping arcs into the
            # root pins its choice to ours.
            continue
        # Keep the cheapest parallel arc (networkx DiGraph overwrites).
        if g.has_edge(a.src, a.dst):
            if g[a.src][a.dst]["weight"] <= a.weight:
                continue
        g.add_edge(a.src, a.dst, weight=a.weight)
    try:
        arb = nx.minimum_spanning_arborescence(g)
    except nx.NetworkXException:
        return None
    return sum(d["weight"] for _u, _v, d in arb.edges(data=True))


class TestMinArborescence:
    def test_simple_chain(self):
        arcs = [Arc(0, 1, 1.0), Arc(1, 2, 1.0), Arc(0, 2, 5.0)]
        chosen = min_arborescence(3, arcs, root=0)
        assert chosen is not None
        assert sum(a.weight for a in chosen) == 2.0

    def test_cycle_contraction(self):
        # 1 <-> 2 cheap cycle; root must break in.
        arcs = [Arc(1, 2, 0.1), Arc(2, 1, 0.1), Arc(0, 1, 10.0), Arc(0, 2, 9.0)]
        chosen = min_arborescence(3, arcs, root=0)
        assert chosen is not None
        assert sum(a.weight for a in chosen) == pytest.approx(9.1)

    def test_unreachable(self):
        assert min_arborescence(3, [Arc(0, 1, 1.0)], root=0) is None

    def test_structure_is_arborescence(self):
        arcs = [Arc(0, 1, 1.0), Arc(1, 2, 1.0), Arc(2, 3, 1.0), Arc(3, 1, 0.1),
                Arc(0, 3, 2.0)]
        chosen = min_arborescence(4, arcs, root=0)
        assert chosen is not None
        parents = {}
        for a in chosen:
            assert a.dst not in parents, "each node must have one parent"
            parents[a.dst] = a.src
        assert set(parents) == {1, 2, 3}
        # Acyclic / rooted: walking up always reaches the root.
        for v in (1, 2, 3):
            seen = set()
            while v != 0:
                assert v not in seen
                seen.add(v)
                v = parents[v]

    @given(st.integers(min_value=2, max_value=7), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_networkx_cost(self, n, data):
        n_arcs = data.draw(st.integers(min_value=n - 1, max_value=3 * n))
        arcs = []
        for _ in range(n_arcs):
            u = data.draw(st.integers(min_value=0, max_value=n - 1))
            v = data.draw(st.integers(min_value=0, max_value=n - 1))
            w = data.draw(st.integers(min_value=0, max_value=20))
            arcs.append(Arc(u, v, float(w)))
        ours = min_arborescence(n, arcs, root=0)
        if ours is None:
            # Must be genuinely infeasible: some node unreachable from root.
            reach = {0}
            frontier = [0]
            adj = {}
            for a in arcs:
                adj.setdefault(a.src, []).append(a.dst)
            while frontier:
                u = frontier.pop()
                for v in adj.get(u, []):
                    if v not in reach:
                        reach.add(v)
                        frontier.append(v)
            assert reach != set(range(n))
            return
        # Structural validity: one parent per non-root node, acyclic.
        parents = {}
        for a in ours:
            assert a.dst != 0 and a.dst not in parents
            parents[a.dst] = a.src
        assert set(parents) == set(range(1, n))
        for v in range(1, n):
            seen = set()
            while v != 0:
                assert v not in seen
                seen.add(v)
                v = parents[v]
        # Optimality: equals networkx whenever networkx succeeds (its
        # Edmonds occasionally raises on feasible instances; skip those).
        theirs = _nx_cost(n, arcs, 0)
        if theirs is not None:
            assert sum(a.weight for a in ours) == pytest.approx(theirs)

    def test_payload_preserved(self):
        arcs = [Arc(0, 1, 1.0, payload="hello")]
        chosen = min_arborescence(2, arcs, root=0)
        assert chosen[0].payload == "hello"

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            min_arborescence(2, [], root=5)


class TestSpanningForest:
    def test_memory_root_fallback(self):
        tree, data_nodes = spanning_forest_with_memory_root(2, [], [], [], 10.0)
        assert tree.tolist() == []
        assert sorted(data_nodes.tolist()) == [0, 1]

    def test_reuse_preferred_over_memory(self):
        tree, data_nodes = spanning_forest_with_memory_root(
            2, [0], [1], [1.0], 10.0)
        assert tree.tolist() == [0]
        assert data_nodes.tolist() == [0]

    def test_expensive_reuse_loses_to_memory(self):
        tree, data_nodes = spanning_forest_with_memory_root(
            2, [0], [1], [100.0], 10.0)
        assert tree.tolist() == []
        assert sorted(data_nodes.tolist()) == [0, 1]


# ---------------------------------------------------------------------------
# the array solver against the recursion: same arcs, same order
# ---------------------------------------------------------------------------

@st.composite
def _tied_graphs(draw):
    """Small graphs whose weights come from a tiny set, so ties, zero
    weights, zero-weight 2-cycles and cycles inside contracted cycles are
    common."""
    n = draw(st.integers(min_value=1, max_value=8))
    weights = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 2.0, 3.5])
    arcs = []
    for _ in range(draw(st.integers(min_value=0, max_value=4 * n))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        arcs.append(Arc(u, v, draw(weights)))
        if draw(st.booleans()):     # the reverse arc: a 2-cycle
            arcs.append(Arc(v, u, draw(weights)))
    if draw(st.booleans()):         # guarantee feasibility some of the time
        arcs += [Arc(0, v, 16.0) for v in range(1, n)]
    return n, arcs


@st.composite
def _grid_graphs(draw):
    """What ``build_adg`` hands the solver: a memory root listed first,
    then a few spatial offsets applied at every in-bounds FU of a small
    grid, one weight per offset."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5))
    step = st.integers(-1, 1)
    offsets = draw(st.lists(st.tuples(step, step).filter(any),
                            max_size=6, unique=True))
    memory = draw(st.sampled_from([3.0, 16.0]))
    arcs = [Arc(0, i + 1, memory) for i in range(rows * cols)]
    for dr, dc in offsets:
        weight = draw(st.sampled_from([0.0, 1.0, 1.25, 2.0, 4.5, 20.0]))
        for r in range(rows):
            for c in range(cols):
                if 0 <= r + dr < rows and 0 <= c + dc < cols:
                    arcs.append(Arc(r * cols + c + 1,
                                    (r + dr) * cols + c + dc + 1, weight))
    return rows * cols + 1, arcs


class TestArraySolverIsTheRecursion:
    @given(_tied_graphs(), st.data())
    @settings(max_examples=400, deadline=None)
    def test_tied_graphs(self, graph, data):
        n, arcs = graph
        _same_as_recursion(n, arcs, root=data.draw(st.integers(0, n - 1)))

    @given(_grid_graphs())
    @settings(max_examples=200, deadline=None)
    def test_grid_graphs(self, graph):
        n, arcs = graph
        assert _same_as_recursion(n, arcs) is not None

    def test_nested_contraction(self):
        # 1 <-> 2 is a zero-weight cycle; contracted, it forms a second
        # cycle with 3; only the root's arc into 3 breaks in.
        arcs = [Arc(1, 2, 0.0), Arc(2, 1, 0.0), Arc(3, 1, 0.5),
                Arc(2, 3, 0.0), Arc(0, 3, 5.0), Arc(0, 1, 9.0)]
        chosen = _same_as_recursion(4, arcs)
        assert sorted((a.src, a.dst) for a in chosen) == [(0, 3), (1, 2),
                                                           (3, 1)]

    def test_cycles_numbered_in_discovery_order(self):
        # Node 1 drains into the cycle {4, 5}, so a walk from 0, 1, ...
        # meets it before {2, 3}, although 2 < 4: the contracted cycles
        # are numbered in that order, which orders the arcs entering them.
        arcs = [Arc(4, 1, 0.0), Arc(5, 4, 0.0), Arc(4, 5, 0.0),
                Arc(3, 2, 0.0), Arc(2, 3, 0.0)]
        arcs += [Arc(0, v, 5.0) for v in range(1, 6)]
        chosen = _same_as_recursion(6, arcs)
        assert [(a.src, a.dst) for a in chosen][:2] == [(0, 4), (0, 2)]

    def test_spanning_forest_returns_indices(self):
        src, dst = np.array([0, 1]), np.array([1, 2])
        tree, roots = spanning_forest_with_memory_root(3, src, dst,
                                                       [1.0, 1.0], 4.0)
        assert tree.tolist() == [0, 1] and roots.tolist() == [0]
        assert arborescence(2, [1], [0], [1.0], root=0) is None
