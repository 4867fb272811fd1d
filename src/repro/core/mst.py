"""Minimum spanning arborescence (Tarjan's Chu-Liu/Edmonds, paper §IV-B).

The reuse edges found by the interconnection analysis are usually
excessive: an FU may have several candidate data sources.  To guarantee a
single valid source per tensor operand per FU, LEGO computes a minimum
spanning arborescence of the directed reuse graph, with edge cost equal to
the delay-FIFO depth, so the register cost of delay connections is what is
minimized.  Roots of the resulting trees are labelled *data nodes*
(they fetch from / commit to memory).

:func:`arborescence` solves it on arc arrays (source, destination,
weight), one round per contraction level (Tarjan, "Finding optimum
branchings", Networks 1977): every node picks its cheapest incoming arc
with a stable sort, so equal weights keep the first-listed arc; the
cycles among the picks are found by pointer doubling and numbered in the
order a walk from node 0, 1, ... meets them; each cycle is contracted to
one node, and an arc entering it is discounted by the pick it would
displace (``w - w_sel``).  Expansion replays the rounds backwards, so the
arcs come out in the order of the textbook recursion: the innermost
round's picks by node, then every outer round's picks that no inner arc
displaced.  The test suite checks that order against a frozen copy of the
recursion and the cost against ``networkx``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = ["Arc", "arborescence", "min_arborescence",
           "spanning_forest_with_memory_root"]


@dataclass(frozen=True)
class Arc:
    """A weighted directed edge with an opaque payload."""

    src: int
    dst: int
    weight: float
    payload: object = None


def arborescence(n_nodes: int, src, dst, weight,
                 root: int) -> np.ndarray | None:
    """Indices of the arcs of a minimum-cost arborescence rooted at
    *root* (one incoming arc per non-root node, in the order described in
    the module docstring), or ``None`` when some node is unreachable."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    arcs = np.flatnonzero((src != dst) & (dst != root))
    s, d, w = src[arcs], dst[arcs], np.asarray(weight, dtype=np.float64)[arcs]
    n, r = n_nodes, root
    rounds = []
    while True:
        order = np.lexsort((w, d))          # stable: ties keep arc order
        heads = d[order]
        picks = order[np.diff(heads, prepend=-1) != 0]
        if len(picks) != n - 1:
            return None
        pick = np.full(n, -1, dtype=np.int64)
        pick[d[picks]] = picks
        parent = np.arange(n)
        parent[d[picks]] = s[picks]
        # after 2^k >= n jumps every node sits on its cycle (or the root);
        # `low` is the least node seen on the way
        jump, low = parent, np.arange(n)
        for _ in range(n.bit_length()):
            low = np.minimum(low, low[jump])
            jump = jump[jump]
        on_cycle = np.zeros(n, dtype=bool)
        on_cycle[jump] = True
        on_cycle[r] = False
        if not on_cycle.any():
            break
        rep = low[jump]
        reps, first = np.unique(rep, return_index=True)
        first, reps = first[reps != r], reps[reps != r]
        cycle_id = np.empty(n, dtype=np.int64)
        cycle_id[reps[np.argsort(first)]] = np.arange(len(reps))
        comp = np.empty(n, dtype=np.int64)
        comp[on_cycle] = cycle_id[rep[on_cycle]]
        n_rest = n - int(on_cycle.sum())
        comp[~on_cycle] = len(reps) + np.arange(n_rest)
        w = np.where(on_cycle[d], w - w[pick[d]], w)
        kept = np.flatnonzero(comp[s] != comp[d])
        rounds.append((r, pick, d, kept))
        s, d, w = comp[s[kept]], comp[d[kept]], w[kept]
        n, r = len(reps) + n_rest, int(comp[r])
    chosen = np.delete(pick, r)
    for r, pick, d, kept in reversed(rounds):
        chosen = kept[chosen]
        entered = np.zeros(len(pick), dtype=bool)
        entered[d[chosen]] = True
        entered[r] = True
        chosen = np.concatenate([chosen, pick[~entered]])
    return arcs[chosen]


def min_arborescence(n_nodes: int, arcs: Sequence[Arc],
                     root: int) -> list[Arc] | None:
    """Minimum-cost arborescence rooted at *root* covering all nodes.

    Returns the chosen arcs (one incoming arc per non-root node) or ``None``
    when some node is unreachable from *root*.
    """
    if not 0 <= root < n_nodes:
        raise ValueError("root out of range")
    for arc in arcs:
        if not (0 <= arc.src < n_nodes and 0 <= arc.dst < n_nodes):
            raise ValueError(f"arc endpoints out of range: {arc}")
    chosen = arborescence(n_nodes, [a.src for a in arcs],
                          [a.dst for a in arcs], [a.weight for a in arcs],
                          root)
    return None if chosen is None else [arcs[i] for i in chosen]


def spanning_forest_with_memory_root(n_nodes: int, src, dst, weight,
                                     memory_cost: float
                                     ) -> tuple[np.ndarray, np.ndarray]:
    """Solve the §IV-B problem: span nodes ``0..n_nodes-1`` with the reuse
    arcs ``src[k] -> dst[k]``, falling back to memory fetches.

    A virtual memory root with arcs of ``memory_cost`` to every node (listed
    before the reuse arcs) is added; the arborescence then decides which
    FUs become *data nodes* (fetch from memory) and which receive data via
    FU interconnections.

    Returns ``(tree, data_nodes)``: the indices of the chosen reuse arcs
    and the nodes the root feeds, each in the arborescence's order.
    """
    chosen = arborescence(
        n_nodes + 1,
        np.concatenate([np.zeros(n_nodes, dtype=np.int64),
                        np.asarray(src, dtype=np.int64) + 1]),
        np.concatenate([np.arange(1, n_nodes + 1),
                        np.asarray(dst, dtype=np.int64) + 1]),
        np.concatenate([np.full(n_nodes, float(memory_cost)),
                        np.asarray(weight, dtype=np.float64)]),
        root=0)
    if chosen is None:
        raise RuntimeError("arborescence infeasible despite memory root")
    memory = chosen < n_nodes
    return chosen[~memory] - n_nodes, chosen[memory]
