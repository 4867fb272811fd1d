"""Broadcast pin rewiring (paper §V-B, Fig. 8).

Delay matching can leave a register pyramid behind a broadcast source
(one register stack per destination).  The three-stage heuristic:

1. re-run the LP with a *virtual* cost for broadcast out-edges (only the
   maximum EL per source counts) — an optimistic estimate, because a
   broadcast can always be converted into a forwarding chain;
2. per broadcast source, run an MST over {source} ∪ destinations where a
   source→dest edge costs that destination's latency and a dest→dest edge
   (spatially adjacent destinations only) costs the latency *difference*;
   rewire along the tree, materializing forwarding relays;
3. re-run the plain LP on the rewired DAG to redistribute the remaining
   latencies correctly.

Stage 1 and 3 live in :mod:`repro.backend.delay_matching`; this module
implements stage 2 plus the orchestration.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Iterator

from .codegen import Design, compute_liveness
from .dag import Edge
from .delay_matching import broadcast_sources, delay_match

__all__ = ["rewire_broadcasts", "run_rewiring"]


def _neighbours(place) -> Iterator[tuple]:
    """The placements at FU-grid L-infinity distance 1 from *place*."""
    if isinstance(place, tuple):
        for step in itertools.product((-1, 0, 1), repeat=len(place)):
            if any(step):
                yield tuple(x + d for x, d in zip(place, step))


def broadcast_tree(dests: list[tuple[Edge, tuple]]
                   ) -> dict[int, tuple[Edge, int | None]]:
    """Stage 2's MST for one broadcast source (edge costs as in the
    module docstring), by Prim's algorithm.

    *dests* pairs each out-edge with its destination's placement.
    Returns ``index -> (edge, parent index, or None for the source)`` in
    the order destinations joined the tree.  Each remaining destination
    keeps its one best ``(cost, index, parent)`` candidate, relaxed only
    against the grid neighbours of the destination that just joined
    (found through a placement index); tuple order breaks ties (the
    source, parent ``-1``, sorts before any relay parent).  The next to
    join is the least candidate, popped from a heap whose entries a
    relaxation has since beaten are skipped.
    """
    best = {idx: (float(e.el), idx, -1) for idx, (e, _p) in enumerate(dests)}
    heap = list(best.values())
    heapq.heapify(heap)
    at: dict[tuple, list[int]] = {}
    for idx, (_e, place) in enumerate(dests):
        at.setdefault(place, []).append(idx)
    in_tree: dict[int, tuple[Edge, int | None]] = {}
    while best:
        entry = heapq.heappop(heap)
        _cost, idx, parent = entry
        if best.get(idx) != entry:
            continue
        del best[idx]
        e_t, p_t = dests[idx]
        in_tree[idx] = (e_t, None if parent == -1 else parent)
        for place in _neighbours(p_t):
            for other in at.get(place, ()):
                incumbent = best.get(other)
                if incumbent is None:
                    continue
                cand = (abs(float(dests[other][0].el - e_t.el)), other, idx)
                if cand < incumbent:
                    best[other] = cand
                    heapq.heappush(heap, cand)
    return in_tree


def rewire_broadcasts(design: Design, min_fanout: int = 3) -> int:
    """Stage 2: convert broadcast trees into forwarding chains using a
    Prim-style MST per source.  Returns the number of rewired edges."""
    dag = design.dag
    rewired = 0
    for src in broadcast_sources(design):
        outs = dag.out_edges(src)
        if len(outs) < min_fanout:
            continue
        # Group out-edges by destination placement; only same-pin-type
        # destinations with spatial placements can forward to each other.
        dests = [(e, dag.nodes[e.dst].place) for e in outs]
        if any(not isinstance(p, tuple) for _e, p in dests):
            continue
        in_tree = broadcast_tree(dests)

        # Materialize: destinations with a dest-parent get a relay chain.
        relays: dict[int, int] = {}

        def relay_of(idx: int) -> int:
            if idx in relays:
                return relays[idx]
            e_i, parent = in_tree[idx]
            relay = dag.add_node("wire", width=e_i.width,
                                 place=dests[idx][1],
                                 params={"role": "bcast_relay", "source": src})
            if parent is None:
                dag.add_edge(src, relay)
            else:
                dag.add_edge(relay_of(parent), relay)
            relays[idx] = relay
            return relay

        for idx, (e_i, parent) in in_tree.items():
            if parent is None:
                continue  # keep the direct edge
            relay = relay_of(idx)
            dag.add_edge(relay, e_i.dst, e_i.dst_pin)
            dag.remove_edge(e_i)
            rewired += 1
    if rewired:
        compute_liveness(design)
    return rewired


def run_rewiring(design: Design) -> dict[str, float]:
    """Full three-stage §V-B pass.  Returns combined statistics."""
    stage1 = delay_match(design, broadcast_virtual_cost=True)
    n_rewired = rewire_broadcasts(design)
    stage3 = delay_match(design)
    return {
        "stage1_objective": stage1["objective"],
        "edges_rewired": float(n_rewired),
        "register_bits": stage3["register_bits"],
    }
