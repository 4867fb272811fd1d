"""Heuristic direct-interconnection planning for dataflow fusion (§IV-C).

A multi-kernel application wants several spatial dataflows on one FU array.
Naively merging each dataflow's minimum-spanning interconnections yields
redundant physical links and muxes.  The BFS-based heuristic of Fig. 5
re-plans all *direct* interconnections so different dataflows share links:

1. partition the FUs of each dataflow into *chains* (maximal subgraphs
   connectable by direct interconnections);
2. root candidates of a chain are the FUs that receive delay
   interconnections (they can pull data in), else every FU in the chain;
3. plan chains longest-first; pick as root the candidate with the fewest
   possible input direct interconnections, preferring FUs already labelled
   with a data node (reduces distribution-switch complexity);
4. grow the chain from the root by BFS, preferring physical links that
   earlier (longer) chains already created — those reuse wires instead of
   adding mux inputs;
5. finally, delay interconnections are re-added *between chain roots*
   (condensed arborescence per dataflow) — see
   :func:`condensed_delay_tree`.

Flow direction matters: for an input tensor, data enters at the chain root
and flows outward along the solution deltas (whose control skew is
non-negative by construction); for an output tensor, partial results drain
*toward* the root along the same deltas.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .dataflow import Dataflow
from .interconnect import ReuseKind, ReuseSolution, offset_arcs
from .mst import Arc, min_arborescence

__all__ = ["Chain", "partition_chains", "plan_direct_interconnects",
           "condensed_delay_tree", "FusionPlan"]

Coord = tuple[int, ...]


@dataclass
class Chain:
    """A maximal set of FUs connectable by direct interconnections under one
    dataflow, for one tensor.

    ``deltas`` are the admissible *flow-direction* spatial steps: for an
    input, data moves ``u -> u + ds``; for an output, partial results move
    ``u -> u + ds`` as well (the solution's direction is the causal one).
    """

    dataflow: str
    tensor: str
    members: tuple[Coord, ...]
    root_candidates: tuple[Coord, ...]
    deltas: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.members)


def _flood(start: int, steps: list[list[int]], reached: set[int]) -> None:
    """Add everything reachable from member *start* along *steps* to
    *reached* (members already in it are not walked again)."""
    reached.add(start)
    stack = [start]
    while stack:
        for nbr in steps[stack.pop()]:
            if nbr not in reached:
                reached.add(nbr)
                stack.append(nbr)


def _spanning_roots(steps: list[list[int]]) -> set[int]:
    """The members from which the whole chain is reachable along
    admissible flow steps (``steps[i]`` lists the members one step from
    member ``i``).  Flooding from each not-yet-reached member in turn, the
    last flood's start reaches every member if any member does; the
    members that span are then exactly those that reach it."""
    seen: set[int] = set()
    last = 0
    for i in range(len(steps)):
        if i not in seen:
            last = i
            _flood(i, steps, seen)
    reached: set[int] = set()
    _flood(last, steps, reached)
    if len(reached) < len(steps):
        return set()
    back: list[list[int]] = [[] for _ in steps]
    for i, nbrs in enumerate(steps):
        for j in nbrs:
            back[j].append(i)
    spanning: set[int] = set()
    _flood(last, back, spanning)
    return spanning


def partition_chains(dataflow: Dataflow, tensor: str,
                     solutions: list[ReuseSolution],
                     delay_sinks: set[Coord]) -> list[Chain]:
    """Split the FU array into direct-connectivity chains (Fig. 5 steps
    1-3).  ``delay_sinks`` are FUs receiving delay interconnections for
    this tensor under this dataflow (step 2's root candidates)."""
    deltas = tuple(sol.ds for sol in solutions
                   if sol.kind == ReuseKind.DIRECT and any(sol.ds))
    coords = dataflow.fu_coords()
    _which, src, dst = offset_arcs(dataflow.rs, deltas)
    # Every FU ends up labelled with the least FU index of its component:
    # min-propagation over the direct links, with pointer jumping.
    label = np.arange(len(coords))
    while True:
        prev = label.copy()
        np.minimum.at(label, src, prev[dst])
        np.minimum.at(label, dst, prev[src])
        label = label[label]
        if np.array_equal(label, prev):
            break
    # Components in order of their least FU, members row-major (= sorted).
    order = np.argsort(label, kind="stable")
    cuts = np.flatnonzero(np.diff(label[order])) + 1
    chains: list[Chain] = []
    for group in np.split(order, cuts):
        members = tuple(coords[i] for i in group)
        candidates = tuple(m for m in members if m in delay_sinks)
        chains.append(Chain(dataflow.name, tensor, members,
                            candidates or members,  # step 3 fallback
                            deltas))
    return chains


@dataclass
class FusionPlan:
    """Result of the heuristic planning for one tensor across dataflows."""

    tensor: str
    #: physical directed links (src, dst) -> dataflow names driving it;
    #: direction is the data-flow direction for this tensor.
    links: dict[tuple[Coord, Coord], set[str]] = field(default_factory=dict)
    #: chain roots per dataflow, in planning order
    roots: dict[str, list[Coord]] = field(default_factory=dict)
    #: root of each chain, keyed by (dataflow, chain members)
    chain_root: dict[tuple[str, tuple[Coord, ...]], Coord] = field(
        default_factory=dict)

    @property
    def n_physical_links(self) -> int:
        return len(self.links)

    @property
    def n_logical_links(self) -> int:
        return sum(len(v) for v in self.links.values())

    def mux_inputs(self) -> int:
        """FU input pins needing a mux (several physical sources feed the
        same FU for this tensor)."""
        fan_in: dict[Coord, int] = {}
        for (_src, dst) in self.links:
            fan_in[dst] = fan_in.get(dst, 0) + 1
        return sum(v for v in fan_in.values() if v > 1)


def plan_direct_interconnects(chains: list[Chain], data_nodes: set[Coord],
                              is_output: bool = False) -> FusionPlan:
    """Run the Fig. 5 BFS heuristic over all chains of one tensor."""
    if not chains:
        return FusionPlan(tensor="")
    plan = FusionPlan(tensor=chains[0].tensor)
    order = sorted(chains, key=lambda ch: (-len(ch), ch.dataflow, ch.members))
    link_owner_len: dict[tuple[Coord, Coord], int] = {}
    in_degree: dict[Coord, int] = {}  # physical links into each FU so far
    sign = -1 if is_output else 1

    for chain in order:
        members = chain.members
        pos = {fu: i for i, fu in enumerate(members)}
        # steps[i]: members one causal flow step from member i (inputs
        # push along the deltas, outputs drain against them)
        steps = [[pos[nbr] for ds in chain.deltas
                  if (nbr := tuple(c + sign * d for c, d in zip(fu, ds)))
                  in pos]
                 for fu in members]
        # Root must be able to span its chain along causal flow steps.
        spans = _spanning_roots(steps)
        spanning = [fu for fu in chain.root_candidates if pos.get(fu) in spans]
        if not spanning:
            spanning = [members[i] for i in spans] or list(members)
        root = min(spanning, key=lambda fu: (in_degree.get(fu, 0),
                                             fu not in data_nodes, fu))
        plan.roots.setdefault(chain.dataflow, []).append(root)
        plan.chain_root[(chain.dataflow, members)] = root
        data_nodes.add(root)
        if len(chain) == 1:
            continue

        # BFS outward (inputs) or inward (outputs) from the root, preferring
        # physical links already built by earlier (longer) chains.  The
        # frontier is a heap keyed (exists, -owner_len, link); building a
        # link changes only that link's key, and it leaves the frontier as
        # its far end is reached, so popping the least live entry picks
        # what a full re-sort of the frontier would.
        reached: set[int] = set()
        frontier: list = []

        def reach(i: int) -> None:
            reached.add(i)
            for j in steps[i]:
                if j not in reached:
                    link = ((members[j], members[i]) if is_output
                            else (members[i], members[j]))
                    heappush(frontier, (link not in plan.links,
                                        -link_owner_len.get(link, 0), link, j))

        reach(pos[root])
        while len(reached) < len(members) and frontier:
            *_key, link, j = heappop(frontier)
            if j in reached:
                continue
            if link not in plan.links:
                in_degree[link[1]] = in_degree.get(link[1], 0) + 1
            plan.links.setdefault(link, set()).add(chain.dataflow)
            link_owner_len[link] = max(link_owner_len.get(link, 0),
                                       len(chain))
            reach(j)
    return plan


def condensed_delay_tree(dataflow: Dataflow, tensor: str, is_output: bool,
                         chains: list[Chain], plan: FusionPlan,
                         solutions: list[ReuseSolution],
                         memory_cost: float
                         ) -> tuple[list[tuple[Coord, Coord, ReuseSolution]],
                                    list[Coord]]:
    """Re-add delay interconnections *between chain roots* (§IV-C last
    paragraph) for one dataflow, choosing the cheapest spanning set.

    Chains are condensed to single nodes.  For an input tensor, a delay
    solution ``u -> u + ds`` whose target is the *root* of another chain is
    an admissible inter-chain arc (the root then pushes the data through
    its chain).  For an output tensor, the *root* of a chain drains it, so
    arcs start at roots.  A virtual memory node completes the arborescence;
    chains it feeds get a data node at their root.

    Returns ``(delay_edges, data_node_roots)`` with concrete FU-level delay
    edges in data-flow direction.
    """
    mine = [ch for ch in chains if ch.dataflow == dataflow.name]
    if not mine:
        return [], []
    chain_idx: dict[Coord, int] = {}
    for idx, chain in enumerate(mine):
        for fu in chain.members:
            chain_idx[fu] = idx
    roots = [plan.chain_root[(chain.dataflow, chain.members)] for chain in mine]

    delay_sols = [s for s in solutions if s.kind == ReuseKind.DELAY]
    # Best concrete arc per chain pair.
    best: dict[tuple[int, int], tuple[float, Coord, Coord, ReuseSolution]] = {}
    for sol in delay_sols:
        ds = sol.ds
        cost = (float(sol.depth)
                + (1.0 - sol.coverage(dataflow.rt)) * memory_cost)
        for src_idx, chain in enumerate(mine):
            candidates = chain.members if not is_output else (roots[src_idx],)
            for u in candidates:
                v = tuple(x + d for x, d in zip(u, ds))
                dst_idx = chain_idx.get(v)
                if dst_idx is None or dst_idx == src_idx:
                    continue  # off the array, or inside the chain
                if not is_output and v != roots[dst_idx]:
                    continue
                key = (src_idx, dst_idx)
                if key not in best or cost < best[key][0]:
                    best[key] = (cost, u, v, sol)

    n = len(mine) + 1  # node 0 is the virtual memory root
    arcs = [Arc(0, i + 1, memory_cost, payload=None) for i in range(len(mine))]
    for (src_idx, dst_idx), (cost, u, v, sol) in best.items():
        if is_output:
            arcs.append(Arc(dst_idx + 1, src_idx + 1, cost, payload=(u, v, sol)))
        else:
            arcs.append(Arc(src_idx + 1, dst_idx + 1, cost, payload=(u, v, sol)))
    chosen = min_arborescence(n, arcs, root=0)
    if chosen is None:  # pragma: no cover - memory arcs guarantee feasibility
        raise RuntimeError("condensed delay arborescence infeasible")

    delay_edges: list[tuple[Coord, Coord, ReuseSolution]] = []
    data_roots: list[Coord] = []
    for arc in chosen:
        if arc.src == 0:
            data_roots.append(roots[arc.dst - 1])
        else:
            u, v, sol = arc.payload  # type: ignore[misc]
            delay_edges.append((u, v, sol))
    return delay_edges, data_roots

