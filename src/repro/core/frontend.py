"""LEGO front end: from dataflows to the Architecture Description Graph.

Orchestrates §IV end to end:

1. per (dataflow, tensor): enumerate reuse solutions (Eq. 6/7);
2. per tensor: minimum spanning arborescence over the reuse edges with a
   virtual memory root — FUs fed by the root become *data nodes*;
   output tensors are solved on the reversed graph (partial results flow
   toward the committing FU);
3. multi-dataflow fusion: re-plan direct interconnections with the BFS
   heuristic of Fig. 5 so dataflows share physical links;
4. memory analysis: conflict-free bank shapes per tensor, fused across
   dataflows.

The result is an :class:`~repro.core.adg.ADG`.
"""

from __future__ import annotations

import numpy as np

from ..options import FrontendConfig
from .adg import ADG, ADGConnection, ADGDataNode, MemoryLayout
from .dataflow import Dataflow
from .fusion import (condensed_delay_tree, partition_chains,
                     plan_direct_interconnects)
from .interconnect import (ReuseEdge, ReuseKind, ReuseSolution,
                           build_reuse_edges, find_reuse_solutions)
from .memory_analysis import analyze_banks, fuse_layouts
from .mst import spanning_forest_with_memory_root

__all__ = ["FrontendConfig", "build_adg"]

Coord = tuple[int, ...]


def build_adg(dataflows: list[Dataflow],
              config: FrontendConfig | None = None) -> ADG:
    """Run the complete front end over one or more dataflows.

    All dataflows must share the FU array shape (they time-share the same
    physical array; §IV-C).
    """
    if not dataflows:
        raise ValueError("need at least one dataflow")
    config = config or FrontendConfig()
    fu_shape = dataflows[0].rs
    for df in dataflows[1:]:
        if df.rs != fu_shape:
            raise ValueError(
                f"fused dataflows must share the FU array shape; "
                f"got {df.rs} vs {fu_shape}")

    # ---- per-dataflow analysis + MST ------------------------------------------
    per_df_solutions: dict[tuple[str, str], list[ReuseSolution]] = {}
    per_df_tree: dict[tuple[str, str], list[ReuseEdge]] = {}
    per_df_roots: dict[tuple[str, str], list[Coord]] = {}
    stationary: dict[tuple[str, str], ReuseSolution] = {}

    for df in dataflows:
        for acc in df.workload.tensors:
            tensor = acc.name
            sols = find_reuse_solutions(df, tensor, max_dist=config.max_dist)
            per_df_solutions[(df.name, tensor)] = sols
            for sol in sols:
                if sol.kind == ReuseKind.STATIONARY:
                    key = (df.name, tensor)
                    if key not in stationary or sol.depth < stationary[key].depth:
                        stationary[key] = sol
            table = build_reuse_edges(df, sols)
            # Partially-covering delay connections still need a memory
            # fallback for boundary timestamps; charge that fraction.
            weight = np.array([
                sol.cost + (1.0 - sol.coverage(df.rt)) * config.memory_fetch_cost
                for sol in table.solutions], dtype=np.float64)
            # Partial results flow src -> dst; output tensors are solved on
            # the reversed graph so every FU drains to a committing FU.
            ends = (table.dst, table.src) if acc.is_output else \
                (table.src, table.dst)
            tree, roots = spanning_forest_with_memory_root(
                len(table.coords), *ends, weight[table.sol],
                memory_cost=float(config.memory_fetch_cost))
            per_df_tree[(df.name, tensor)] = [table.edge(k) for k in tree]
            per_df_roots[(df.name, tensor)] = [table.coords[i] for i in roots]

    # ---- fusion of direct interconnections (§IV-C) ----------------------------
    connections: dict[tuple, ADGConnection] = {}
    data_nodes: dict[tuple[str, Coord], ADGDataNode] = {}

    tensor_accs = {}
    for df in dataflows:
        for acc in df.workload.tensors:
            tensor_accs.setdefault(acc.name, acc)

    for tensor, acc in tensor_accs.items():
        using = [df for df in dataflows
                 if any(t.name == tensor for t in df.workload.tensors)]
        multi = len(using) > 1 and config.fuse_heuristic
        if multi:
            _fuse_tensor(tensor, acc.is_output, using, per_df_solutions,
                         per_df_tree, per_df_roots, connections, data_nodes,
                         float(config.memory_fetch_cost))
        else:
            # Single dataflow, or the Table-V baseline: merge each
            # dataflow's MST links as-is.  Without the heuristic, links of
            # different dataflows stay physically separate (naive fusion
            # with multiplexers) — sharing is exactly what §IV-C adds.
            for df in using:
                _adopt_tree(tensor, acc.is_output, df,
                            per_df_tree[(df.name, tensor)],
                            per_df_roots[(df.name, tensor)],
                            connections, data_nodes,
                            share_links=len(using) == 1)

    # ---- boundary fallbacks -----------------------------------------------------
    # Delay connections do not cover loop-boundary timestamps (their data
    # would come from out-of-range source timestamps); those FU/timestamp
    # pairs are served by the memory system, so the affected FUs need a
    # gated memory port (input side: fetch fallback; output side: the
    # source commits partials that no future FU will extend).
    for conn in connections.values():
        acc = tensor_accs[conn.tensor]
        for name in list(conn.dataflows):
            dt = conn.dt_for(name)
            if dt is None:
                continue
            fu = conn.src if acc.is_output else conn.dst
            key = (conn.tensor, fu)
            node = data_nodes.get(key)
            if node is None:
                node = ADGDataNode(conn.tensor, fu, acc.is_output)
                data_nodes[key] = node
            if name not in node.dataflows:
                node.dataflows.add(name)
                node.fallback_of.add(name)

    # ---- memory analysis (§IV-D) ----------------------------------------------
    memory: dict[str, MemoryLayout] = {}
    for tensor in tensor_accs:
        layouts = []
        for df in dataflows:
            if not any(t.name == tensor for t in df.workload.tensors):
                continue
            nodes = [n.fu for n in data_nodes.values()
                     if n.tensor == tensor and df.name in n.dataflows]
            layouts.append(analyze_banks(df, tensor, nodes))
        memory[tensor] = fuse_layouts(layouts)

    workloads = []
    for df in dataflows:
        if df.workload not in workloads:
            workloads.append(df.workload)
    return ADG(
        fu_shape=fu_shape,
        dataflows=list(dataflows),
        connections=list(connections.values()),
        data_nodes=list(data_nodes.values()),
        memory=memory,
        stationary=stationary,
        workloads=workloads,
    )


def _adopt_tree(tensor: str, is_output: bool, df: Dataflow,
                tree: list[ReuseEdge],
                roots: list[Coord],
                connections: dict[tuple, ADGConnection],
                data_nodes: dict[tuple[str, Coord], ADGDataNode],
                share_links: bool = True) -> None:
    """Merge one dataflow's MST result into the fused connection set.

    With ``share_links=False`` each dataflow instantiates its own physical
    links — and its own memory ports/address generators — even for
    identical endpoints (the naive glue-two-designs-with-muxes baseline
    the paper's §IV-C improves on).
    """
    for edge in tree:
        src, dst = edge.src, edge.dst
        key = (tensor, src, dst) if share_links else (tensor, src, dst, df.name)
        conn = connections.get(key)
        depth = edge.solution.depth
        if conn is None:
            conn = ADGConnection(tensor, src, dst, depth, edge.solution.kind)
            connections[key] = conn
        else:
            conn.depth = max(conn.depth, depth)
            if edge.solution.kind == ReuseKind.DELAY:
                conn.kind = ReuseKind.DELAY
        conn.dataflows.add(df.name)
        conn.depth_by_dataflow[df.name] = depth
        conn.dt_by_dataflow[df.name] = edge.solution.dt
    for fu in roots:
        key = (tensor, fu) if share_links else (tensor, fu, df.name)
        node = data_nodes.get(key)
        if node is None:
            node = ADGDataNode(tensor, fu, is_output)
            data_nodes[key] = node
        node.dataflows.add(df.name)


def _fuse_tensor(tensor: str, is_output: bool, dataflows: list[Dataflow],
                 per_df_solutions, per_df_tree, per_df_roots,
                 connections, data_nodes,
                 memory_fetch_cost: float) -> None:
    """Fuse one tensor's interconnections across dataflows (Fig. 5)."""
    existing_nodes = {n.fu for n in data_nodes.values() if n.tensor == tensor}
    all_chains = []
    for df in dataflows:
        sols = per_df_solutions[(df.name, tensor)]
        delay_sinks = {e.dst if not is_output else e.src
                       for e in per_df_tree[(df.name, tensor)]
                       if e.solution.kind == ReuseKind.DELAY}
        all_chains.extend(partition_chains(df, tensor, sols, delay_sinks))
    plan = plan_direct_interconnects(all_chains, existing_nodes,
                                     is_output=is_output)

    # Adopt planned direct links; depth under a dataflow = |control skew|.
    df_by_name = {df.name: df for df in dataflows}
    for (src, dst), users in plan.links.items():
        key = (tensor, src, dst)
        conn = connections.get(key)
        if conn is None:
            conn = ADGConnection(tensor, src, dst, 0, ReuseKind.DIRECT)
            connections[key] = conn
        for name in users:
            df = df_by_name[name]
            ds = tuple(d - s for s, d in zip(src, dst))
            skew = abs(df.delta_t_bias(ds))
            conn.depth = max(conn.depth, skew)
            conn.dataflows.add(name)
            conn.depth_by_dataflow[name] = skew
            conn.dt_by_dataflow[name] = (0,) * len(df.rt)

    # Re-add delay interconnections between chain roots, per dataflow, via
    # the condensed arborescence (§IV-C last paragraph).
    for df in dataflows:
        delay_edges, roots = condensed_delay_tree(
            df, tensor, is_output, all_chains, plan,
            per_df_solutions[(df.name, tensor)], memory_fetch_cost)
        for u, v, sol in delay_edges:
            key = (tensor, u, v)
            conn = connections.get(key)
            if conn is None:
                conn = ADGConnection(tensor, u, v, sol.depth, ReuseKind.DELAY)
                connections[key] = conn
            else:
                conn.depth = max(conn.depth, sol.depth)
                conn.kind = ReuseKind.DELAY
            conn.dataflows.add(df.name)
            conn.depth_by_dataflow[df.name] = sol.depth
            conn.dt_by_dataflow[df.name] = sol.dt
        for fu in roots:
            key = (tensor, fu)
            node = data_nodes.get(key)
            if node is None:
                node = ADGDataNode(tensor, fu, is_output)
                data_nodes[key] = node
            node.dataflows.add(df.name)
