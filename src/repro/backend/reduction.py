"""Reduction tree extraction (paper §V-C, first half).

On the ADG, spatial reduction appears as a long chain of accumulation
adders connected by zero-depth (combinational) links.  Delay matching
would pipeline that chain heavily; extracting directly-connected adders
into a single balanced *reducer* cuts the logic levels from ``k`` to
``ceil(log2 k)`` and removes the per-stage registers.

Fused designs complicate this (Fig. 9's setting): a dataflow that does
not reduce spatially uses the same physical adders *standalone* (product
plus a zero partial, committing per FU).  Extraction handles that by
bypassing: consumers of a chain adder under a standalone dataflow are
rewired straight to the adder's product input (a config mux arbitrates
when the same consumer also takes the reduced sum under another
dataflow).  The reducer records which dataflows drive each pin
(``pin_dataflows``, read by the simulators and ``hls_c``).  Every pin
gets the same set — the dataflows that reduce along the whole chain —
so §V-C's second half, pin reusing, never finds two dataflows driving
different pins and is not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .codegen import Design, compute_liveness
from .dag import Edge

__all__ = ["extract_reduction_trees", "find_chains", "Chain"]


@dataclass
class Chain:
    """One maximal combinational accumulation chain."""

    adders: list[int]          # a1 .. ak, data flows a1 -> ak
    link_fifos: list[int]      # fifo between a_i and a_{i+1}
    link_muxes: list[int]      # config muxes on the pin-b path, if any


def _acc_adders(design: Design) -> set[int]:
    return {nid for nid, n in design.dag.nodes.items()
            if n.kind == "add" and n.params.get("role") == "accumulate"}


def _pin_edges(design: Design, nid: int, pin: int) -> list[Edge]:
    return [e for e in design.dag.in_edges(nid) if e.dst_pin == pin]


def find_chains(design: Design) -> list[Chain]:
    """Maximal combinational accumulation chains.

    A link means: the downstream adder's partial input (pin b) is fed —
    possibly through a mux — by a FIFO of semantic depth 0 in every
    dataflow that programs it, whose single input is another adder.
    """
    dag = design.dag
    adders = _acc_adders(design)
    pred: dict[int, tuple[int, int, int | None]] = {}  # v -> (u, fifo, mux)
    for v in adders:
        for e in _pin_edges(design, v, 1):
            mux = None
            candidates = [e]
            if dag.nodes[e.src].kind == "mux":
                mux = e.src
                candidates = dag.in_edges(mux)
            for cand in candidates:
                f = cand.src
                if dag.nodes[f].kind != "fifo":
                    continue
                depths = [cfg.fifo_depth[f] for cfg in design.configs.values()
                          if f in cfg.fifo_depth]
                if not depths or any(d != 0 for d in depths):
                    continue
                ins = dag.in_edges(f)
                if len(ins) == 1 and ins[0].src in adders:
                    pred[v] = (ins[0].src, f, mux)
    succ = {u: v for v, (u, _f, _m) in pred.items()}
    chains: list[Chain] = []
    heads = [v for v in adders if v in succ and v not in pred]
    for head in heads:
        adder_list = [head]
        fifos: list[int] = []
        muxes: list[int] = []
        while adder_list[-1] in succ:
            nxt = succ[adder_list[-1]]
            _u, fifo, mux = pred[nxt]
            adder_list.append(nxt)
            fifos.append(fifo)
            if mux is not None:
                muxes.append(mux)
        if len(adder_list) >= 2:
            chains.append(Chain(adder_list, fifos, muxes))
    return chains


def _resolves_to_zero(design: Design, nid: int, pin: int, df: str) -> bool:
    """Does this pin read a zero constant under dataflow *df*?"""
    dag = design.dag
    cfg = design.configs[df]
    for e in _pin_edges(design, nid, pin):
        src = dag.nodes[e.src]
        if src.kind == "mux":
            sel = cfg.mux_select.get(e.src)
            if sel is None and e.src in cfg.mux_policy:
                # Dynamic policies can fall back to zero at boundaries but
                # also take real partials: not a pure standalone use.
                policy = cfg.mux_policy[e.src]
                pins = [p for p, _dt in policy]
                srcs = {se.src for se in dag.in_edges(e.src)
                        if se.dst_pin in pins}
                return all(dag.nodes[s].kind == "const"
                           and dag.nodes[s].params.get("value") == 0
                           for s in srcs)
            for se in dag.in_edges(e.src):
                if se.dst_pin == sel:
                    node = dag.nodes[se.src]
                    return (node.kind == "const"
                            and node.params.get("value") == 0)
            return False
        return src.kind == "const" and src.params.get("value") == 0
    return False


def _classify_dataflows(design: Design, chain: Chain
                        ) -> tuple[set[str], set[str]] | None:
    """Split dataflows into (full-chain, standalone); None if ineligible."""
    full: set[str] = set()
    standalone: set[str] = set()
    for name, cfg in design.configs.items():
        drives_links = all(f in cfg.fifo_depth for f in chain.link_fifos)
        adders_active = [a for a in chain.adders if a in cfg.active_nodes]
        if drives_links and len(adders_active) == len(chain.adders):
            full.add(name)
        elif adders_active:
            # Standalone use: every active adder must add a zero partial.
            if all(_resolves_to_zero(design, a, 1, name)
                   for a in adders_active):
                standalone.add(name)
            else:
                return None
    return full, standalone


def extract_reduction_trees(design: Design) -> dict[str, int]:
    """Run the extraction; returns statistics for the pass report."""
    dag = design.dag
    compute_liveness(design)
    n_extracted = 0
    adders_removed = 0

    for chain in find_chains(design):
        groups = _classify_dataflows(design, chain)
        if groups is None:
            continue
        full, standalone = groups
        if not full:
            continue  # nothing actually reduces over this chain
        adders = chain.adders
        k = len(adders)
        width = max(dag.nodes[a].width for a in adders)
        tail = adders[-1]

        # Product (pin-a) source per chain member.
        products: list[int] = []
        for a in adders:
            pin_a = _pin_edges(design, a, 0)
            if len(pin_a) != 1:
                products = []
                break
            products.append(pin_a[0].src)
        if not products:
            continue
        # Head's non-chain partial input (delay link from another chain).
        head_init: list[int] = []
        for e in _pin_edges(design, adders[0], 1):
            for cand in ([e] if dag.nodes[e.src].kind != "mux"
                         else dag.in_edges(e.src)):
                src = dag.nodes[cand.src]
                if src.kind == "const" and src.params.get("value") == 0:
                    continue
                if cand.src in chain.link_fifos:
                    continue
                if src.kind == "fifo":
                    head_init.append(cand.src)

        n_pins = k + len(head_init)
        reducer = dag.add_node(
            "reducer", width=width, place=dag.nodes[tail].place,
            latency=max(1, math.ceil(math.log2(max(n_pins, 2)))),
            pins=tuple(f"in{i}" for i in range(n_pins)),
            params={"n_inputs": n_pins, "pin_dataflows": {}})
        pin_df_map: dict[int, set[str]] = {}
        for pin, src in enumerate(products):
            dag.add_edge(src, reducer, pin)
            pin_df_map[pin] = set(full)
        for off, src in enumerate(head_init):
            pin = k + off
            dag.add_edge(src, reducer, pin)
            pin_df_map[pin] = set(full)
        dag.nodes[reducer].params["pin_dataflows"] = pin_df_map

        # Rewire external consumers of every chain adder: the reduced sum
        # (tail, full-chain dataflows) or the local product (standalone).
        chain_glue = set(chain.link_fifos) | set(chain.link_muxes)
        ok = True
        rewires: list[tuple[Edge, dict[str, int]]] = []
        for idx, a in enumerate(adders):
            for e in list(dag.out_edges(a)):
                if e.dst in chain_glue:
                    continue
                source_by_df: dict[str, int] = {}
                for name, cfg in design.configs.items():
                    if e.uid not in cfg.active_edges:
                        continue
                    if name in full:
                        if a is not tail:
                            ok = False  # intermediate tap under a reducing df
                            break
                        source_by_df[name] = reducer
                    elif name in standalone:
                        source_by_df[name] = products[idx]
                if not ok:
                    break
                if not source_by_df:
                    source_by_df = ({"__default__": reducer} if a is tail
                                    else {"__default__": products[idx]})
                rewires.append((e, source_by_df))
            if not ok:
                break
        if not ok:
            # Roll back the reducer and keep the chain as adders.
            dag.remove_node(reducer)
            continue

        for e, source_by_df in rewires:
            sources = sorted(set(source_by_df.values()))
            if len(sources) == 1:
                dag.add_edge(sources[0], e.dst, e.dst_pin)
            else:
                mux = dag.add_node("mux", width=width,
                                   place=dag.nodes[e.dst].place,
                                   params={"n_inputs": len(sources)})
                for pin, src in enumerate(sources):
                    dag.add_edge(src, mux, pin)
                for name, src in source_by_df.items():
                    if name in design.configs:
                        design.configs[name].mux_select[mux] = \
                            sources.index(src)
                dag.add_edge(mux, e.dst, e.dst_pin)
            dag.remove_edge(e)

        # Remove chain adders, and with them every glue node (FIFO, mux,
        # wire) whose out-edges all lead to removed nodes.  A node can only
        # start to qualify when one of its consumers is removed, so the
        # worklist visits the predecessors of each removed node.
        to_remove = set(adders)
        worklist = list(adders)
        while worklist:
            for e in dag.in_edges(worklist.pop()):
                nid = e.src
                if (nid not in to_remove
                        and dag.nodes[nid].kind in ("fifo", "mux", "wire")
                        and all(o.dst in to_remove
                                for o in dag.out_edges(nid))):
                    to_remove.add(nid)
                    worklist.append(nid)
        for nid in to_remove:
            dag.remove_node(nid)
            for cfg in design.configs.values():
                cfg.fifo_depth.pop(nid, None)
                cfg.mux_select.pop(nid, None)
                cfg.mux_policy.pop(nid, None)
        for fu, nid in list(design.out_adders.items()):
            if nid in to_remove:
                design.out_adders[fu] = reducer
        n_extracted += 1
        adders_removed += k

    compute_liveness(design)
    return {"chains_extracted": n_extracted, "adders_removed": adders_removed}
