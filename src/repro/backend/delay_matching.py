"""LP-based delay matching (paper §V-A).

ADG-level analysis assumes ideal (zero-latency) components; real primitives
have internal latencies, so pipeline registers must be inserted so that all
paths into a component arrive aligned.  With ``D_v`` the output delay of
node ``v`` and ``L_v`` its internal latency, every edge needs

    EL(u, v) = D_v - D_u - L_v  >=  0                     (Eq. 10)

and the objective is the total inserted register bits

    min  sum EL(u, v) * W(u, v)                           (Eq. 11)

solved as a linear program (HiGHS via scipy — the paper uses HiGHS too).

This reproduction generalizes the formulation to *fused multi-dataflow*
designs: each dataflow gets its own phase variables ``A_v^df`` (its active
subgraph must align independently) while the physical register counts
``EL_e`` are shared, and the runtime-programmable FIFOs absorb the
per-dataflow phase differences (their physical capacity is the max over
dataflows, and it enters the objective).  For a single dataflow this
degenerates exactly to Eq. 10/11.

The LP polytope is the dual of a shortest-path problem, so optimal vertex
solutions are integral; we round defensively.
"""

from __future__ import annotations

import numpy as np

from .codegen import Design, compute_liveness

__all__ = ["delay_match", "broadcast_sources"]


def broadcast_sources(design: Design) -> list[int]:
    """Nodes whose output fans out to more than one consumer (candidates
    for §V-B rewiring)."""
    fan: dict[int, int] = {}
    for e in design.dag.edges:
        fan[e.src] = fan.get(e.src, 0) + 1
    return sorted(nid for nid, k in fan.items() if k > 1)


def delay_match(design: Design, *, broadcast_virtual_cost: bool = False
                ) -> dict[str, float]:
    """Run delay matching on *design*, setting ``edge.el`` and per-dataflow
    physical FIFO depths.  Returns solver statistics.

    ``broadcast_virtual_cost=True`` is stage 1 of pin rewiring (§V-B): for
    each broadcast source, the objective counts only the *maximum* EL over
    its out-edges (an optimistic estimate: a broadcast can always become a
    forwarding chain), which pushes registers next to the source where the
    MST stage can rewire them.
    """
    compute_liveness(design)
    dag = design.dag
    configs = design.configs

    # ---- variable layout -------------------------------------------------------
    # A[(nid, df)]  : phase of node output under dataflow df
    # EL[edge uid]  : shared pipeline registers on the edge
    # P[(fifo, df)] : physical FIFO delay under df
    # PM[fifo]      : FIFO capacity (max over dataflows)
    # MB[src]       : per-broadcast-source max EL (stage-1 rewiring only)
    var_index: dict[tuple, int] = {}

    def var(key) -> int:
        if key not in var_index:
            var_index[key] = len(var_index)
        return var_index[key]

    rows: list[tuple[dict[int, float], float, float]] = []  # (coeffs, lo, hi)

    edge_by_uid = {e.uid: e for e in dag.edges}
    fifo_nodes = {nid for nid, n in dag.nodes.items() if n.kind == "fifo"}

    for name, cfg in configs.items():
        for e in dag.edges:
            if e.uid not in cfg.active_edges:
                continue
            u, v = e.src, e.dst
            lat_v = dag.nodes[v].latency
            if u in fifo_nodes:
                # A_v = A_fifo_out + EL + L_v ; A_fifo_out free, with
                # P^df = A_out - A_in + depth_sem >= 0 and PM >= P^df.
                a_out = var(("Aout", u, name))
                coeffs = {var(("A", v, name)): 1.0, a_out: -1.0,
                          var(("EL", e.uid)): -1.0}
                rows.append((coeffs, float(lat_v), float(lat_v)))
            else:
                coeffs = {var(("A", v, name)): 1.0, var(("A", u, name)): -1.0,
                          var(("EL", e.uid)): -1.0}
                rows.append((coeffs, float(lat_v), float(lat_v)))
        for nid in cfg.active_nodes:
            node = dag.nodes[nid]
            if node.is_source:
                # Sources define phase zero (counters start at cycle 0).
                rows.append(({var(("A", nid, name)): 1.0}, 0.0, 0.0))
            if nid in fifo_nodes:
                depth_sem = cfg.fifo_depth.get(nid, 0)
                # P^df = A_out - A_in + depth_sem >= 0
                coeffs = {var(("Aout", nid, name)): 1.0,
                          var(("A", nid, name)): -1.0}
                rows.append((coeffs, float(-depth_sem), np.inf))
                # PM >= P^df  <=>  PM - A_out + A_in >= depth_sem
                coeffs = {var(("PM", nid)): 1.0,
                          var(("Aout", nid, name)): -1.0,
                          var(("A", nid, name)): 1.0}
                rows.append((coeffs, float(depth_sem), np.inf))

    # Broadcast virtual cost (stage-1 rewiring): MB_src >= EL_e.
    bcast_edges: dict[int, list[int]] = {}
    if broadcast_virtual_cost:
        for src in broadcast_sources(design):
            outs = dag.out_edges(src)
            if len(outs) > 1:
                bcast_edges[src] = [e.uid for e in outs]
                for e in outs:
                    rows.append(({var(("MB", src)): 1.0,
                                  var(("EL", e.uid)): -1.0}, 0.0, np.inf))

    n_vars = len(var_index)
    if n_vars == 0:  # nothing to match: same keys, no solve, no solver
        return {"status": 0.0, "objective": 0.0, "register_bits": 0.0,
                "n_vars": 0.0, "n_constraints": 0.0}

    from ..solvers import csr_matrix, linprog

    # ---- objective --------------------------------------------------------------
    cost = np.zeros(n_vars)
    virtual_uids = {uid for uids in bcast_edges.values() for uid in uids}
    for key, idx in var_index.items():
        if key[0] == "EL":
            uid = key[1]
            if uid in virtual_uids:
                continue  # replaced by the MB term
            edge = edge_by_uid[uid]
            if dag.nodes[edge.src].kind == "const":
                continue  # delaying a constant is free (it never changes)
            cost[idx] = float(edge.width)
        elif key[0] == "PM":
            # Marginally cheaper than plain pipeline registers so ties
            # break toward absorbing slack in the already-present
            # programmable FIFO instead of instantiating new registers.
            cost[idx] = float(dag.nodes[key[1]].width) * 0.98
        elif key[0] == "MB":
            cost[idx] = float(dag.nodes[key[1]].width)

    # ---- assemble sparse constraint system ---------------------------------------
    eq_rows, eq_rhs = [], []
    ub_rows, ub_rhs = [], []
    for coeffs, lo, hi in rows:
        if lo == hi:
            eq_rows.append(coeffs)
            eq_rhs.append(lo)
        else:
            # row >= lo  ->  -row <= -lo
            ub_rows.append({k: -v for k, v in coeffs.items()})
            ub_rhs.append(-lo)

    def to_csr(row_dicts):
        data, indices, indptr = [], [], [0]
        for coeffs in row_dicts:
            for k, v in coeffs.items():
                indices.append(k)
                data.append(v)
            indptr.append(len(indices))
        return csr_matrix((data, indices, indptr),
                          shape=(len(row_dicts), n_vars))

    res = linprog(
        cost,
        A_eq=to_csr(eq_rows) if eq_rows else None,
        b_eq=np.array(eq_rhs) if eq_rhs else None,
        A_ub=to_csr(ub_rows) if ub_rows else None,
        b_ub=np.array(ub_rhs) if ub_rhs else None,
        bounds=(0, None),
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"delay matching LP failed: {res.message}")
    x = res.x

    # ---- write back ---------------------------------------------------------------
    for e in dag.edges:
        key = ("EL", e.uid)
        e.el = int(round(x[var_index[key]])) if key in var_index else 0
    for name, cfg in configs.items():
        cfg.fifo_phys = {}
        for nid in fifo_nodes:
            if nid not in cfg.active_nodes:
                continue
            a_in = x[var_index[("A", nid, name)]]
            key_out = ("Aout", nid, name)
            if key_out not in var_index:
                # FIFO with no active consumer under this dataflow.
                cfg.fifo_phys[nid] = cfg.fifo_depth.get(nid, 0)
                continue
            a_out = x[var_index[key_out]]
            depth_sem = cfg.fifo_depth.get(nid, 0)
            cfg.fifo_phys[nid] = int(round(a_out - a_in + depth_sem))
    # FIFO capacity = max physical depth over dataflows.
    for nid in fifo_nodes:
        depths = [cfg.fifo_phys.get(nid, cfg.fifo_depth.get(nid, 0))
                  for cfg in configs.values()
                  if nid in cfg.active_nodes or nid in cfg.fifo_depth]
        dag.nodes[nid].params["depth"] = max(depths, default=0)

    register_bits = dag.pipeline_register_bits() + dag.fifo_register_bits()
    return {
        "status": float(res.status),
        "objective": float(res.fun),
        "register_bits": float(register_bits),
        "n_vars": float(n_vars),
        "n_constraints": float(len(rows)),
    }
