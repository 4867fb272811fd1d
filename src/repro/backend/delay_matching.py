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

The model is assembled as arrays: one pass turns the DAG into edge and
node tables, and one stable sort turns the row pieces into the column-wise
arrays HiGHS takes (a row per edge in Python cost a third of a solve).
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


def _add_rows(block: list, keys: np.ndarray, coeffs: list[float],
              rhs: np.ndarray, lengths: list[int] | None = None) -> None:
    """Append to *block* a group of rows per row of *keys* (its variables;
    *coeffs*, their coefficients, are the same in every group), split into
    rows of *lengths* entries (default: one), right-hand sides ``rhs[g]``."""
    block.append((keys.ravel(), np.tile(coeffs, len(keys)),
                  np.tile(lengths or [keys.shape[1]], len(keys)),
                  rhs.ravel()))


def _colwise(lengths: np.ndarray, cols: np.ndarray, values: np.ndarray,
             n_cols: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows of *lengths* entries (columns *cols*, coefficients *values*) as
    CSC ``(start, index, value)``, each column's entries in row order: the
    stable sort of scipy's CSR-to-CSC conversion, what ``linprog`` passed."""
    by_col = np.argsort(cols, kind="stable")
    start = np.zeros(n_cols + 1, dtype=np.int32)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=start[1:])
    rows = np.repeat(np.arange(len(lengths), dtype=np.int32), lengths)
    return start, rows[by_col], values[by_col]


def delay_match(design: Design, *, broadcast_virtual_cost: bool = False
                ) -> dict[str, float]:
    """Run delay matching on *design*, setting ``edge.el`` and per-dataflow
    physical FIFO depths.  Returns solver statistics.

    ``broadcast_virtual_cost=True`` is stage 1 of pin rewiring (§V-B): for
    each broadcast source, the objective counts only the *maximum* EL over
    its out-edges (an optimistic estimate: a broadcast can always become a
    forwarding chain), which pushes registers next to the source where the
    MST stage can rewire them.

    The LP's optimum is not unique, so the registers emitted are the
    vertex HiGHS picks for *this* statement of the problem: variables
    numbered in the order the construction below first uses them, the
    ``A_ub`` rows then the ``A_eq`` rows, each in construction order, and
    ``repro.solvers``'s options.  All are output (``tests/test_golden_lp.py``).
    """
    compute_liveness(design)
    dag = design.dag
    configs = design.configs

    # ---- the graph as arrays ------------------------------------------------------
    edges = list(dag.edges)
    e_src = np.array([e.src for e in edges], dtype=np.int64)
    e_dst = np.array([e.dst for e in edges], dtype=np.int64)
    e_uid = np.array([e.uid for e in edges], dtype=np.int64)
    n_ids = max(dag.nodes, default=-1) + 1
    n_uids = int(e_uid.max(initial=-1)) + 1
    ids = np.fromiter(dag.nodes, np.int64, len(dag.nodes))

    def by_node_id(values, dtype):
        table = np.zeros(n_ids, dtype=dtype)
        table[ids] = values
        return table

    nodes = dag.nodes.values()
    is_fifo = by_node_id([n.kind == "fifo" for n in nodes], bool)
    is_const = by_node_id([n.kind == "const" for n in nodes], bool)
    is_source = by_node_id([n.is_source for n in nodes], bool)
    latency = by_node_id([n.latency for n in nodes], float)
    width = by_node_id([n.width for n in nodes], float)

    # ---- variable keys ------------------------------------------------------------
    # A[nid, df]    : phase of node output under dataflow df
    # Aout[nid, df] : free output phase of a FIFO under df
    # EL[edge uid]  : shared pipeline registers on the edge
    # PM[fifo]      : FIFO capacity (max over dataflows); the physical FIFO
    #                 delay under df is P^df = Aout - A + depth_sem
    # MB[src]       : per-broadcast-source max EL (stage-1 rewiring only)
    aout0 = len(configs) * n_ids
    el0 = 2 * aout0
    pm0 = el0 + n_uids
    mb0 = pm0 + n_ids
    n_keys = mb0 + n_ids

    eq, ub = [], []     # row blocks: A_eq x = b_eq, A_ub x <= b_ub
    uses = [np.empty(0, dtype=np.int64)]    # every key, in order of use

    for df, cfg in enumerate(configs.values()):
        a, a_out = df * n_ids, aout0 + df * n_ids
        active = np.zeros(n_uids, dtype=bool)
        active[np.fromiter(cfg.active_edges, np.int64,
                           len(cfg.active_edges))] = True
        on = active[e_uid]
        src, dst, el = e_src[on], e_dst[on], el0 + e_uid[on]
        # A_v - A_u - EL = L_v.  Out of a FIFO, A_u is its free output
        # phase Aout: A_v = A_fifo_out + EL + L_v, with P^df >= 0 and
        # PM >= P^df below tying it to the FIFO's input phase.
        from_fifo = is_fifo[src]
        k_dst, k_src = a + dst, np.where(from_fifo, a_out, a) + src
        _add_rows(eq, np.column_stack([k_dst, k_src, el]), [1.0, -1.0, -1.0],
                  latency[dst])
        # (a FIFO's output phase is named before its consumer's)
        uses.append(np.column_stack([np.where(from_fifo, k_src, k_dst),
                                     np.where(from_fifo, k_dst, k_src),
                                     el]).ravel())

        live = np.fromiter(cfg.active_nodes, np.int64, len(cfg.active_nodes))
        source, fifo = is_source[live], is_fifo[live]
        sources, fifos = live[source], live[fifo]
        # Sources define phase zero (counters start at cycle 0).
        _add_rows(eq, a + sources[:, None], [1.0], np.zeros(len(sources)))
        depth_sem = np.array([cfg.fifo_depth.get(nid, 0)
                              for nid in fifos.tolist()], dtype=float)
        # P^df >= 0     <=>  -Aout + A <= depth_sem
        # PM >= P^df    <=>  -PM + Aout - A <= -depth_sem
        _add_rows(ub, np.column_stack([a_out + fifos, a + fifos, pm0 + fifos,
                                       a_out + fifos, a + fifos]),
                  [-1.0, 1.0, -1.0, 1.0, -1.0],
                  np.column_stack([depth_sem, -depth_sem]), lengths=[2, 3])
        # (node by node: a source's phase, then a FIFO's Aout, A and PM)
        named = np.full((len(live), 4), -1, dtype=np.int64)
        named[source, 0] = a + sources
        named[fifo, 1:] = np.column_stack([a_out + fifos, a + fifos,
                                           pm0 + fifos])
        uses.append(named[named >= 0])

    # Broadcast virtual cost (stage-1 rewiring): MB_src >= EL_e for every
    # out-edge of a broadcast source (see broadcast_sources), by source.
    virtual = np.empty(0, dtype=np.int64)
    if broadcast_virtual_cost:
        fan_out = np.bincount(e_src, minlength=n_ids)
        virtual = np.flatnonzero(fan_out[e_src] > 1)
        virtual = virtual[np.argsort(e_src[virtual], kind="stable")]
        keys = np.column_stack([mb0 + e_src[virtual], el0 + e_uid[virtual]])
        _add_rows(ub, keys, [-1.0, 1.0], np.zeros(len(virtual)))
        uses.append(keys.ravel())

    # ---- number the variables in order of first use -------------------------------
    var_keys, first_use = np.unique(np.concatenate(uses), return_index=True)
    var_keys = var_keys[np.argsort(first_use)]
    n_vars = len(var_keys)
    if n_vars == 0:  # nothing to match: same keys, no solve, no solver
        return {"status": 0.0, "objective": 0.0, "register_bits": 0.0,
                "n_vars": 0.0, "n_constraints": 0.0}
    number = np.full(n_keys, -1, dtype=np.int64)
    number[var_keys] = np.arange(n_vars)

    # ---- objective --------------------------------------------------------------
    key_cost = np.zeros(n_keys)
    # delaying a constant is free (it never changes)
    key_cost[el0 + e_uid] = np.where(is_const[e_src], 0.0,
                                     [e.width for e in edges])
    key_cost[el0 + e_uid[virtual]] = 0.0    # replaced by the MB term
    # Marginally cheaper than pipeline registers: ties break toward absorbing
    # slack in the programmable FIFO that is already there.
    key_cost[pm0:mb0] = width * 0.98
    key_cost[mb0:] = width

    # HiGHS's rows: the A_ub block, then the A_eq block (linprog's order)
    from ..solvers import solve_lp
    keys, coeffs, lengths, rhs = map(np.concatenate, zip(*ub, *eq))
    n_ub = sum(len(piece[2]) for piece in ub)
    x, objective = solve_lp(
        key_cost[var_keys], *_colwise(lengths, number[keys], coeffs, n_vars),
        np.concatenate((np.full(n_ub, -np.inf), rhs[n_ub:])), rhs)

    # ---- write back ---------------------------------------------------------------
    el_var = number[el0 + e_uid]
    el_regs = np.where(el_var >= 0, np.rint(x[el_var]), 0).astype(np.int64)
    for e, el in zip(edges, el_regs.tolist()):
        e.el = el
    fifo_nodes = {nid for nid, n in dag.nodes.items() if n.kind == "fifo"}
    for df, cfg in enumerate(configs.values()):
        cfg.fifo_phys = {}
        for nid in (nid for nid in fifo_nodes if nid in cfg.active_nodes):
            depth_sem = cfg.fifo_depth.get(nid, 0)
            out_var = number[aout0 + df * n_ids + nid]
            # (a FIFO with no active consumer under df keeps depth_sem)
            cfg.fifo_phys[nid] = depth_sem if out_var < 0 else int(round(
                x[out_var] - x[number[df * n_ids + nid]] + depth_sem))
    # FIFO capacity = max physical depth over dataflows.
    for nid in fifo_nodes:
        depths = [cfg.fifo_phys.get(nid, cfg.fifo_depth.get(nid, 0))
                  for cfg in configs.values()
                  if nid in cfg.active_nodes or nid in cfg.fifo_depth]
        dag.nodes[nid].params["depth"] = max(depths, default=0)

    register_bits = dag.pipeline_register_bits() + dag.fifo_register_bits()
    return {"status": 0.0, "objective": float(objective),
            "register_bits": float(register_bits), "n_vars": float(n_vars),
            "n_constraints": float(len(lengths))}
