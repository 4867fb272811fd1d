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
node tables, and each family of rows goes straight into the CSR triplets
the solver takes (a spatial array has thousands of edges, and building a
row per edge in Python cost a third of what the solve does).
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


class _Rows:
    """The rows of one constraint block (``A x = b`` or ``A x <= b``),
    collected as CSR pieces over variable *keys*; :meth:`csr` swaps the
    keys for variable numbers once those are known."""

    def __init__(self) -> None:
        self.keys: list[np.ndarray] = []
        self.coeffs: list[np.ndarray] = []
        self.lengths: list[np.ndarray] = []
        self.rhs: list[np.ndarray] = []

    def add(self, keys: np.ndarray, coeffs: list[float], rhs: np.ndarray,
            lengths: list[int] | None = None) -> None:
        """Append one group of rows per row of *keys*: ``keys[g]`` are the
        group's variables in column order and *coeffs* their coefficients
        (the same in every group); *lengths* splits a group's entries
        into consecutive rows (default: one row), ``rhs[g]`` holding one
        right-hand side per such row."""
        self.keys.append(keys.ravel())
        self.coeffs.append(np.tile(coeffs, len(keys)))
        self.lengths.append(np.tile(lengths or [keys.shape[1]], len(keys)))
        self.rhs.append(rhs.ravel())

    def __len__(self) -> int:
        return sum(map(len, self.lengths))

    def csr(self, number: np.ndarray, n_vars: int, csr_matrix):
        """``(A, b)`` for the solver, ``(None, None)`` for an empty block."""
        if not len(self):
            return None, None
        lengths = np.concatenate(self.lengths)
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        matrix = csr_matrix(
            (np.concatenate(self.coeffs), number[np.concatenate(self.keys)],
             indptr), shape=(len(lengths), n_vars))
        return matrix, np.concatenate(self.rhs)


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
    numbered in the order the row-by-row construction below first uses
    them, rows in construction order, columns within a row as written.
    All three are part of the output (``tests/test_golden_lp.py``).
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

    eq, ub = _Rows(), _Rows()
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
        eq.add(np.column_stack([k_dst, k_src, el]), [1.0, -1.0, -1.0],
               latency[dst])
        # (a FIFO's output phase is named before its consumer's)
        uses.append(np.column_stack([np.where(from_fifo, k_src, k_dst),
                                     np.where(from_fifo, k_dst, k_src),
                                     el]).ravel())

        live = np.fromiter(cfg.active_nodes, np.int64, len(cfg.active_nodes))
        source, fifo = is_source[live], is_fifo[live]
        sources, fifos = live[source], live[fifo]
        # Sources define phase zero (counters start at cycle 0).
        eq.add(a + sources[:, None], [1.0], np.zeros(len(sources)))
        depth_sem = np.array([cfg.fifo_depth.get(nid, 0)
                              for nid in fifos.tolist()], dtype=float)
        # P^df >= 0     <=>  -Aout + A <= depth_sem
        # PM >= P^df    <=>  -PM + Aout - A <= -depth_sem
        ub.add(np.column_stack([a_out + fifos, a + fifos,
                                pm0 + fifos, a_out + fifos, a + fifos]),
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
        ub.add(keys, [-1.0, 1.0], np.zeros(len(virtual)))
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

    from ..solvers import csr_matrix, linprog

    # ---- objective --------------------------------------------------------------
    key_cost = np.zeros(n_keys)
    # delaying a constant is free (it never changes)
    key_cost[el0 + e_uid] = np.where(is_const[e_src], 0.0,
                                     [e.width for e in edges])
    key_cost[el0 + e_uid[virtual]] = 0.0    # replaced by the MB term
    # Marginally cheaper than plain pipeline registers so ties break toward
    # absorbing slack in the already-present programmable FIFO instead of
    # instantiating new registers.
    key_cost[pm0:mb0] = width * 0.98
    key_cost[mb0:] = width

    a_eq, b_eq = eq.csr(number, n_vars, csr_matrix)
    a_ub, b_ub = ub.csr(number, n_vars, csr_matrix)
    res = linprog(key_cost[var_keys], A_eq=a_eq, b_eq=b_eq, A_ub=a_ub,
                  b_ub=b_ub, bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"delay matching LP failed: {res.message}")
    x = res.x

    # ---- write back ---------------------------------------------------------------
    el_var = number[el0 + e_uid]
    el_regs = np.where(el_var >= 0, np.rint(x[el_var]), 0).astype(np.int64)
    for e, el in zip(edges, el_regs.tolist()):
        e.el = el
    fifo_nodes = {nid for nid, n in dag.nodes.items() if n.kind == "fifo"}
    for df, cfg in enumerate(configs.values()):
        cfg.fifo_phys = {}
        for nid in fifo_nodes:
            if nid not in cfg.active_nodes:
                continue
            depth_sem = cfg.fifo_depth.get(nid, 0)
            out_var = number[aout0 + df * n_ids + nid]
            if out_var < 0:
                # FIFO with no active consumer under this dataflow.
                cfg.fifo_phys[nid] = depth_sem
                continue
            a_in = x[number[df * n_ids + nid]]
            cfg.fifo_phys[nid] = int(round(x[out_var] - a_in + depth_sem))
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
        "n_constraints": float(len(eq) + len(ub)),
    }
