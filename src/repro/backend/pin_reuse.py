"""Reducer pin reusing via 0-1 integer programming (paper §V-C, Fig. 9).

With multiple dataflow configurations, not all reducer input pins are live
simultaneously.  A liveness table (filled during reduction extraction)
says which original pins each dataflow drives; the number of *physical*
pins only needs to be the maximum live count.  The mapping of original
pins to physical pins is a 0-1 ILP:

* ``C(i, j, k) = 1`` iff original pin *i* maps to physical pin *j* in
  dataflow *k*;
* every live pin maps to exactly one physical pin; every physical pin
  takes at most one live input per dataflow;
* minimize total connections (fewer distinct (i, j) pairs ⇒ fewer mux
  inputs).

Solved with ``scipy.optimize.milp`` (HiGHS); a greedy first-fit fallback
is used if the solver fails, counted in the pass report and logged.  A mux
is cheaper than an adder port on ASIC, so shrinking the reducer wins area
and power.

A spatial array is many copies of one PE, so most reducers of a design
share one liveness table: :func:`reuse_pins` solves the ILP once per
distinct table and hands every reducer its own copy of the result.
"""

from __future__ import annotations

import logging

import numpy as np

from .codegen import Design

__all__ = ["reuse_pins", "solve_pin_mapping"]

_log = logging.getLogger("repro.backend")


def solve_pin_mapping(live: dict[str, set[int]]
                      ) -> tuple[dict[tuple[int, str], int], int]:
    """Solve the Fig. 9 ILP.

    ``live[k]`` is the set of original pins active in dataflow *k*.
    Returns ``(assignment, n_physical)`` where ``assignment[(i, k)] = j``.
    """
    assignment, n_phys, _fell_back = _solve(live)
    return assignment, n_phys


def _solve(live: dict[str, set[int]]
           ) -> tuple[dict[tuple[int, str], int], int, bool]:
    """:func:`solve_pin_mapping` plus whether the MILP failed and the
    assignment is the greedy first-fit one."""
    dataflows = sorted(live)
    n_phys = max((len(p) for p in live.values()), default=0)
    if n_phys == 0:
        return {}, 0, False

    from ..solvers import LinearConstraint, milp

    pins = sorted({i for p in live.values() for i in p})

    # Variable order: C[i, j, k] for live (i, k) pairs only.
    var_index: dict[tuple[int, int, str], int] = {}
    for k in dataflows:
        for i in sorted(live[k]):
            for j in range(n_phys):
                var_index[(i, j, k)] = len(var_index)
    n_vars = len(var_index)

    constraints = []
    # Each live pin maps to exactly one physical pin.
    for k in dataflows:
        for i in sorted(live[k]):
            row = np.zeros(n_vars)
            for j in range(n_phys):
                row[var_index[(i, j, k)]] = 1.0
            constraints.append(LinearConstraint(row.reshape(1, -1), 1.0, 1.0))
    # Each physical pin takes at most one input per dataflow.
    for k in dataflows:
        for j in range(n_phys):
            row = np.zeros(n_vars)
            for i in sorted(live[k]):
                row[var_index[(i, j, k)]] = 1.0
            constraints.append(LinearConstraint(row.reshape(1, -1), 0.0, 1.0))

    # Objective: minimize distinct (i, j) connections.  Encode with helper
    # variables U(i, j) >= C(i, j, k); cost on U only.
    u_index: dict[tuple[int, int], int] = {}
    for i in pins:
        for j in range(n_phys):
            u_index[(i, j)] = n_vars + len(u_index)
    total = n_vars + len(u_index)
    rows, lo = [], []
    for (i, j, k), idx in var_index.items():
        row = np.zeros(total)
        row[u_index[(i, j)]] = 1.0
        row[idx] = -1.0
        rows.append(row)
        lo.append(0.0)
    big_constraints = []
    for c in constraints:
        a = np.zeros((c.A.shape[0], total))
        a[:, :n_vars] = c.A
        big_constraints.append(LinearConstraint(a, c.lb, c.ub))
    if rows:
        big_constraints.append(LinearConstraint(
            np.vstack(rows), np.array(lo), np.full(len(lo), np.inf)))

    cost = np.zeros(total)
    for idx in u_index.values():
        cost[idx] = 1.0
    res = milp(c=cost, integrality=np.ones(total),
               bounds=(0, 1), constraints=big_constraints)

    assignment: dict[tuple[int, str], int] = {}
    if res.success:
        x = np.rint(res.x)
        for (i, j, k), idx in var_index.items():
            if x[idx] > 0.5:
                assignment[(i, k)] = j
        return assignment, n_phys, False

    # Greedy fallback: first-fit preferring an already-used (i, j) pair.
    used_pairs: set[tuple[int, int]] = set()
    for k in dataflows:
        taken: set[int] = set()
        for i in sorted(live[k]):
            j = next((jj for (ii, jj) in used_pairs
                      if ii == i and jj not in taken), None)
            if j is None:
                j = next(jj for jj in range(n_phys) if jj not in taken)
            assignment[(i, k)] = j
            taken.add(j)
            used_pairs.add((i, j))
    return assignment, n_phys, True


def reuse_pins(design: Design) -> dict[str, int]:
    """Apply pin reusing to every reducer in the design.

    The physical effect is recorded on the reducer node (``n_phys_pins``,
    ``remap_muxes``) for the area/power model; the logical edges are kept
    so functional simulation still sees per-dataflow liveness.
    """
    dag = design.dag
    pins_saved = 0
    muxes_added = 0
    n_reducers = 0
    milp_fallbacks = 0
    # liveness signature -> _solve(live); lives for this call only, so a
    # cold compile solves everything it uses
    solved: dict[tuple, tuple[dict[tuple[int, str], int], int, bool]] = {}
    for nid, node in dag.nodes.items():
        if node.kind != "reducer":
            continue
        n_reducers += 1
        pin_dfs: dict[int, set[str]] = node.params.get("pin_dataflows", {})
        live: dict[str, set[int]] = {name: set() for name in design.configs}
        for pin, dfs in pin_dfs.items():
            for name in dfs:
                if name in live:
                    live[name].add(pin)
        live = {k: v for k, v in live.items() if v}
        if not live:
            continue
        signature = tuple(sorted((k, tuple(sorted(v)))
                                 for k, v in live.items()))
        if signature not in solved:
            solved[signature] = _solve(live)
            milp_fallbacks += solved[signature][2]
        assignment, n_phys, _fell_back = solved[signature]
        node.params["n_phys_pins"] = n_phys
        node.params["pin_assignment"] = dict(assignment)  # the node's own
        # Count muxes: a physical pin fed by >1 distinct original pins.
        feeders: dict[int, set[int]] = {}
        for (i, _k), j in assignment.items():
            feeders.setdefault(j, set()).add(i)
        n_mux = sum(1 for s in feeders.values() if len(s) > 1)
        node.params["remap_muxes"] = n_mux
        muxes_added += n_mux
        pins_saved += max(0, node.params["n_inputs"] - n_phys)
    if milp_fallbacks:
        _log.warning(
            "pin-reuse MILP failed on %d of %d distinct liveness tables "
            "(%d reducers): their pin assignments are the greedy first-fit "
            "ones, which may use more muxes than the optimum",
            milp_fallbacks, len(solved), n_reducers)
    return {"reducers": n_reducers, "pins_saved": pins_saved,
            "muxes_added": muxes_added, "milp_fallbacks": milp_fallbacks}
