"""Relation-based interconnection analysis (paper §IV-A).

Two FUs can share a tensor operand when they access the same data element.
With the composed map ``f_{TS->D}(t, s) = M_D M_T t + M_D M_S s + b`` the
analysis solves, for spatial offsets ``ds`` within distance ``d_S``:

* **direct** interconnections (Eq. 6):  ``M_D M_S ds = 0`` — the same data
  at the same local timestamp; physical register depth is the control-skew
  ``dt_bias = ds . c`` (must be >= 0);
* **delay** interconnections (Eq. 7):  ``M_D M_T dt = -M_D M_S ds`` — the
  same data ``dt`` timestamps later; the FIFO depth is the scalarized delay
  (Eq. 3) plus the control skew.

Unlike TensorLib, neither the number of spatial dimensions nor the number
of delay-interconnection sets is limited (§IV-A-c): every integer solution
inside the search window is reported, and the MST stage (§IV-B) selects the
cheapest spanning subset.

``ds = 0`` solutions with positive delay are *stationary* reuse (the FU
keeps the operand in a local register) — not an interconnection, but
recorded because the memory system uses it to size traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .affine import box_iter, integer_nullspace, solve_integer
from .dataflow import Dataflow

__all__ = ["ReuseKind", "ReuseSolution", "find_reuse_solutions",
           "ReuseEdge", "build_reuse_edges"]


class ReuseKind:
    """Enumeration of reuse-solution kinds (plain strings for readability)."""

    DIRECT = "direct"
    DELAY = "delay"
    STATIONARY = "stationary"


@dataclass(frozen=True)
class ReuseSolution:
    """One solution of Eq. 6/7 for a tensor under a dataflow.

    ``depth`` is the physical register/FIFO depth of the connection:
    ``scalar_delay(dt) + ds . c`` — zero means a pure wire (broadcast).
    """

    tensor: str
    ds: tuple[int, ...]
    dt: tuple[int, ...]
    scalar_dt: int
    depth: int
    kind: str

    def is_interconnect(self) -> bool:
        return self.kind in (ReuseKind.DIRECT, ReuseKind.DELAY)

    def coverage(self, rt: tuple[int, ...]) -> float:
        """Fraction of destination timestamps the connection serves.

        A delay connection with timestamp delta ``dt`` is valid at the
        destination only when ``t - dt`` is a legal timestamp (the paper's
        "valid if and only if the timestamp is no smaller than dt"): at
        loop boundaries the FIFO holds no usable data and the FU must fall
        back to another source (we fall back to memory).  Direct
        connections (``dt = 0``) cover everything.
        """
        frac = 1.0
        for delta, size in zip(self.dt, rt):
            frac *= max(0, size - abs(delta)) / size
        return frac


def _minimize_scalar_delay(mdt: np.ndarray, rhs: np.ndarray,
                           strides: tuple[int, ...], rt: tuple[int, ...],
                           dt_bias: int, min_depth: int = 1
                           ) -> tuple[np.ndarray, int] | None:
    """Find integer ``dt`` with ``mdt @ dt = rhs`` minimizing the scalar
    delay, subject to ``|dt_k| <= rt_k - 1`` and
    ``delay + dt_bias >= min_depth``.

    Solved exactly: a particular solution plus integer nullspace from the
    HNF solver, then a small ILP over the nullspace coefficients (scipy's
    ``milp`` is backed by HiGHS — the solver the paper itself uses).
    """
    sol = solve_integer(mdt, rhs)
    if sol is None:
        return None
    x0 = np.array([int(v) for v in sol.x0], dtype=np.int64)
    basis = sol.basis
    w = np.array(strides, dtype=np.int64)
    hi = np.array([r - 1 for r in rt], dtype=np.int64)

    def admissible(dt: np.ndarray) -> bool:
        if np.any(np.abs(dt) > hi):
            return False
        return int(w @ dt) + dt_bias >= min_depth

    if basis.shape[1] == 0:
        return (x0, int(w @ x0)) if admissible(x0) else None

    from ..solvers import LinearConstraint, milp

    n_z = basis.shape[1]
    bmat = np.array([[int(v) for v in row] for row in basis], dtype=np.float64)
    cost = w.astype(np.float64) @ bmat
    constraints = [
        # component bounds: -hi <= x0 + B z <= hi
        LinearConstraint(bmat, (-hi - x0).astype(np.float64),
                         (hi - x0).astype(np.float64)),
        # causality + FIFO floor: w.(x0 + B z) + dt_bias >= min_depth
        LinearConstraint((w.astype(np.float64) @ bmat).reshape(1, -1),
                         np.array([min_depth - float(w @ x0) - dt_bias]),
                         np.array([np.inf])),
    ]
    res = milp(c=cost, integrality=np.ones(n_z),
               constraints=constraints)
    if not res.success:
        return None
    z = np.rint(res.x).astype(np.int64)
    dt = x0 + np.array([[int(v) for v in row] for row in basis],
                       dtype=np.int64) @ z
    if not admissible(dt):  # numerical safety; should not happen
        return None
    return dt, int(w @ dt)


def find_reuse_solutions(dataflow: Dataflow, tensor: str, *,
                         max_dist: int = 1,
                         include_stationary: bool = True
                         ) -> list[ReuseSolution]:
    """Enumerate all reuse solutions for *tensor* within spatial distance
    ``max_dist`` (the paper's ``d_S`` constraint in Eq. 6/7)."""
    mdt, mds, _bias = dataflow.tensor_ts_map(tensor)
    strides = dataflow.strides
    rt = dataflow.rt
    solutions: list[ReuseSolution] = []

    bounds = [(-min(max_dist, r - 1), min(max_dist, r - 1)) for r in dataflow.rs]
    for ds in box_iter(bounds):
        ds_t = tuple(int(v) for v in ds)
        dt_bias = dataflow.delta_t_bias(ds)
        if not any(ds_t):
            if include_stationary:
                stat = _stationary_reuse(mdt, strides, rt)
                if stat is not None:
                    dt, scalar = stat
                    solutions.append(ReuseSolution(
                        tensor, ds_t, tuple(int(v) for v in dt),
                        scalar, scalar, ReuseKind.STATIONARY))
            continue

        rhs = -(mds @ ds)
        if not rhs.any():
            # Eq. 6 candidate: same data at the same local timestamp.
            if dt_bias >= 0:
                solutions.append(ReuseSolution(
                    tensor, ds_t, (0,) * len(rt), 0, dt_bias, ReuseKind.DIRECT))
                continue
            # dt_bias < 0 violates Eq. 6's constraint; fall through and look
            # for a compensating temporal delay (Eq. 7 with rhs = 0, dt != 0).
        found = _minimize_scalar_delay(mdt, rhs, strides, rt, dt_bias)
        if found is None:
            continue
        dt, scalar = found
        depth = scalar + dt_bias
        # min_depth=1 in the solver guarantees depth >= 1 here: a delay
        # interconnection is a FIFO; a zero-depth back-edge would be a
        # combinational cycle risk (the forest must stay acyclic, §II).
        kind = ReuseKind.DIRECT if scalar == 0 else ReuseKind.DELAY
        solutions.append(ReuseSolution(
            tensor, ds_t, tuple(int(v) for v in dt), scalar, depth, kind))
    return solutions


def _stationary_reuse(mdt: np.ndarray, strides: tuple[int, ...],
                      rt: tuple[int, ...]) -> tuple[np.ndarray, int] | None:
    """Smallest positive-delay ``dt`` with ``M_D M_T dt = 0`` — temporal
    (stationary) reuse at a single FU, if the schedule has any."""
    basis = integer_nullspace(mdt)
    if basis.shape[1] == 0:
        return None
    best: tuple[np.ndarray, int] | None = None
    # The smallest positive mixed-radix combination of nullspace vectors is
    # found among single basis vectors normalized to positive scalar delay.
    for col in range(basis.shape[1]):
        vec = np.array([int(v) for v in basis[:, col]], dtype=np.int64)
        scalar = int(np.dot(vec, strides))
        if scalar < 0:
            vec, scalar = -vec, -scalar
        if scalar == 0 or np.any(np.abs(vec) > np.array(rt) - 1):
            continue
        if best is None or scalar < best[1]:
            best = (vec, scalar)
    return best


@dataclass(frozen=True)
class ReuseEdge:
    """A concrete FU-to-FU reuse edge instantiated from a solution."""

    tensor: str
    src: tuple[int, ...]
    dst: tuple[int, ...]
    solution: ReuseSolution

    @property
    def cost(self) -> float:
        """MST edge cost: the delay-FIFO depth (§IV-B).

        Delay connections carry a small extra cost over equal-depth direct
        connections: a runtime-programmable FIFO needs control logic that a
        fixed skew-register chain does not, so ties break toward the
        simpler hardware.
        """
        return self.solution.depth + (0.25 if self.solution.kind == ReuseKind.DELAY
                                      else 0.0)


def build_reuse_edges(dataflow: Dataflow,
                      solutions: Iterable[ReuseSolution]) -> list[ReuseEdge]:
    """Instantiate every solution at every in-bounds FU pair.

    An edge ``src -> dst`` means *src* holds the data first and pushes it to
    *dst* after ``solution.depth`` cycles.
    """
    rs = dataflow.rs
    coords = dataflow.fu_coords()
    edges: list[ReuseEdge] = []
    for sol in solutions:
        if not sol.is_interconnect():
            continue
        ds = np.array(sol.ds, dtype=np.int64)
        for src in coords:
            dst = tuple(int(v) for v in (np.array(src) + ds))
            if all(0 <= d < r for d, r in zip(dst, rs)):
                edges.append(ReuseEdge(sol.tensor, src, dst, sol))
    return edges
