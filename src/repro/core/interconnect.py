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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .affine import (box_iter, hermite_normal_form, nullspace_of_hnf,
                     particular_solution)
from .dataflow import Dataflow

__all__ = ["ReuseKind", "ReuseSolution", "find_reuse_solutions",
           "ReuseEdge", "ReuseTable", "build_reuse_edges", "offset_arcs"]


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

    @property
    def cost(self) -> float:
        """MST edge cost: the delay-FIFO depth (§IV-B).

        Delay connections carry a small extra cost over equal-depth direct
        connections: a runtime-programmable FIFO needs control logic that a
        fixed skew-register chain does not, so ties break toward the
        simpler hardware.
        """
        return self.depth + (0.25 if self.kind == ReuseKind.DELAY else 0.0)

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


def _delay_lattice(mdt: np.ndarray) -> tuple:
    """What every delay search over ``M_D M_T dt = rhs`` of one (dataflow,
    tensor) shares: the Hermite form ``H = M_D M_T U`` (as lists), which
    yields a particular solution per ``rhs``; the integer nullspace basis
    ``B`` (the columns of ``U`` that ``H`` zeroes) in column echelon form
    ``E = B V``, whose column ``j`` starts at its positive *leading row*,
    below column ``j - 1``'s; the unimodular ``V`` that maps echelon
    coefficients back to ``B``'s; and the leading rows."""
    h, u = hermite_normal_form(mdt)
    null = nullspace_of_hnf(h, u)
    basis = np.array(null.tolist(), dtype=np.int64).reshape(null.shape)
    to_basis = np.eye(null.shape[1], dtype=np.int64)
    if basis.size:
        echelon, to_basis = (np.array(m.tolist(), dtype=np.int64)
                             for m in hermite_normal_form(basis))
        basis = echelon[:, :null.shape[1]]
    lead = [int(np.flatnonzero(col)[0]) for col in basis.T]
    return h.tolist(), u.tolist(), basis, to_basis, lead + [len(basis)]


def _minimize_scalar_delay(lattice: tuple, rhs, strides: tuple[int, ...],
                           rt: tuple[int, ...], dt_bias, min_depth: int = 1,
                           cone=True) -> list[tuple[np.ndarray, int] | None]:
    """For each right-hand side ``rhs[i]``, find integer ``dt`` with
    ``M_D M_T dt = rhs[i]`` minimizing the scalar delay, subject to
    ``|dt_k| <= rt_k - 1`` and ``delay + dt_bias[i] >= min_depth``;
    *lattice* is :func:`_delay_lattice` of ``M_D M_T``.  Returns one
    ``(dt, delay)`` or ``None`` per right-hand side.

    ``dt = x0 + B z`` over a particular solution and the nullspace basis
    ``B``.  Where ``cone`` holds (a bool, or one per right-hand side),
    ``z >= 0``: the formulation the Eq. 7 delay search has always solved,
    and the one the generated designs are pinned to (over all integer
    ``z`` some conv2d schedules off the kernel suite have shorter delays).

    Solved exactly by enumeration, with no solver, for every right-hand
    side at once: in echelon coefficients the leading row of column ``j``
    bounds ``z_j`` once ``z_1..z_{j-1}`` are fixed, and the rows before
    the next leading row prune, which visits exactly the lattice points
    whose leading rows lie in the box; on the kernel suite that is at
    most a few hundred per right-hand side.  The least delay wins; among
    equal delays the lexicographically least ``dt`` (outermost loop
    first).
    """
    h, u, basis, to_basis, lead = lattice
    found: list[tuple[np.ndarray, int] | None] = [None] * len(rhs)
    solvable = [(i, x0) for i, b in enumerate(rhs)
                if (x0 := particular_solution(h, u, b)) is not None]
    if not solvable:
        return found
    x0 = np.array([x for _i, x in solvable], dtype=np.int64).reshape(
        len(solvable), len(u))
    ids = [i for i, _x in solvable]
    bias = np.asarray(dt_bias, dtype=np.int64)[ids]
    cone = np.broadcast_to(np.asarray(cone, dtype=bool), (len(rhs),))[ids]
    hi = np.array(rt, dtype=np.int64) - 1
    # pid: the problem each candidate row belongs to
    pid = np.flatnonzero(np.all(np.abs(x0[:, :lead[0]]) <= hi[:lead[0]],
                                axis=1))
    z = np.zeros((len(pid), 0), dtype=np.int64)
    for j in range(basis.shape[1]):
        row, step = lead[j], basis[lead[j], j]
        base = x0[pid, row] + z @ basis[row, :j]
        lo = -((hi[row] + base) // step)
        count = np.maximum((hi[row] - base) // step - lo + 1, 0)
        parent = np.repeat(np.arange(len(z)), count)
        offset = np.arange(len(parent)) - np.repeat(np.cumsum(count) - count,
                                                    count)
        z, pid = np.column_stack([z[parent], lo[parent] + offset]), pid[parent]
        fixed = slice(row + 1, lead[j + 1])
        dt = x0[pid, fixed] + z @ basis[fixed, :j + 1].T
        keep = np.all(np.abs(dt) <= hi[fixed], axis=1)
        z, pid = z[keep], pid[keep]
    keep = ~cone[pid] | np.all(z @ to_basis.T >= 0, axis=1)
    z, pid = z[keep], pid[keep]
    dt = x0[pid] + z @ basis.T
    delay = dt @ np.array(strides, dtype=np.int64)
    keep = delay + bias[pid] >= min_depth
    dt, delay, pid = dt[keep], delay[keep], pid[keep]
    order = np.lexsort(tuple(dt.T[::-1]) + (delay, pid))
    for i in order[np.diff(pid[order], prepend=-1) != 0]:
        found[solvable[pid[i]][0]] = (dt[i], int(delay[i]))
    return found


def find_reuse_solutions(dataflow: Dataflow, tensor: str, *,
                         max_dist: int = 1,
                         include_stationary: bool = True
                         ) -> list[ReuseSolution]:
    """Enumerate all reuse solutions for *tensor* within spatial distance
    ``max_dist`` (the paper's ``d_S`` constraint in Eq. 6/7)."""
    mdt, mds, _bias = dataflow.tensor_ts_map(tensor)
    strides = dataflow.strides
    rt = dataflow.rt
    lattice = _delay_lattice(mdt)
    solutions: list[ReuseSolution | None] = []
    searches = []  # (slot in solutions, ds, dt_bias, rhs, cone) per search

    bounds = [(-min(max_dist, r - 1), min(max_dist, r - 1)) for r in dataflow.rs]
    for ds in box_iter(bounds):
        ds_t = tuple(int(v) for v in ds)
        dt_bias = dataflow.delta_t_bias(ds_t)
        rhs = -(mds @ ds)
        if not any(ds_t):
            if include_stationary:
                # the least positive delay after which the FU itself sees
                # the same data again, over the whole box (no cone)
                searches.append((len(solutions), ds_t, 0, rhs, False))
                solutions.append(None)
            continue
        if not rhs.any():
            # Eq. 6 candidate: same data at the same local timestamp.
            if dt_bias >= 0:
                solutions.append(ReuseSolution(
                    tensor, ds_t, (0,) * len(rt), 0, dt_bias, ReuseKind.DIRECT))
                continue
            # dt_bias < 0 violates Eq. 6's constraint; fall through and look
            # for a compensating temporal delay (Eq. 7 with rhs = 0, dt != 0).
        searches.append((len(solutions), ds_t, dt_bias, rhs, True))
        solutions.append(None)

    found = _minimize_scalar_delay(lattice, [s[3] for s in searches], strides,
                                   rt, [s[2] for s in searches],
                                   cone=[s[4] for s in searches])
    for (slot, ds_t, dt_bias, _rhs, cone), hit in zip(searches, found):
        if hit is None:
            continue
        dt, scalar = hit
        # min_depth=1 in the search guarantees depth >= 1 here: a delay
        # interconnection is a FIFO; a zero-depth back-edge would be a
        # combinational cycle risk (the forest must stay acyclic, §II).
        kind = (ReuseKind.STATIONARY if not cone else
                ReuseKind.DIRECT if scalar == 0 else ReuseKind.DELAY)
        solutions[slot] = ReuseSolution(
            tensor, ds_t, tuple(int(v) for v in dt), scalar, scalar + dt_bias,
            kind)
    return [sol for sol in solutions if sol is not None]


@dataclass(frozen=True)
class ReuseEdge:
    """A concrete FU-to-FU reuse edge instantiated from a solution."""

    tensor: str
    src: tuple[int, ...]
    dst: tuple[int, ...]
    solution: ReuseSolution


def offset_arcs(rs: tuple[int, ...], offsets
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every spatial offset applied at every FU whose partner lies in the
    array: ``(offset index, source FU, destination FU)``, FUs as row-major
    indexes into ``Dataflow.fu_coords()``, offset-major and source-minor."""
    grid = np.indices(rs).reshape(len(rs), -1).T
    moved = grid + np.array(offsets, dtype=np.int64).reshape(-1, 1, len(rs))
    inside = np.all((moved >= 0) & (moved < np.array(rs)), axis=2)
    which, src = np.nonzero(inside)
    return which, src, np.ravel_multi_index(tuple(moved[inside].T), rs)


@dataclass(frozen=True)
class ReuseTable:
    """The reuse graph of one (dataflow, tensor) as one table: arc ``k``
    is ``solutions[sol[k]]`` instantiated from FU ``coords[src[k]]`` to FU
    ``coords[dst[k]]``, solution-major and FU-minor (row-major)."""

    solutions: tuple[ReuseSolution, ...]
    coords: list[tuple[int, ...]]
    sol: np.ndarray
    src: np.ndarray
    dst: np.ndarray

    def edge(self, k: int) -> ReuseEdge:
        """The concrete edge of arc *k*."""
        sol = self.solutions[self.sol[k]]
        return ReuseEdge(sol.tensor, self.coords[self.src[k]],
                         self.coords[self.dst[k]], sol)


def build_reuse_edges(dataflow: Dataflow,
                      solutions: Iterable[ReuseSolution]) -> ReuseTable:
    """Instantiate every interconnect solution at every in-bounds FU pair.

    An arc ``src -> dst`` means *src* holds the data first and pushes it
    to *dst* after ``solution.depth`` cycles.
    """
    sols = tuple(sol for sol in solutions if sol.is_interconnect())
    which, src, dst = offset_arcs(dataflow.rs, [sol.ds for sol in sols])
    return ReuseTable(sols, dataflow.fu_coords(), which, src, dst)
