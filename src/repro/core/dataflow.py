"""Dataflow and control-flow representation (paper §III-B, §III-C).

A *dataflow mapping* expresses loop tiling, reordering, and parallelization
as an affine map **from** the temporal/spatial indexes **to** the
computation iteration domain::

    i = [ M_{T->I}  M_{S->I} ] @ [t; s]          (Definition 2)

— the inverse direction of polyhedral/STT representations, which
eliminates division and modulo from the analysis (§III-D).

The *control flow* vector ``c`` (one entry per spatial dimension) describes
how control signals (valid bits, addresses) propagate between FUs: value
``k > 0`` forwards along that dimension with ``k`` cycles of delay per hop
(systolic), ``0`` broadcasts.  Each FU then runs at a local time offset
``t_bias = s . c``  (Eq. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .affine import AffineMap
from .workload import Workload

__all__ = ["Dataflow", "timestamp_to_scalar", "scalar_to_timestamp"]


def timestamp_to_scalar(t: Sequence[int] | np.ndarray, sizes: Sequence[int]) -> int:
    """Mixed-radix scalarization of a for-loop state index (Eq. 3).

    ``t`` is interpreted lexicographically: ``t[0]`` is the outermost loop.
    Works for *delta* timestamps too (entries may be negative).
    """
    if len(t) != len(sizes):
        raise ValueError("timestamp and loop sizes must have equal length")
    scalar = 0
    for value, size in zip(t, sizes):
        scalar = scalar * int(size) + int(value)
    return scalar


def scalar_to_timestamp(scalar: int, sizes: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`timestamp_to_scalar` for in-range timestamps."""
    total = math.prod(sizes)
    if not 0 <= scalar < total:
        raise ValueError(f"scalar timestamp {scalar} out of range [0, {total})")
    out = np.zeros(len(sizes), dtype=np.int64)
    for idx in range(len(sizes) - 1, -1, -1):
        out[idx] = scalar % sizes[idx]
        scalar //= sizes[idx]
    return out


@dataclass(frozen=True)
class Dataflow:
    """A concrete spatial/temporal schedule of a workload on an FU array.

    Attributes
    ----------
    workload:
        The workload being scheduled.
    t_names / s_names:
        Names for the for-loop and parfor-loop instances (documentation and
        debugging; ``t_names`` ordered outermost-first).
    rt / rs:
        For-loop sizes ``R_T`` and parfor-loop sizes ``R_S`` (the FU array
        shape).
    m_t / m_s:
        ``M_{T->I}`` (I x T) and ``M_{S->I}`` (I x S) as nested tuples.
    control:
        The control-flow vector ``c`` (length ``len(rs)``).
    """

    workload: Workload
    t_names: tuple[str, ...]
    s_names: tuple[str, ...]
    rt: tuple[int, ...]
    rs: tuple[int, ...]
    m_t: tuple[tuple[int, ...], ...]
    m_s: tuple[tuple[int, ...], ...]
    control: tuple[int, ...]
    name: str = ""

    def __post_init__(self) -> None:
        n_i = self.workload.n_dims
        mt, ms = self.mt_array, self.ms_array
        if mt.shape != (n_i, len(self.rt)):
            raise ValueError(f"M_T shape {mt.shape} != ({n_i}, {len(self.rt)})")
        if ms.shape != (n_i, len(self.rs)):
            raise ValueError(f"M_S shape {ms.shape} != ({n_i}, {len(self.rs)})")
        if len(self.control) != len(self.rs):
            raise ValueError("control flow vector must have one entry per "
                             "spatial dimension")
        if any(r <= 0 for r in self.rt) or any(r <= 0 for r in self.rs):
            raise ValueError("loop sizes must be positive")
        if len(self.t_names) != len(self.rt) or len(self.s_names) != len(self.rs):
            raise ValueError("loop names must match loop sizes")

    # -- matrix views ----------------------------------------------------------

    @property
    def mt_array(self) -> np.ndarray:
        return np.array(self.m_t, dtype=np.int64).reshape(
            self.workload.n_dims, len(self.rt))

    @property
    def ms_array(self) -> np.ndarray:
        return np.array(self.m_s, dtype=np.int64).reshape(
            self.workload.n_dims, len(self.rs))

    @property
    def n_temporal(self) -> int:
        return len(self.rt)

    @property
    def n_spatial(self) -> int:
        return len(self.rs)

    @property
    def n_fus(self) -> int:
        return math.prod(self.rs)

    @property
    def total_timestamps(self) -> int:
        return math.prod(self.rt)

    @property
    def strides(self) -> tuple[int, ...]:
        """Per-dim scalar weight of a unit timestamp step (Eq. 3)."""
        out = []
        acc = 1
        for size in reversed(self.rt):
            out.append(acc)
            acc *= size
        return tuple(reversed(out))

    # -- semantics -------------------------------------------------------------

    def iteration(self, t: Sequence[int], s: Sequence[int]) -> np.ndarray:
        """Evaluate ``i = M_T t + M_S s`` for one (timestamp, FU) pair."""
        return self.mt_array @ np.asarray(t, dtype=np.int64) + \
            self.ms_array @ np.asarray(s, dtype=np.int64)

    def data_index(self, tensor: str, t: Sequence[int], s: Sequence[int]) -> np.ndarray:
        """Tensor element accessed by FU ``s`` at local timestamp ``t``."""
        acc = self.workload.tensor(tensor)
        return acc.mapping(self.iteration(t, s))

    def tensor_ts_map(self, tensor: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(M_D M_T, M_D M_S, b)`` for *tensor* — the composed map
        from (t, s) to the tensor data index used by Eq. 6/7."""
        acc = self.workload.tensor(tensor)
        md = acc.mapping.m
        return md @ self.mt_array, md @ self.ms_array, acc.mapping.b

    def t_bias(self, s: Sequence[int]) -> int:
        """Local-time offset of FU ``s`` induced by control propagation (Eq. 4)."""
        return int(np.dot(np.asarray(s, dtype=np.int64),
                          np.asarray(self.control, dtype=np.int64)))

    def delta_t_bias(self, ds: Sequence[int]) -> int:
        """Timestamp-bias difference between FUs separated by ``ds`` (Eq. 5)."""
        return sum(int(d) * c for d, c in zip(ds, self.control))

    def scalar_delay(self, dt: Sequence[int]) -> int:
        """Scalar cycle count of a timestamp delta (mixed-radix weights)."""
        return int(np.dot(np.asarray(dt, dtype=object),
                          np.asarray(self.strides, dtype=object)))

    def fu_coords(self) -> list[tuple[int, ...]]:
        """All FU coordinates in the spatial array, row-major."""
        coords: list[tuple[int, ...]] = [()]
        for size in self.rs:
            coords = [c + (v,) for c in coords for v in range(size)]
        return coords

    def iteration_multiplicity(self) -> dict[int, int]:
        """Histogram of how often each iteration point is visited.

        Exhaustively walks the (t, s) space and counts visits to each
        in-bounds computation iteration point.  A valid schedule visits
        every point at least once; points visited more than once are
        redundant recomputation (harmless for idempotent accumulation of
        a tiled dim, wasteful otherwise).  Exponential in loop depth —
        intended for tests and small schedules.
        """
        bounds = self.workload.bound_vector()
        counts: dict[int, int] = {}
        mt, ms = self.mt_array, self.ms_array

        def walk(prefix: list[int], sizes: tuple[int, ...], out: list):
            if len(prefix) == len(sizes):
                out.append(list(prefix))
                return
            for v in range(sizes[len(prefix)]):
                prefix.append(v)
                walk(prefix, sizes, out)
                prefix.pop()

        t_space: list[list[int]] = []
        walk([], self.rt, t_space)
        s_space: list[list[int]] = []
        walk([], self.rs, s_space)
        strides = []
        acc = 1
        for b in reversed(bounds):
            strides.append(acc)
            acc *= int(b)
        strides.reverse()
        for t in t_space:
            base = mt @ np.asarray(t, dtype=np.int64)
            for s in s_space:
                i = base + ms @ np.asarray(s, dtype=np.int64)
                if np.any(i < 0) or np.any(i >= bounds):
                    continue
                flat = int(np.dot(i, strides))
                counts[flat] = counts.get(flat, 0) + 1
        return counts

    def visits_every_point(self) -> bool:
        """Exact coverage: every in-bounds iteration point visited >= 1."""
        total = int(np.prod(self.workload.bound_vector()))
        return len(self.iteration_multiplicity()) == total

    def covers_workload(self) -> bool:
        """Check that the schedule enumerates at least the full iteration
        domain (per-dim factor products cover the bounds)."""
        mt, ms = self.mt_array, self.ms_array
        for idx, dim in enumerate(self.workload.dims):
            hi = 0
            for col, size in enumerate(self.rt):
                hi += abs(int(mt[idx, col])) * (size - 1)
            for col, size in enumerate(self.rs):
                hi += abs(int(ms[idx, col])) * (size - 1)
            if hi + 1 < self.workload.bounds[dim]:
                return False
        return True

    # -- construction helpers ---------------------------------------------------

    @staticmethod
    def build(workload: Workload,
              spatial: Sequence[tuple[str, int]],
              temporal: Sequence[tuple[str, int]] | None = None,
              control: Sequence[int] | None = None,
              name: str = "") -> "Dataflow":
        """Build a dataflow from a compact schedule description.

        Parameters
        ----------
        spatial:
            Ordered ``(dim, P)`` pairs — the parfor loops (FU array axes).
        temporal:
            Ordered ``(dim, R)`` pairs, outermost first.  A dim may appear
            multiple times (multi-level tiling).  If omitted, one temporal
            level per workload dim is created with
            ``R = ceil(bound / P_spatial)``, ordered as the workload dims.
        control:
            Control-flow vector ``c``; defaults to all-zero (broadcast).

        Convention: within one dim, the spatial level is the *least
        significant* factor and temporal levels gain significance from
        innermost to outermost — matching the paper's GEMM and Conv2D
        examples (Figs. 3-4).
        """
        spatial = list(spatial)
        spatial_size = {d: p for d, p in spatial}
        if len(spatial_size) != len(spatial):
            raise ValueError("a dim may be parallelized only once")
        for dim in spatial_size:
            if dim not in workload.dims:
                raise ValueError(f"unknown spatial dim {dim!r}")

        if temporal is None:
            temporal = []
            for dim in workload.dims:
                p = spatial_size.get(dim, 1)
                r = -(-workload.bounds[dim] // p)
                if r > 1 or dim not in spatial_size:
                    temporal.append((dim, r))
        temporal = list(temporal)
        for dim, _ in temporal:
            if dim not in workload.dims:
                raise ValueError(f"unknown temporal dim {dim!r}")

        n_i = workload.n_dims
        n_t, n_s = len(temporal), len(spatial)
        mt = np.zeros((n_i, n_t), dtype=np.int64)
        ms = np.zeros((n_i, n_s), dtype=np.int64)

        # Per-dim significance: innermost temporal level multiplies the
        # spatial factor; outer levels multiply everything inside them.
        for s_idx, (dim, _p) in enumerate(spatial):
            ms[workload.dim_index(dim), s_idx] = 1
        coeff: dict[str, int] = {d: spatial_size.get(d, 1) for d in workload.dims}
        for t_idx in range(n_t - 1, -1, -1):
            dim, size = temporal[t_idx]
            mt[workload.dim_index(dim), t_idx] = coeff[dim]
            coeff[dim] *= size

        t_names = []
        level_count: dict[str, int] = {}
        for dim, _ in reversed(temporal):
            lvl = level_count.get(dim, 0)
            level_count[dim] = lvl + 1
            t_names.append(f"t{lvl}_{dim}")
        t_names.reverse()
        s_names = [f"s_{dim}" for dim, _ in spatial]

        ctrl = tuple(int(x) for x in (control if control is not None else [0] * n_s))
        df = Dataflow(
            workload=workload,
            t_names=tuple(t_names),
            s_names=tuple(s_names),
            rt=tuple(int(r) for _d, r in temporal),
            rs=tuple(int(p) for _d, p in spatial),
            m_t=tuple(tuple(int(x) for x in row) for row in mt),
            m_s=tuple(tuple(int(x) for x in row) for row in ms),
            control=ctrl,
            name=name or "-".join(d for d, _ in spatial),
        )
        if not df.covers_workload():
            raise ValueError("schedule does not cover the iteration domain; "
                             "check spatial/temporal factor sizes")
        return df
