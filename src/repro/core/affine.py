"""Exact integer affine algebra used throughout the LEGO front end.

The LEGO representation (paper Section III) is built entirely on affine
transformations over integer vectors:

* data mappings  ``d = M_{I->D} @ i + b``   (Definition 1)
* dataflow mappings ``i = [M_{T->I} M_{S->I}] @ [t; s]`` (Definition 2)

Interconnection analysis (Section IV-A) reduces to solving integer linear
systems such as ``M_{I->D} M_{T->I} dt = -M_{I->D} M_{S->I} ds``.  This
module provides the exact integer machinery: Hermite normal form, integer
linear system solving, and integer nullspaces.  All arithmetic is performed
on Python ints (arbitrary precision) carried in object-free lists, so there
is no overflow and no floating point anywhere in the front end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "AffineMap",
    "hermite_normal_form",
    "integer_nullspace",
    "solve_integer",
    "particular_solution",
    "nullspace_of_hnf",
    "IntegerSolution",
]


def _as_int_matrix(a: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Return a 2-D ``int64`` array copy of *a*, validating integrality."""
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {arr.ndim}")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded):
            raise ValueError("matrix entries must be integers")
        arr = rounded
    return arr.astype(np.int64)


def _as_int_vector(v: Sequence[int] | np.ndarray, size: int | None = None) -> np.ndarray:
    arr = np.asarray(v)
    if arr.ndim != 1:
        raise ValueError(f"expected a vector, got array of ndim {arr.ndim}")
    if not np.issubdtype(arr.dtype, np.integer):
        rounded = np.rint(arr)
        if not np.allclose(arr, rounded):
            raise ValueError("vector entries must be integers")
        arr = rounded
    arr = arr.astype(np.int64)
    if size is not None and arr.shape[0] != size:
        raise ValueError(f"expected vector of length {size}, got {arr.shape[0]}")
    return arr


@dataclass(frozen=True)
class AffineMap:
    """An integer affine map ``f(x) = M @ x + b``.

    ``AffineMap`` instances are immutable and hashable so they can key
    caches in the interconnect analysis.  ``matrix`` has shape
    ``(n_out, n_in)``; ``bias`` has shape ``(n_out,)``.
    """

    matrix: tuple[tuple[int, ...], ...]
    bias: tuple[int, ...]

    @staticmethod
    def from_arrays(matrix: Sequence[Sequence[int]] | np.ndarray,
                    bias: Sequence[int] | np.ndarray | None = None) -> "AffineMap":
        m = _as_int_matrix(matrix)
        if bias is None:
            b = np.zeros(m.shape[0], dtype=np.int64)
        else:
            b = _as_int_vector(bias, m.shape[0])
        return AffineMap(tuple(tuple(int(x) for x in row) for row in m),
                         tuple(int(x) for x in b))

    @staticmethod
    def identity(n: int) -> "AffineMap":
        return AffineMap.from_arrays(np.eye(n, dtype=np.int64))

    @staticmethod
    def zero(n_out: int, n_in: int) -> "AffineMap":
        return AffineMap.from_arrays(np.zeros((n_out, n_in), dtype=np.int64))

    @property
    def m(self) -> np.ndarray:
        """The linear part as an ``int64`` ndarray (copy-safe view)."""
        return np.array(self.matrix, dtype=np.int64).reshape(self.n_out, self.n_in)

    @property
    def b(self) -> np.ndarray:
        return np.array(self.bias, dtype=np.int64)

    @property
    def n_out(self) -> int:
        return len(self.matrix)

    @property
    def n_in(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def __call__(self, x: Sequence[int] | np.ndarray) -> np.ndarray:
        vec = _as_int_vector(x, self.n_in)
        return self.m @ vec + self.b

    def apply_linear(self, x: Sequence[int] | np.ndarray) -> np.ndarray:
        """Apply only the linear part (used for *delta* vectors)."""
        vec = _as_int_vector(x, self.n_in)
        return self.m @ vec

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """Return ``self ∘ inner`` so that ``out(x) = self(inner(x))``."""
        if inner.n_out != self.n_in:
            raise ValueError(
                f"cannot compose: inner produces {inner.n_out} dims, "
                f"self consumes {self.n_in}")
        m = self.m @ inner.m
        b = self.m @ inner.b + self.b
        return AffineMap.from_arrays(m, b)

    def hstack(self, other: "AffineMap") -> "AffineMap":
        """Concatenate input dimensions: ``f([x; y]) = M1 x + M2 y + b1 + b2``."""
        if other.n_out != self.n_out:
            raise ValueError("hstack requires equal output dimensionality")
        m = np.hstack([self.m, other.m])
        return AffineMap.from_arrays(m, self.b + other.b)

    def is_linear(self) -> bool:
        return not any(self.bias)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AffineMap({self.n_out}x{self.n_in}, bias={list(self.bias)})"


def hermite_normal_form(a: Sequence[Sequence[int]] | np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Column-style Hermite normal form.

    Returns ``(H, U)`` with ``A @ U == H``, ``U`` unimodular and ``H`` in
    column echelon form (each pivot positive, entries left of a pivot in
    its row reduced modulo the pivot, columns past the rank all zero).

    The computation is done with Python ints to avoid overflow.
    """
    a = _as_int_matrix(a)
    m, n = a.shape
    h = [[int(x) for x in row] for row in a]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def col_addmul(dst: int, src: int, k: int) -> None:
        for i in range(m):
            h[i][dst] += k * h[i][src]
        for i in range(n):
            u[i][dst] += k * u[i][src]

    def col_swap(c1: int, c2: int) -> None:
        for i in range(m):
            h[i][c1], h[i][c2] = h[i][c2], h[i][c1]
        for i in range(n):
            u[i][c1], u[i][c2] = u[i][c2], u[i][c1]

    def col_negate(c: int) -> None:
        for i in range(m):
            h[i][c] = -h[i][c]
        for i in range(n):
            u[i][c] = -u[i][c]

    pivot_col = 0
    pivot_rows: list[int] = []
    for row in range(m):
        if pivot_col >= n:
            break
        # Reduce all columns >= pivot_col so only one has a nonzero in `row`.
        while True:
            nonzero = [c for c in range(pivot_col, n) if h[row][c] != 0]
            if len(nonzero) <= 1:
                break
            nonzero.sort(key=lambda c: abs(h[row][c]))
            c0 = nonzero[0]
            for c in nonzero[1:]:
                q = h[row][c] // h[row][c0]
                col_addmul(c, c0, -q)
        nonzero = [c for c in range(pivot_col, n) if h[row][c] != 0]
        if not nonzero:
            continue
        c = nonzero[0]
        if c != pivot_col:
            col_swap(c, pivot_col)
        if h[row][pivot_col] < 0:
            col_negate(pivot_col)
        # Reduce entries to the left of the pivot in this row.
        p = h[row][pivot_col]
        for c in range(pivot_col):
            q = h[row][c] // p
            if q:
                col_addmul(c, pivot_col, -q)
        pivot_rows.append(row)
        pivot_col += 1

    h_arr = np.array(h, dtype=object)
    u_arr = np.array(u, dtype=object)
    return h_arr, u_arr


def integer_nullspace(a: Sequence[Sequence[int]] | np.ndarray) -> np.ndarray:
    """Basis for the integer nullspace of *a*, as columns.

    Returns an ``(n, k)`` object array (Python ints) whose columns span
    ``{x : A x = 0}`` over the integers.  ``k`` may be zero.
    """
    return nullspace_of_hnf(*hermite_normal_form(a))


def nullspace_of_hnf(h: np.ndarray, u: np.ndarray) -> np.ndarray:
    """:func:`integer_nullspace` of ``A`` from its ``(H, U)``: the columns
    of ``U`` whose ``H`` column is zero."""
    m, n = len(h), len(u)
    null_cols = [c for c in range(n) if all(h[r][c] == 0 for r in range(m))]
    if not null_cols:
        return np.zeros((n, 0), dtype=object)
    return np.array([[u[r][c] for c in null_cols] for r in range(n)],
                    dtype=object)


@dataclass(frozen=True)
class IntegerSolution:
    """General solution ``x = particular + nullspace @ z`` of ``A x = b``."""

    particular: tuple[int, ...]
    nullspace: tuple[tuple[int, ...], ...]  # shape (n, k), columns are basis

    @property
    def x0(self) -> np.ndarray:
        return np.array(self.particular, dtype=object)

    @property
    def basis(self) -> np.ndarray:
        arr = np.array(self.nullspace, dtype=object)
        if arr.size == 0:
            return np.zeros((len(self.particular), 0), dtype=object)
        return arr

    def sample(self, z: Sequence[int]) -> np.ndarray:
        basis = self.basis
        zvec = np.array(list(z), dtype=object)
        if basis.shape[1] != len(zvec):
            raise ValueError("z length must match nullspace rank")
        if basis.shape[1] == 0:
            return self.x0
        return self.x0 + basis @ zvec


def solve_integer(a: Sequence[Sequence[int]] | np.ndarray,
                  b: Sequence[int] | np.ndarray) -> IntegerSolution | None:
    """Solve ``A x = b`` over the integers.

    Returns an :class:`IntegerSolution` (particular solution plus integer
    nullspace basis) or ``None`` when no integer solution exists.
    """
    a = _as_int_matrix(a)
    bvec = _as_int_vector(b, a.shape[0])
    h, u = hermite_normal_form(a)
    x0 = particular_solution(h, u, bvec)
    if x0 is None:
        return None
    null = nullspace_of_hnf(h, u)
    null_tuple = tuple(tuple(int(v) for v in row) for row in null) if null.size else tuple(
        tuple() for _ in range(a.shape[1]))
    return IntegerSolution(tuple(x0), null_tuple)


def particular_solution(h: np.ndarray, u: np.ndarray,
                        b: Sequence[int] | np.ndarray) -> list[int] | None:
    """One integer ``x`` with ``A x = b`` from the Hermite form ``(H, U)``
    of ``A``, or ``None`` when there is none; reusing ``(H, U)`` solves many
    right-hand sides for one HNF."""
    m, n = len(h), len(u)
    # Forward-solve H y = b where H is in column echelon form.
    y = [0] * n
    residual = [int(x) for x in b]
    col = 0
    for row in range(m):
        if col < n and h[row][col] != 0:
            if residual[row] % h[row][col] != 0:
                return None
            y[col] = residual[row] // h[row][col]
            for r in range(m):
                residual[r] -= h[r][col] * y[col]
            col += 1
        elif residual[row] != 0:
            # Row has no pivot among remaining columns but a nonzero rhs:
            # only consistent if an earlier pivot already cancelled it.
            return None
    if any(residual):
        return None
    return [int(sum(u[i][j] * y[j] for j in range(n))) for i in range(n)]


def box_iter(bounds: Sequence[tuple[int, int]]) -> Iterable[np.ndarray]:
    """Iterate integer vectors in the axis-aligned box ``[lo, hi]`` per dim
    (the first dimension outermost)."""
    for point in itertools.product(*(range(lo, hi + 1) for lo, hi in bounds)):
        yield np.array(point, dtype=np.int64)
