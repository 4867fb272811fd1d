"""Tiling enumeration utilities: exact factorizations (for small dims),
padded power-of-two splits (for large dims) and working-set accounting.

A public toolbox for callers that enumerate loop tilings themselves.
The mapping search does not use it: the L1 tiling of a layer is the
greedy halving walk in `sim.perf_model._tile_search`.
"""

from __future__ import annotations

import math
from typing import Iterator

__all__ = ["divisors", "factor_pairs", "tile_candidates", "working_set_bytes"]


def divisors(n: int) -> list[int]:
    """All positive divisors of *n*, ascending."""
    if n <= 0:
        raise ValueError("n must be positive")
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def factor_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered pairs ``(a, b)`` with ``a * b == n``."""
    return [(d, n // d) for d in divisors(n)]


def tile_candidates(bound: int, floor: int = 1,
                    max_candidates: int = 12) -> list[int]:
    """Candidate tile sizes for a loop of size *bound*: exact divisors when
    few, otherwise power-of-two split points, always including ``bound``
    and the spatial floor."""
    divs = [d for d in divisors(bound) if d >= floor]
    if len(divs) <= max_candidates:
        out = divs
    else:
        out = sorted({min(bound, max(floor, 1 << k))
                      for k in range(0, bound.bit_length() + 1)})
    if bound not in out:
        out.append(bound)
    return sorted(set(out))


def working_set_bytes(tiles: dict[str, int],
                      tensors: dict[str, tuple[str, ...]],
                      bytes_per_el: dict[str, float]) -> float:
    """Bytes of L1 needed to hold one tile of every tensor."""
    total = 0.0
    for t, tdims in tensors.items():
        size = bytes_per_el.get(t, 1.0)
        for d in tdims:
            if d in tiles:
                size *= tiles[d]
        total += size
    return total


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def n_tiles(dims: dict[str, int], tiles: dict[str, int]) -> int:
    out = 1
    for d, bound in dims.items():
        out *= ceil_div(bound, tiles.get(d, bound))
    return out
