"""Network-on-chip size and area models (paper §II: L1/L2 NoC).

Two predefined structures, as in the paper:

* a **multistage butterfly** used between L1 banks and FU data nodes
  (the data distribution switches resolve layout conflicts here), and
* a **wormhole 2D-mesh** used at the L2 level to scale past 1024 FUs
  (Table IV).

Each gives its switch/router count and its area, which
:meth:`repro.arch.Accelerator.area_power` turns into the ``noc`` rows of
the area/power report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["ButterflyNetwork", "WormholeMesh"]


@dataclass(frozen=True)
class ButterflyNetwork:
    """A radix-2 multistage butterfly with ``n`` inputs and outputs."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.n & (self.n - 1):
            raise ValueError("butterfly size must be a power of two")

    @property
    def n_stages(self) -> int:
        return max(1, int(math.log2(self.n)))

    @property
    def n_switches(self) -> int:
        return self.n_stages * self.n // 2

    def area_um2(self, area_per_port: float) -> float:
        return self.n_switches * 2 * area_per_port / 2


@dataclass
class WormholeMesh:
    """A ``cols x rows`` wormhole-switched mesh of 5-port routers."""

    cols: int
    rows: int

    @property
    def n_nodes(self) -> int:
        return self.cols * self.rows

    def area_um2(self, area_per_port: float) -> float:
        # 5 ports per router (N, S, E, W, local).
        return self.n_nodes * 5 * area_per_port
