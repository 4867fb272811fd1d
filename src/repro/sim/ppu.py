"""Post-processing unit latency (paper §II).

Each PPU is a lookup table evaluating the activation function plus a
reduction unit that accumulates the statistics non-linear layers need
(sum of exponents for softmax, mean/variance for normalization).  PPUs
share the output buffers with the FU array for in-place processing, so
their latency is simply elements / (PPU count x throughput) per pass;
the performance model charges it to the PPU layers of an architecture
that has PPUs, and the paper's claim to check is that this stays a small
fraction of end-to-end latency (Fig. 12(b)).
"""

from __future__ import annotations

import math

__all__ = ["ppu_latency_cycles"]


def ppu_latency_cycles(n_elements: int, n_ppus: int, throughput: int = 1,
                       n_passes: int = 2) -> int:
    """Aggregate latency of a PPU bank processing ``n_elements``."""
    if n_ppus < 1:
        raise ValueError("need at least one PPU")
    per_ppu = math.ceil(n_elements / n_ppus)
    return math.ceil(per_ppu * n_passes / throughput)
