"""Design-space exploration on top of the LEGO models (paper §VII-a).

LEGO is explicitly positioned to run *in series* with DSE frameworks
(Timeloop, MAESTRO, NAAS, MAGNET): the DSE tool searches the architecture
space using fast models, and LEGO generates the RTL of the winner.  This
module holds that loop's space and results: the axes (array shapes,
buffer sizes, dataflow sets) the strategies of :mod:`repro.dse.strategies`
search, scored with the same performance/energy models the rest of the
reproduction uses, the Pareto frontier, and a one-call handoff to the
generator.

The paper's closing §VI-B(f) data point — generating the Timeloop-searched
Eyeriss-resource design cuts power 9% at equal latency — is reproduced by
``tests/test_fidelity.py`` (rows ``sec6b_f/*`` of ``FIDELITY.json``)
using this module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..sim.perf_model import ArchPerf

__all__ = ["DesignPoint", "DesignSpace", "pareto_front",
           "generate_winner"]


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated architecture candidate."""

    arch: ArchPerf
    gops: float
    gops_per_watt: float
    cycles: float
    energy_pj: float

    @property
    def edp(self) -> float:
        """Energy-delay product (the classic DSE objective)."""
        return self.energy_pj * self.cycles


@dataclass(frozen=True)
class DesignSpace:
    """The searchable axes.  Cartesian product, optionally subsampled.

    >>> DesignSpace(arrays=((8, 8),), buffer_kb=(128.0,)).size()
    4
    >>> DesignSpace().point_at((0, 0, 0, 0)).name
    'lego_8x8_128kb_I'
    """

    arrays: tuple[tuple[int, int], ...] = ((8, 8), (16, 16), (8, 32), (32, 8))
    buffer_kb: tuple[float, ...] = (128.0, 256.0, 512.0)
    dram_gbps: tuple[float, ...] = (16.0,)
    dataflow_sets: tuple[tuple[str, ...], ...] = (
        ("ICOC",), ("MN",), ("MN", "ICOC"), ("MN", "ICOC", "OCOH"))
    freq_mhz: float = 1000.0

    def axes(self) -> tuple[tuple, ...]:
        """The four searchable axes, in :meth:`point_at` index order."""
        return (self.arrays, self.buffer_kb, self.dram_gbps,
                self.dataflow_sets)

    def point_at(self, idx: tuple[int, int, int, int]) -> ArchPerf:
        """The architecture at one index per axis — the coordinate system
        the guided strategies (`dse.strategies`) move through."""
        array = self.arrays[idx[0]]
        buf = self.buffer_kb[idx[1]]
        bw = self.dram_gbps[idx[2]]
        dfs = self.dataflow_sets[idx[3]]
        name = (f"lego_{array[0]}x{array[1]}_{int(buf)}kb_"
                + "".join(d[0] for d in dfs))
        return ArchPerf(name=name, array=array, buffer_kb=buf,
                        dram_gbps=bw, freq_mhz=self.freq_mhz,
                        dataflows=dfs)

    def points(self):
        for idx in itertools.product(
                *(range(len(axis)) for axis in self.axes())):
            yield self.point_at(idx)

    def size(self) -> int:
        return (len(self.arrays) * len(self.buffer_kb)
                * len(self.dram_gbps) * len(self.dataflow_sets))


def pareto_front(points: list[DesignPoint]) -> list[DesignPoint]:
    """Latency/energy Pareto-optimal subset, sorted by latency."""
    front: list[DesignPoint] = []
    for p in sorted(points, key=lambda q: (q.cycles, q.energy_pj)):
        if not front or p.energy_pj < front[-1].energy_pj - 1e-9:
            front.append(p)
    return front


def generate_winner(point: DesignPoint, **build_kwargs):
    """Hand the DSE winner to the generator (the paper's §VII-a loop)."""
    from ..arch.accelerator import AcceleratorSpec, build

    dfs = point.arch.dataflows
    conv = tuple(d for d in ("ICOC", "OHOW", "KHOH", "OCOH") if d in dfs)
    if "MN" in dfs and "OHOW" not in conv:
        conv = conv + ("OHOW",)
    spec = AcceleratorSpec(
        name=point.arch.name,
        array=point.arch.array,
        buffer_kb=point.arch.buffer_kb,
        dram_gbps=point.arch.dram_gbps,
        conv_dataflows=conv or ("ICOC",),
        gemm_dataflows=("IJ",) if "MN" in dfs else (),
    )
    return build(spec, **build_kwargs)
