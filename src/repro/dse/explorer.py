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
import math
from dataclasses import dataclass, fields

from ..sim.perf_model import DATAFLOWS, ArchPerf

__all__ = ["DesignPoint", "DesignSpace", "pareto_front",
           "generate_winner", "space_to_dict", "space_from_dict"]


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


def space_to_dict(space: DesignSpace) -> dict:
    """JSON-serializable form of a :class:`DesignSpace` (the ``space``
    field of an ``/explore`` request)."""
    return {"arrays": [list(a) for a in space.arrays],
            "buffer_kb": list(space.buffer_kb),
            "dram_gbps": list(space.dram_gbps),
            "dataflow_sets": [list(s) for s in space.dataflow_sets],
            "freq_mhz": space.freq_mhz}


def _positive(x) -> bool:
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and math.isfinite(x) and x > 0)


def _pair(a) -> bool:
    return (isinstance(a, (list, tuple)) and len(a) == 2
            and all(isinstance(x, int) and not isinstance(x, bool)
                    and x > 0 for x in a))


def _dataflow_set(s) -> bool:
    return (isinstance(s, (list, tuple)) and len(s) > 0
            and all(d in DATAFLOWS for d in s))


#: list axis -> (what each entry must be, its check, its conversion)
_AXES = {
    "arrays": ("a pair of positive ints", _pair, tuple),
    "buffer_kb": ("a positive finite number", _positive, float),
    "dram_gbps": ("a positive finite number", _positive, float),
    "dataflow_sets": (f"a non-empty list of dataflows from "
                      f"{list(DATAFLOWS)}", _dataflow_set, tuple),
}


def space_from_dict(data: dict) -> DesignSpace:
    """Rebuild a :class:`DesignSpace` from :func:`space_to_dict` output.
    Missing axes fall back to the defaults; a malformed axis raises a
    ``ValueError`` naming it, so nothing the search would crash on or
    score as nonsense gets through.

    >>> space_from_dict({"arrays": [[8, 8]]}).size()
    12
    >>> space_from_dict({"buffer_kb": [-1.0]})
    Traceback (most recent call last):
    ...
    ValueError: buffer_kb: -1.0 is not a positive finite number
    """
    unknown = sorted(set(data) - {f.name for f in fields(DesignSpace)})
    if unknown:
        raise ValueError(f"unknown design-space axes {unknown}")
    freq = data.get("freq_mhz", DesignSpace.freq_mhz)
    if not _positive(freq):
        raise ValueError(f"freq_mhz: {freq!r} is not a positive finite "
                         "number")
    axes = {}
    for axis, (what, valid, convert) in _AXES.items():
        values = data.get(axis, getattr(DesignSpace, axis))
        if not isinstance(values, (list, tuple)) or not values:
            raise ValueError(f"{axis} must be a non-empty list, got "
                             f"{values!r}")
        for value in values:
            if not valid(value):
                raise ValueError(f"{axis}: {value!r} is not {what}")
        axes[axis] = tuple(convert(v) for v in values)
    return DesignSpace(freq_mhz=float(freq), **axes)


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
