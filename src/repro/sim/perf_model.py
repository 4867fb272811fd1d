"""Analytic performance model for the FU array + memory system (§VI-A).

The paper's front end includes "a fast and accurate performance simulator
for the FU array and NoC ... verified with the RTL simulation"; this
module is that tool.  Given a layer, a spatial dataflow and an L1 tiling
it derives compute cycles, DRAM traffic (tile-reuse model), SRAM access
counts discounted by the FU-interconnect reuse the front end discovered,
PPU cycles, and energy.  Latency is the max of compute and DRAM-bandwidth
cycles (roofline) — which is exactly what makes GPT-2/LLaMA decode
memory-bound in Fig. 11/Table II.

An answer depends only on the layer's *shape* (every field but ``name``),
the architecture's *resources* (every `ArchPerf` field but ``name`` and
``dataflows``), the dataflow and the `TechModel`, and a DSE sweep asks
the same question many times (repeated shapes in a model, dataflow sets
that overlap, strategies that revisit points).  `_shape_perf` is the one
bounded memo of layer results: each distinct question is computed once
and the frozen `LayerPerf` is shared by every caller;
`_shape_perf.__wrapped__` is the un-memoised body, the test oracle.

Cross-validation against the cycle-accurate DAG simulator lives in the
test suite (`tests/test_perf_model.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

from ..models.layers import AttentionLayer, ConvLayer, LinearLayer, PPULayer
from .energy_model import TSMC28, TechModel, sram_model
from .ppu import ppu_latency_cycles

__all__ = ["ArchPerf", "LayerPerf", "ModelPerf", "spatial_options",
           "evaluate_layer", "evaluate_model", "best_dataflow", "memo_info",
           "GEMMINI_LIKE"]


@dataclass(frozen=True)
class ArchPerf:
    """Architecture parameters of the performance model."""

    name: str = "LEGO-MNICOC"
    array: tuple[int, int] = (16, 16)
    buffer_kb: float = 256.0
    dram_gbps: float = 16.0
    freq_mhz: float = 1000.0
    n_ppus: int = 8
    ppu_throughput: int = 2
    #: spatial dataflows the generated hardware can switch between
    dataflows: tuple[str, ...] = ("MN", "ICOC")
    #: Gemmini-style penalties
    weight_load_overhead: bool = False
    im2col_conv: bool = False
    has_ppu: bool = True
    #: fraction of peak DRAM bandwidth achieved (strided/small bursts hurt)
    dram_efficiency: float = 0.90
    #: fixed per-tile dispatch cost (instruction issue, fences)
    dispatch_overhead_cycles: float = 0.0
    #: fraction of DRAM time hidden under compute (double buffering)
    dma_overlap: float = 1.0

    @property
    def n_fus(self) -> int:
        return self.array[0] * self.array[1]

    @property
    def peak_gops(self) -> float:
        return self.n_fus * 2 * self.freq_mhz / 1e3

    @property
    def dram_bytes_per_cycle(self) -> float:
        return (self.dram_gbps * 1e9 * self.dram_efficiency
                / (self.freq_mhz * 1e6))


@dataclass(frozen=True, slots=True)
class LayerPerf:
    """One layer shape under one dataflow.  The memo hands the same
    instance to every caller that asks the same question, so it is
    immutable and names no layer."""

    dataflow: str
    cycles: float
    compute_cycles: float
    dram_cycles: float
    ppu_cycles: float
    dram_bytes: float
    sram_reads: float
    sram_writes: float
    macs: int
    energy_pj: float
    utilization: float
    n_tiles: int = 1


@dataclass
class ModelPerf:
    name: str
    layers: list[LayerPerf] = field(default_factory=list)
    arch: ArchPerf | None = None

    @property
    def total_cycles(self) -> float:
        return sum(l.cycles for l in self.layers)

    @property
    def total_ops(self) -> float:
        return sum(2 * l.macs for l in self.layers)

    @property
    def total_energy_pj(self) -> float:
        return sum(l.energy_pj for l in self.layers)

    @property
    def seconds(self) -> float:
        return self.total_cycles / (self.arch.freq_mhz * 1e6)

    @property
    def gops(self) -> float:
        return self.total_ops / self.seconds / 1e9 if self.seconds else 0.0

    @property
    def gops_per_watt(self) -> float:
        watts = self.total_energy_pj * 1e-12 / self.seconds if self.seconds else 0
        return self.gops / watts if watts else 0.0

    @property
    def utilization(self) -> float:
        return self.gops / self.arch.peak_gops if self.arch else 0.0

    @property
    def ppu_fraction(self) -> float:
        tot = self.total_cycles
        ppu = sum(l.ppu_cycles for l in self.layers)
        return ppu / tot if tot else 0.0

    def instruction_stats(self) -> dict[str, float]:
        """§VI-B(e): one instruction per dispatched tile, 16 bytes each."""
        n_instr = max(sum(l.n_tiles for l in self.layers), 1)
        cycles_per_instr = self.total_cycles / n_instr
        bw_gbs = n_instr * 16 / self.seconds / 1e9 if self.seconds else 0.0
        return {"n_instructions": float(n_instr),
                "cycles_per_instruction": cycles_per_instr,
                "instruction_bw_gbs": bw_gbs}


# ---------------------------------------------------------------------------
# Layer -> iteration-space description
# ---------------------------------------------------------------------------

def _layer_space(layer) -> tuple[dict[str, int], dict[str, tuple[str, ...]],
                                 tuple[str, ...], dict[str, float]]:
    """Return (dims, tensor->dims, reduction dims, tensor->bytes/elem)."""
    if isinstance(layer, ConvLayer):
        d = layer.dims()
        dims = {k: v for k, v in d.items() if v > 0}
        tensors = {
            "X": ("n", "ic", "oh", "ow"),
            "W": ("oc", "ic", "kh", "kw"),
            "Y": ("n", "oc", "oh", "ow"),
        }
        return dims, tensors, ("ic", "kh", "kw"), {"X": 1, "W": 1, "Y": 2}
    if isinstance(layer, LinearLayer):
        dims = {"m": layer.m, "n": layer.n, "k": layer.k}
        tensors = {"X": ("m", "k"), "W": ("k", "n"), "Y": ("m", "n")}
        return dims, tensors, ("k",), {"X": 1, "W": 1, "Y": 2}
    if isinstance(layer, AttentionLayer):
        # Two contractions folded into one GEMM-shaped space (h batched).
        dims = {"m": layer.heads * layer.q_len, "n": layer.kv_len,
                "k": 2 * layer.d_head}
        tensors = {"X": ("m", "k"), "W": ("k", "n"), "Y": ("m", "n")}
        return dims, tensors, ("k",), {"X": 1, "W": 1, "Y": 2}
    raise TypeError(f"not a tensor layer: {layer!r}")


def spatial_options(layer, dataflow: str,
                    array: tuple[int, int]) -> dict[str, int] | None:
    """Spatial dim assignment for a named dataflow; None if inapplicable.

    ``MN`` parallelizes the two output dims (oh/ow for conv, m/n for
    GEMM); ``ICOC`` the input/output channels (k/n for GEMM); ``KHOH`` and
    ``OCOH`` are the Eyeriss- and AutoSA-style conv dataflows.
    """
    p0, p1 = array
    if isinstance(layer, ConvLayer):
        mapping = {"MN": ("oh", "ow"), "ICOC": ("ic", "oc"),
                   "KHOH": ("kh", "oh"), "OCOH": ("oc", "oh")}
        if dataflow not in mapping:
            return None
        a, b = mapping[dataflow]
        return {a: p0, b: p1}
    mapping = {"MN": ("m", "n"), "ICOC": ("k", "n"), "OCOH": ("n", "m"),
               "KHOH": None}
    pair = mapping.get(dataflow)
    if pair is None:
        return None
    a, b = pair
    return {a: p0, b: p1}


def _tile_search(dims: dict[str, int], tensors: dict[str, tuple[str, ...]],
                 bytes_per_el: dict[str, float], reduction: tuple[str, ...],
                 spatial: dict[str, int], buffer_bytes: float
                 ) -> tuple[dict[str, int], float]:
    """Greedy L1 tiling: start fully resident, halve the dim that best
    trades working-set reduction for traffic, until the tile fits.
    Returns (tiles, dram_bytes)."""

    def working_set(tiles: dict[str, int]) -> float:
        total = 0.0
        for t, tdims in tensors.items():
            size = bytes_per_el[t]
            for d in tdims:
                if d in tiles:
                    size *= tiles[d]
            total += size
        return total

    def traffic(tiles: dict[str, int]) -> float:
        n_tiles = {d: math.ceil(dims[d] / tiles[d]) for d in dims}
        total = 0.0
        for t, tdims in tensors.items():
            footprint = bytes_per_el[t]
            for d in tdims:
                if d in dims:
                    footprint *= dims[d]
            refetch = 1.0
            for d in dims:
                if d not in tdims:
                    refetch *= n_tiles[d]
            if t == "Y":
                red_tiles = 1.0
                for d in reduction:
                    if d in dims:
                        red_tiles *= n_tiles[d]
                refetch = max(2 * red_tiles - 1, 1.0)
            total += footprint * refetch
        return total

    tiles = {d: v for d, v in dims.items()}
    # Tiles cannot go below the spatial unrolling.
    floor = {d: min(spatial.get(d, 1), dims[d]) for d in dims}
    while working_set(tiles) > buffer_bytes:
        best = None
        for d in dims:
            if tiles[d] <= floor[d]:
                continue
            trial = dict(tiles)
            trial[d] = max(floor[d], math.ceil(tiles[d] / 2))
            cand = (traffic(trial), -working_set(trial), d)
            if best is None or cand < best:
                best = cand
        if best is None:
            break  # cannot shrink further; model will charge the traffic
        d = best[2]
        tiles[d] = max(floor[d], math.ceil(tiles[d] / 2))
    return tiles, traffic(tiles)


#: `ArchPerf` fields the per-dataflow model never reads.  Every other
#: field, including any added later, is part of the memo key.
_NOT_RESOURCES = {"name": "", "dataflows": ()}


def _resources(arch: ArchPerf, tech: TechModel = TSMC28) -> tuple:
    """The hardware half of the memo key: what `_shape_perf` reads of an
    (arch, tech) pair — *arch* with `_NOT_RESOURCES` blanked, *tech* —
    followed by the constants that depend on those alone (usable L1
    bytes, pJ per MAC, per SRAM read, per SRAM write), so they are
    resolved once per `evaluate_model` rather than per layer."""
    sram = sram_model(tech, arch.buffer_kb, 64, n_banks=16)
    return (replace(arch, **_NOT_RESOURCES), tech,
            arch.buffer_kb * 1024 * 0.9,
            tech.mult_energy_per_bit2 * 64 + tech.adder_energy_per_bit * 32,
            sram["read_pj"], sram["write_pj"])


#: Bound of the layer-result memo.  One rep of the `dse_explore` benchmark
#: (96 points x 3 models, plus 14 Fig. 11 evaluations) asks ~4.6k distinct
#: questions; an entry costs ~0.5 KB (a slotted `LayerPerf`, its floats,
#: the key tuple, the LRU link), so the bound caps the memo at ~8 MB.
_MEMO_ENTRIES = 16384


@lru_cache(maxsize=_MEMO_ENTRIES)
def _shape_perf(layer, res: tuple, dataflow: str) -> LayerPerf | None:
    """Model one layer shape (``name`` blanked) under one dataflow; None
    if the dataflow cannot execute it.  Memoised (LRU, thread-safe); PPU
    layers are keyed under the pseudo-dataflow ``"ppu"``."""
    if dataflow == "ppu":
        return (_ppu_layer_perf(layer, res)
                if isinstance(layer, PPULayer) else None)
    arch, tech, buffer_bytes, mac_pj, sram_read_pj, sram_write_pj = res
    dims, tensors, reduction, bpe = _layer_space(layer)
    spatial = spatial_options(layer, dataflow, arch.array)
    if spatial is None:
        return None
    spatial = {d: min(p, dims.get(d, 1)) for d, p in spatial.items()
               if d in dims}

    # -- compute ------------------------------------------------------------------
    macs = layer.macs()
    dw_im2col = False
    if (arch.im2col_conv and isinstance(layer, ConvLayer)
            and layer.is_depthwise):
        dw_im2col = True
        # im2col lowers each depthwise group to a GEMM with N = 1 and
        # K = kh*kw: a single systolic column (and only kh*kw of its rows)
        # does useful work — the reason fixed-dataflow arrays collapse on
        # MobileNet-class models (Fig. 11 discussion).
        temporal_steps = layer.groups * layer.oh * layer.ow
        spatial = {}
    else:
        temporal_steps = 1
        for d, bound in dims.items():
            p = spatial.get(d, 1)
            temporal_steps *= math.ceil(bound / p)
    utilization = macs / (temporal_steps * arch.n_fus)
    compute_cycles = temporal_steps + sum(arch.array)  # + pipeline fill

    if arch.weight_load_overhead:
        # Weight-stationary arrays stall to preload each weight tile.
        compute_cycles *= 1.15

    # -- memory -------------------------------------------------------------------
    tiles, dram_bytes = _tile_search(dims, tensors, bpe, reduction, spatial,
                                     buffer_bytes)
    n_tiles = 1
    for d in dims:
        n_tiles *= math.ceil(dims[d] / tiles[d])
    if dw_im2col:
        # Each depthwise group is a separate tiny GEMM dispatch.
        n_tiles = max(n_tiles, layer.groups)
    if arch.im2col_conv and isinstance(layer, ConvLayer):
        # im2col materializes overlapping patches in DRAM-visible form.
        inflation = (layer.kh * layer.kw) / (layer.stride * layer.stride)
        x_bytes = layer.tensor_bytes()["X"]
        dram_bytes += x_bytes * max(inflation - 1.0, 0.0)
    dram_cycles = dram_bytes / arch.dram_bytes_per_cycle

    # -- SRAM accesses, discounted by interconnect + stationary reuse --------------
    sram_reads = 0.0
    sram_writes = 0.0
    for t, tdims in tensors.items():
        spatial_reuse = 1.0
        for d, p in spatial.items():
            if d not in tdims:
                spatial_reuse *= p
        stationary = 1.0
        for d in dims:
            if d not in tdims:
                stationary = max(stationary, min(tiles[d], 64))
        accesses = macs / max(spatial_reuse, 1.0) / max(stationary, 1.0)
        if t == "Y":
            sram_writes += accesses
        else:
            sram_reads += accesses

    # Roofline with imperfect overlap plus per-tile dispatch cost.
    cycles = (max(compute_cycles, dram_cycles)
              + (1.0 - arch.dma_overlap) * min(compute_cycles, dram_cycles)
              + arch.dispatch_overhead_cycles * n_tiles)

    # -- energy ----------------------------------------------------------------------
    energy = (macs * mac_pj
              + sram_reads * sram_read_pj
              + sram_writes * sram_write_pj
              + dram_bytes * tech.dram_energy_per_byte
              + cycles * arch.n_fus * tech.reg_energy_per_bit * 24)  # clocking
    energy *= 1 + tech.leakage_fraction

    return LayerPerf(dataflow=dataflow, cycles=cycles,
                     compute_cycles=compute_cycles, dram_cycles=dram_cycles,
                     ppu_cycles=0.0, dram_bytes=dram_bytes,
                     sram_reads=sram_reads, sram_writes=sram_writes,
                     macs=macs, energy_pj=energy, utilization=utilization,
                     n_tiles=n_tiles)


def _ppu_layer_perf(layer: PPULayer, res: tuple) -> LayerPerf:
    arch, tech = res[:2]
    if arch.has_ppu:
        cycles = ppu_latency_cycles(layer.n_elements, arch.n_ppus,
                                    arch.ppu_throughput, layer.n_passes)
    else:
        # Without PPUs the host handles non-tensor ops over the memory bus.
        cycles = layer.n_elements * 2 / arch.dram_bytes_per_cycle + 2000
    energy = layer.n_elements * layer.n_passes * tech.lut_energy
    # Non-tensor ops stream through DRAM (little reuse, Fig. 12 discussion).
    dram_bytes = layer.n_elements * 2.0
    cycles = max(cycles, dram_bytes / arch.dram_bytes_per_cycle)
    energy += dram_bytes * tech.dram_energy_per_byte
    return LayerPerf(dataflow="ppu", cycles=cycles,
                     compute_cycles=0.0, dram_cycles=0.0, ppu_cycles=cycles,
                     dram_bytes=dram_bytes, sram_reads=0.0, sram_writes=0.0,
                     macs=0, energy_pj=energy, utilization=0.0)


#: ``(hits, misses, maxsize, currsize)`` of the layer-result memo
memo_info = _shape_perf.cache_info


def evaluate_layer(layer, arch: ArchPerf, dataflow: str,
                   tech: TechModel = TSMC28) -> LayerPerf | None:
    """Model one tensor layer under one spatial dataflow.  None if the
    dataflow cannot execute the layer on this architecture."""
    return _shape_perf(replace(layer, name=""), _resources(arch, tech),
                       dataflow)


def best_dataflow(shape, res: tuple, dataflows: tuple[str, ...],
                  energy_first: bool = False) -> LayerPerf | None:
    """The per-layer mapping search (the paper's "simple mapping search
    tool"): the feasible dataflow with the least ``(cycles, energy)`` —
    ``(energy, cycles)`` if *energy_first* — first listed wins ties;
    None if no dataflow can execute *shape*."""
    best = best_rank = None
    for dataflow in dataflows:
        cand = _shape_perf(shape, res, dataflow)
        if cand is None:
            continue
        rank = ((cand.energy_pj, cand.cycles) if energy_first
                else (cand.cycles, cand.energy_pj))
        if best is None or rank < best_rank:
            best, best_rank = cand, rank
    return best


def evaluate_model(model, arch: ArchPerf,
                   tech: TechModel = TSMC28) -> ModelPerf:
    """Best supported dataflow per layer + PPU layers.  Each distinct
    shape is resolved once; ``layers`` is then laid out in model-layer
    order, so the totals sum the same floats in the same order as a
    layer-by-layer evaluation (never ``count x value``)."""
    res = _resources(arch, tech)
    shapes, index = model.shapes
    best = [_shape_perf(shape, res, "ppu") if isinstance(shape, PPULayer)
            else best_dataflow(shape, res, arch.dataflows)
            for shape in shapes]
    if None in best:  # shapes are in first-appearance order: first such layer
        layer = model.layers[index.index(best.index(None))]
        raise ValueError(
            f"no supported dataflow for layer {layer.name!r} on "
            f"{arch.name}")
    return ModelPerf(name=model.name, layers=[best[i] for i in index],
                     arch=arch)


#: The Gemmini-class baseline of Fig. 11: same resources (256 MACs, 256 KB,
#: 16 GB/s) but a fixed weight-stationary systolic dataflow, im2col conv
#: lowering, and no dataflow switching.
GEMMINI_LIKE = ArchPerf(
    name="Gemmini",
    array=(16, 16),
    buffer_kb=256.0,
    dram_gbps=16.0,
    dataflows=("ICOC",),
    weight_load_overhead=True,
    im2col_conv=True,
    has_ppu=False,
    dram_efficiency=0.45,   # narrow strided bursts from im2col tiles
    dispatch_overhead_cycles=120.0,  # RoCC instruction issue + fences
    dma_overlap=0.5,        # mvin/mvout only partially hidden
)
