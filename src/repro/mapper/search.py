"""Per-layer mapping search (paper §VI-A: "a simple mapping search tool
that identifies the best mapping (i.e., dataflow and tiling) for every
neural network layer based on the simulated #cycles and energy").

The search space is the hardware's switchable spatial dataflows; the L1
tiling of each is the greedy walk inside the performance model
(`sim.perf_model._tile_search`), which is also the cost model.  The
selection loop and its memo are the perf model's (`best_dataflow`): this
module only names the objective and packages the winner, so the mapper
and `evaluate_model` cannot disagree and neither keys on a layer or
architecture *name*.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..models.layers import PPULayer
from ..sim.perf_model import ArchPerf, LayerPerf, _resources, best_dataflow

__all__ = ["Mapping", "choose_mapping", "map_model"]


@dataclass(frozen=True)
class Mapping:
    """The chosen schedule of one layer."""

    dataflow: str
    cycles: float
    energy_pj: float
    utilization: float


def choose_mapping(layer, arch: ArchPerf,
                   objective: str = "latency") -> tuple[Mapping, LayerPerf]:
    """Best (dataflow, tiling) for *layer* on *arch*.

    ``objective`` is ``latency`` (cycles first, energy tie-break) or
    ``energy`` (the reverse) — Table V's two design goals.
    """
    perf = best_dataflow(replace(layer, name=""), _resources(arch),
                         arch.dataflows, energy_first=objective != "latency")
    if perf is None:
        raise ValueError(f"no feasible mapping for layer {layer!r}")
    return Mapping(perf.dataflow, perf.cycles, perf.energy_pj,
                   perf.utilization), perf


def map_model(model, arch: ArchPerf, objective: str = "latency"
              ) -> list[tuple[object, Mapping | None]]:
    """Mappings for every layer of a model (None for PPU layers)."""
    out = []
    for layer in model.layers:
        if isinstance(layer, PPULayer):
            out.append((layer, None))
        else:
            mapping, _perf = choose_mapping(layer, arch, objective)
            out.append((layer, mapping))
    return out
