"""Area and energy model (the reproduction's Design Compiler + CACTI).

The paper synthesizes with Synopsys DC on TSMC 28 nm and models SRAM with
CACTI.  Offline we use analytic per-primitive cost tables calibrated to
published 28 nm figures (MAC ≈ 0.2 pJ/8-bit op, register ≈ 4 µm²/bit,
SRAM read ≈ 5 pJ + sqrt-capacity term, etc.).  All evaluation figures in
the paper are *ratios* (savings, speedup, efficiency), which a consistent
linear model preserves; ``FIDELITY.json`` records where absolute values
diverge from the paper's.

Two technology modes are provided: ``tsmc28`` (default, matches the main
evaluation) and ``freepdk45`` (Table VII's SODA comparison), scaled by
standard node factors (area ~ (45/28)^2, energy ~ 45/28).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..backend.codegen import Design

__all__ = ["TechModel", "AreaPowerReport", "evaluate_design", "sram_model"]


@dataclass(frozen=True)
class TechModel:
    """Per-primitive cost coefficients for one technology node.

    Areas in µm², energies in pJ per operation, leakage in µW per µm²
    (aggregate).  Arithmetic scales with operand bits; multipliers scale
    quadratically (array multiplier), everything else linearly.
    """

    name: str = "tsmc28"
    freq_mhz: float = 1000.0
    # area (um^2)
    reg_area_per_bit: float = 2.0
    adder_area_per_bit: float = 3.0
    mult_area_per_bit2: float = 4.5     # * wa * wb
    mux_area_per_bit: float = 1.0       # per 2:1 leg
    lut_area: float = 1800.0
    addrgen_area: float = 700.0         # counters + small matrix MAC
    ctrl_area: float = 600.0
    comparator_area_per_bit: float = 2.5
    # dynamic energy (pJ per op)
    reg_energy_per_bit: float = 0.0012
    adder_energy_per_bit: float = 0.0022
    mult_energy_per_bit2: float = 0.0031
    mux_energy_per_bit: float = 0.0004
    lut_energy: float = 0.8
    addrgen_energy: float = 0.35
    ctrl_energy: float = 0.25
    # leakage, fraction of dynamic at full activity
    leakage_fraction: float = 0.08
    # SRAM (CACTI-like): energy = a + b*sqrt(kbytes), per access of `width` bits
    sram_read_base_pj: float = 1.1
    sram_read_sqrt_pj: float = 0.45
    sram_write_scale: float = 1.15
    sram_area_per_bit: float = 0.60     # um^2 per bit + bank overhead
    sram_bank_overhead: float = 2500.0
    dram_energy_per_byte: float = 20.0  # pJ/byte (LPDDR-class)
    noc_energy_per_byte_hop: float = 0.18
    noc_area_per_port: float = 230.0

    def scaled(self, node_nm: float) -> "TechModel":
        """Scale to another technology node with classical factors."""
        s_area = (node_nm / 28.0) ** 2
        s_energy = node_nm / 28.0
        values = {}
        for fname, value in self.__dict__.items():
            if fname in ("name", "freq_mhz", "leakage_fraction",
                         "sram_write_scale"):
                values[fname] = value
            elif "area" in fname:
                values[fname] = value * s_area
            else:
                values[fname] = value * s_energy
        values["name"] = f"scaled{int(node_nm)}"
        return TechModel(**values)


TSMC28 = TechModel()
FREEPDK45 = TSMC28.scaled(45.0)


def sram_model(tech: TechModel, kbytes: float, width_bits: int,
               n_banks: int = 1) -> dict[str, float]:
    """CACTI-like SRAM macro model: area (µm²) and per-access energy (pJ)."""
    bits = kbytes * 1024 * 8
    area = bits * tech.sram_area_per_bit + n_banks * tech.sram_bank_overhead
    per_kb = max(kbytes / max(n_banks, 1), 0.25)
    read = (tech.sram_read_base_pj
            + tech.sram_read_sqrt_pj * math.sqrt(per_kb)) * width_bits / 64.0
    return {"area_um2": area, "read_pj": read,
            "write_pj": read * tech.sram_write_scale}


@dataclass
class AreaPowerReport:
    """Breakdown of a design evaluation."""

    area_um2: dict[str, float] = field(default_factory=dict)
    power_mw: dict[str, float] = field(default_factory=dict)

    @property
    def total_area_um2(self) -> float:
        return sum(self.area_um2.values())

    @property
    def total_area_mm2(self) -> float:
        return self.total_area_um2 / 1e6

    @property
    def total_power_mw(self) -> float:
        return sum(self.power_mw.values())

    def merge(self, other: "AreaPowerReport") -> "AreaPowerReport":
        merged = AreaPowerReport(dict(self.area_um2), dict(self.power_mw))
        for k, v in other.area_um2.items():
            merged.area_um2[k] = merged.area_um2.get(k, 0.0) + v
        for k, v in other.power_mw.items():
            merged.power_mw[k] = merged.power_mw.get(k, 0.0) + v
        return merged


def _node_costs(design: Design, nid, tech: TechModel,
                activity: dict[int, float]) -> tuple[str, float, float]:
    """(category, area µm², dynamic power mW) for one DAG node."""
    dag = design.dag
    node = dag.nodes[nid]
    ins = dag.in_edges(nid)
    in_w = [dag.nodes[e.src].width for e in ins]
    w = max(node.width, 1)
    act = activity.get(nid, 1.0)
    ops_per_s = tech.freq_mhz * 1e6 * act
    kind = node.kind

    if kind == "mul":
        wa = in_w[0] if in_w else w
        wb = in_w[1] if len(in_w) > 1 else wa
        area = tech.mult_area_per_bit2 * wa * wb
        energy = tech.mult_energy_per_bit2 * wa * wb
        return "fu_array", area, energy * ops_per_s * 1e-9
    if kind in ("add", "sub", "max", "shl", "shr"):
        area = tech.adder_area_per_bit * w
        energy = tech.adder_energy_per_bit * w
        return "fu_array", area, energy * ops_per_s * 1e-9
    if kind == "reducer":
        n_pins = node.params.get("n_phys_pins",
                                 node.params.get("n_inputs", 2))
        n_mux = node.params.get("remap_muxes", 0)
        area = (tech.adder_area_per_bit * w * max(n_pins - 1, 1)
                + tech.mux_area_per_bit * w * n_mux)
        energy = (tech.adder_energy_per_bit * w * max(n_pins - 1, 1)
                  + tech.mux_energy_per_bit * w * n_mux)
        return "fu_array", area, energy * ops_per_s * 1e-9
    if kind == "mux":
        n_in = max(node.params.get("n_inputs", len(ins)), 1)
        legs = max(n_in - 1, 0)
        extra = tech.comparator_area_per_bit * 8 if node.params.get(
            "dynamic") else 0.0
        area = tech.mux_area_per_bit * w * legs + extra
        energy = tech.mux_energy_per_bit * w
        return "fu_array", area, energy * ops_per_s * 1e-9
    if kind == "fifo":
        depth = node.params.get("depth")
        if depth is None:
            depths = [cfg.fifo_phys.get(nid, cfg.fifo_depth.get(nid, 0))
                      for cfg in design.configs.values()]
            depth = max(depths, default=0)
        area = tech.reg_area_per_bit * w * depth
        energy = tech.reg_energy_per_bit * w * depth
        if node.params.get("power_gated") and act == 0.0:
            energy = 0.0
        return "fu_array", area, energy * ops_per_s * 1e-9
    if kind in ("ctrl", "ctrl_tap"):
        area = tech.ctrl_area if kind == "ctrl" else tech.reg_area_per_bit * w
        energy = tech.ctrl_energy if kind == "ctrl" else \
            tech.reg_energy_per_bit * w
        return "control", area, energy * ops_per_s * 1e-9
    if kind == "addrgen":
        # One full generator per tensor L1 space ("each L1 memory space has
        # only one address generator", §II); additional data nodes of the
        # same tensor only add a constant-offset adder.
        share = node.params.get("addrgen_share", 1.0)
        return "control", tech.addrgen_area * share, \
            tech.addrgen_energy * share * ops_per_s * 1e-9
    if kind == "lut":
        return "ppu", tech.lut_area, tech.lut_energy * ops_per_s * 1e-9
    if kind in ("mem_read", "mem_write"):
        # Port logic only; the SRAM macro is charged separately.
        area = tech.mux_area_per_bit * w * 2
        return "buffers", area, tech.mux_energy_per_bit * w * ops_per_s * 1e-9
    return "fu_array", 0.0, 0.0  # const / wire / output


def evaluate_design(design: Design, tech: TechModel = TSMC28,
                    activity: dict[int, float] | None = None,
                    active_dataflow: str | None = None) -> AreaPowerReport:
    """Area and power of the generated FU array + control + ports.

    ``activity`` maps node id -> activity factor (default 1.0 = every
    cycle).  With ``active_dataflow`` set, nodes inactive under that
    dataflow get activity 0 (power-gated nodes consume nothing, others
    leak toggles at 10%)."""
    dag = design.dag
    act: dict[int, float] = dict(activity or {})
    if active_dataflow is not None:
        cfg = design.configs[active_dataflow]
        for nid, node in dag.nodes.items():
            if nid in act:
                continue
            if nid in cfg.active_nodes:
                act[nid] = 1.0
            elif node.params.get("power_gated"):
                act[nid] = 0.0
            else:
                act[nid] = 0.1  # idle toggling without gating

    report = AreaPowerReport()

    def add(cat: str, area: float, power: float) -> None:
        report.area_um2[cat] = report.area_um2.get(cat, 0.0) + area
        report.power_mw[cat] = report.power_mw.get(cat, 0.0) + power

    seen_tensors: set[str] = set()
    for nid in sorted(dag.nodes):
        node = dag.nodes[nid]
        if node.kind == "addrgen":
            tensor = node.params.get("tensor")
            node.params["addrgen_share"] = 1.0 if tensor not in seen_tensors \
                else 0.12
            seen_tensors.add(tensor)
        cat, area, power = _node_costs(design, nid, tech, act)
        add(cat, area, power)
    # Pipeline registers on edges.
    for e in dag.edges:
        if e.el <= 0:
            continue
        a = act.get(e.dst, 1.0)
        area = tech.reg_area_per_bit * e.width * e.el
        power = (tech.reg_energy_per_bit * e.width * e.el
                 * tech.freq_mhz * 1e6 * a * 1e-9)
        add("fu_array", area, power)
    # Leakage as a fraction of full-activity dynamic power.
    total_dyn = sum(report.power_mw.values())
    add("leakage", 0.0, total_dyn * tech.leakage_fraction)
    return report
