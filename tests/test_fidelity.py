"""The fidelity ledger: every number this repository reproduces from the
paper's evaluation — Figs. 10-14, Tables II-VIII, §VI-B(e) and §VI-B(f) —
beside the paper's own, in the committed root ``FIDELITY.json``.

A row is ``id`` (``figure/subject/quantity``), the reproduced ``value``,
the ``paper`` value (None where the paper prints none: it plots the bar,
or states only a bound or a shape), the relative ``deviation``
(``value / paper - 1``) and a one-line ``cause``.  This module rebuilds
every design once per session, recomputes every row, and fails when a
value drifts by more than ``REL_TOL`` relative, or when a row is missing
or extra.  Wall-clock columns (Table IV generation seconds, §VI-B(f)
generation time) are not rows.  The shape claims each figure makes
(optimizations never hurt, MobileNetV2 gains more than ResNet50, GPT-2 is
bandwidth-bound, ...) are asserted beside the ledger.

Re-record (only when a reproduced number is meant to move, and say why)::

    PYTHONPATH=src python tests/test_fidelity.py > FIDELITY.json
"""

import dataclasses
import functools
import json
import math
import pathlib

import pytest

from repro.arch import AcceleratorSpec, build
from repro.arch.references import (AUTOSA_FPGA, EYERISS, NVDLA,
                                   RELATED_WORK_OVERHEADS, SODA_45NM)
from repro.backend import BackendOptions, generate, run_backend
from repro.core import kernels
from repro.core.dataflow import Dataflow
from repro.core.frontend import FrontendConfig, build_adg
from repro.dse.explorer import DesignSpace, generate_winner
from repro.dse.strategies import run_search
from repro.models import zoo
from repro.sim.energy_model import (FREEPDK45, TSMC28, evaluate_design,
                                    sram_model)
from repro.sim.perf_model import GEMMINI_LIKE, ArchPerf, evaluate_model

LEDGER_PATH = pathlib.Path(__file__).resolve().parents[1] / "FIDELITY.json"
REL_TOL = 1e-9

MATCH = "agrees with the paper within 10 %"
UNPRINTED = "the paper plots this bar without printing its value"
MODELS = ("AlexNet", "MobileNetV2", "ResNet50", "EfficientNetV2", "BERT",
          "GPT2", "CoAtNet")


def _row(rid: str, value: float, paper: float | None, cause: str) -> dict:
    value = float(value)
    deviation = None if paper is None else value / paper - 1.0
    if deviation is not None and abs(deviation) <= 0.10:
        cause = MATCH
    return {"id": rid, "value": value, "paper": paper,
            "deviation": deviation, "cause": cause}


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


# -- Figs. 10, 13, 14: the backend ablation suite -------------------------

SUITE_VARIANTS = {
    "baseline": BackendOptions.baseline(),
    "+reduction": BackendOptions(rewiring=False, power_gating=False),
    "+rewiring": BackendOptions(power_gating=False),
    "full": BackendOptions(),
}


def _suite_dataflows() -> dict[str, list]:
    """The eleven kernel-dataflow configurations of Figs. 10/13/14, on
    8x8 arrays with broadcast/reduction control so every backend pass
    has material to work on."""
    suite: dict[str, list] = {}
    gemm = kernels.gemm(16, 16, 16)
    for kind in ("IJ", "IK", "KJ"):
        suite[f"GEMM-{kind}"] = [
            kernels.gemm_dataflow(kind, gemm, 8, 8, systolic=False)]
    suite["GEMM-MJ"] = [
        kernels.gemm_dataflow("IJ", gemm, 8, 8, systolic=False),
        kernels.gemm_dataflow("KJ", gemm, 8, 8, systolic=False)]
    conv = kernels.conv2d(1, 16, 16, 8, 8, 3, 3)
    suite["Conv2d-ICOC"] = [kernels.conv2d_dataflow("ICOC", conv, 8, 8,
                                                    systolic=False)]
    suite["Conv2d-OHOW"] = [kernels.conv2d_dataflow("OHOW", conv, 8, 8)]
    suite["Conv2d-MNICOC"] = [
        kernels.conv2d_dataflow("OHOW", conv, 8, 8),
        kernels.conv2d_dataflow("ICOC", conv, 8, 8, systolic=False)]
    mttkrp = kernels.mttkrp(16, 16, 8, 8)
    for kind in ("IJ", "KJ"):
        suite[f"MTTKRP-{kind}"] = [
            kernels.mttkrp_dataflow(kind, mttkrp, 8, 8, systolic=False)]
    suite["MTTKRP-MJ"] = [
        kernels.mttkrp_dataflow("IJ", mttkrp, 8, 8, systolic=False),
        kernels.mttkrp_dataflow("KJ", mttkrp, 8, 8, systolic=False)]
    qk = kernels.attention_qk(2, 8, 8, 8)
    pv = kernels.attention_pv(2, 8, 8, 8)
    suite["Attention"] = [
        Dataflow.build(qk, spatial=[("q", 8), ("k", 8)], control=(0, 0),
                       name="Attn-QK"),
        Dataflow.build(pv, spatial=[("q", 8), ("d", 8)], control=(0, 0),
                       name="Attn-PV"),
    ]
    return dict(sorted(suite.items()))


@functools.cache
def suite_designs() -> dict[tuple[str, str], object]:
    """Every (kernel-dataflow, backend variant) design, built once."""
    return {(name, variant): run_backend(generate(build_adg(list(dfs))),
                                         options)
            for name, dfs in _suite_dataflows().items()
            for variant, options in SUITE_VARIANTS.items()}


def _fu_scope(design, active_dataflow=None) -> tuple[float, float]:
    """The backend optimizes the generated FU array and its control; the
    ablation figures measure that scope."""
    report = evaluate_design(design, active_dataflow=active_dataflow)
    return (report.area_um2.get("fu_array", 0)
            + report.area_um2.get("control", 0),
            report.power_mw.get("fu_array", 0)
            + report.power_mw.get("control", 0))


PAPER_FIG10_AREA = {
    "Attention": 3.5, "Conv2d-ICOC": 1.9, "Conv2d-MNICOC": 1.6,
    "Conv2d-OHOW": 1.1, "GEMM-IJ": 1.0, "GEMM-IK": 1.2, "GEMM-KJ": 1.2,
    "GEMM-MJ": 2.2, "MTTKRP-IJ": 1.0, "MTTKRP-KJ": 1.5, "MTTKRP-MJ": 2.2}
PAPER_FIG10_ENERGY = {
    "Attention": 2.8, "Conv2d-ICOC": 1.3, "Conv2d-MNICOC": 1.7,
    "Conv2d-OHOW": 1.1, "GEMM-IJ": 1.0, "GEMM-IK": 1.2, "GEMM-KJ": 1.2,
    "GEMM-MJ": 2.0, "MTTKRP-IJ": 1.0, "MTTKRP-KJ": 1.3, "MTTKRP-MJ": 1.4}
NO_PIN_REUSE = ("§V-C pin reuse is not reproduced: reduction extraction "
                "makes every pin of a reducer live in the same dataflows, "
                "so no suite design has a pin to share")
CAUSE_FIG10 = ("reduction extraction and rewiring save less than in the "
               "paper, " + NO_PIN_REUSE + ", and gating is not counted "
               "(every dataflow active)")
CAUSE_FIG13 = ("reduction extraction and rewiring each remove less than the "
               "paper's ~15 %, and " + NO_PIN_REUSE)
CAUSE_FIG14 = ("broadcast rewiring removes much less than the paper's ~12 %"
               ", and " + NO_PIN_REUSE)
CAUSE_BROADCAST_IJ = ("the suite builds IJ with broadcast operands "
                      "(systolic=False), which rewiring pipelines; the "
                      "paper reports no saving")


def fig10():
    """Fig. 10: area and energy savings of the full backend over the
    delay-matching-only baseline, per kernel-dataflow."""
    designs = suite_designs()
    rows, area, energy = [], [], []
    for name in _suite_dataflows():
        area_b, pow_b = _fu_scope(designs[(name, "baseline")])
        area_f, pow_f = _fu_scope(designs[(name, "full")])
        area.append(area_b / area_f)
        energy.append(pow_b / pow_f)
        cause = CAUSE_BROADCAST_IJ if name == "GEMM-IJ" else CAUSE_FIG10
        rows.append(_row(f"fig10/{name}/area_saving", area[-1],
                         PAPER_FIG10_AREA[name], cause))
        rows.append(_row(f"fig10/{name}/energy_saving", energy[-1],
                         PAPER_FIG10_ENERGY[name], cause))
    rows.append(_row("fig10/geomean/area_saving", _geomean(area), 1.5,
                     CAUSE_FIG10))
    rows.append(_row("fig10/geomean/energy_saving", _geomean(energy), 1.4,
                     CAUSE_FIG10))
    return rows


def _ablation(name: str, power: bool) -> dict[str, float]:
    """Per-pass share of the baseline's FU-scope area (or power) that
    each pass removes, in percent."""
    designs = suite_designs()
    pick = 1 if power else 0
    base, red, rew = (_fu_scope(designs[(name, v)])[pick] for v in (
        "baseline", "+reduction", "+rewiring"))
    shares = {"reduction": (base - red) / base,
              "rewiring": (red - rew) / base,
              "pin_reuse": 0.0,     # nothing to share: see NO_PIN_REUSE
              "total": (base - rew) / base}
    if power:
        # Power gating: the full design with one dataflow active; ungated
        # idle paths would still toggle.
        full = designs[(name, "full")]
        gated = _fu_scope(full, active_dataflow=next(iter(full.configs)))[1]
        shares["gating"] = (max(0.0, (rew - gated) / base)
                            if len(full.configs) > 1 else 0.0)
        shares["total"] = (base - min(rew, gated)) / base
    return {k: 100 * v for k, v in shares.items()}


def _ablation_rows(figure: str, power: bool, paper_avg: float, cause: str):
    rows, kept = [], []
    for name in _suite_dataflows():
        shares = _ablation(name, power)
        kept.append(1 - shares["total"] / 100)
        for part, pct in shares.items():
            rows.append(_row(f"{figure}/{name}/{part}_pct", pct, None,
                             NO_PIN_REUSE if part == "pin_reuse"
                             else UNPRINTED))
    saving = 100 * (1 - _geomean(max(1e-9, k) for k in kept))
    rows.append(_row(f"{figure}/geomean/saving_pct", saving, paper_avg,
                     cause))
    return rows


def fig13():
    """Fig. 13: per-pass area ablation."""
    return _ablation_rows("fig13", False, 35, CAUSE_FIG13)


def fig14():
    """Fig. 14: per-pass power ablation, including power gating."""
    return _ablation_rows("fig14", True, 28, CAUSE_FIG14)


# -- Fig. 11 and §VI-B(e): end-to-end vs Gemmini ------------------------

LEGO = ArchPerf(name="LEGO-MNICOC", dataflows=("MN", "ICOC", "OCOH"))
PAPER_FIG11 = {  # (gemmini GOP/s, lego GOP/s, gemmini GOPS/W, lego GOPS/W)
    "AlexNet": (118, 241, 549, 847),
    "MobileNetV2": (24, 310, 113, 1090),
    "ResNet50": (290, 475, 1346, 1668),
    "EfficientNetV2": (131, 430, 610, 1513),
    "BERT": (159, 456, 739, 1603),
    "GPT2": (11, 29, 52, 102),
    "CoAtNet": (143, 441, 666, 1551),
}
CAUSE_GEMMINI = ("Gemmini is the LEGO perf model with fixed penalties "
                 "(perf_model.GEMMINI_LIKE: im2col, weight loads, 45 % DRAM "
                 "efficiency, 120-cycle dispatch, half-hidden DMA), not a "
                 "measurement")
CAUSE_LEGO = ("analytic roofline per layer (sim/perf_model.py) with "
              "per-primitive energy constants, not RTL simulation")
CAUSE_RATIO = ("ratio of two modelled designs; its gap to the paper is not "
               "yet decomposed per term (ROADMAP item 5(b))")


@functools.cache
def fig11_perfs():
    models = {name: zoo.MODEL_BUILDERS[name]() for name in MODELS}
    return {name: (evaluate_model(model, GEMMINI_LIKE),
                   evaluate_model(model, LEGO))
            for name, model in models.items()}


def fig11():
    """Fig. 11: end-to-end performance and energy efficiency vs Gemmini
    over the NN model suite (256 MACs, 256 KB, 16 GB/s)."""
    perfs = fig11_perfs()
    rows, speedups, effs = [], [], []
    for name in MODELS:
        gem, lego = perfs[name]
        pg, pl, peg, pel = PAPER_FIG11[name]
        speedups.append(lego.gops / gem.gops)
        effs.append(lego.gops_per_watt / gem.gops_per_watt)
        rows += [
            _row(f"fig11/{name}/gemmini_gops", gem.gops, pg, CAUSE_GEMMINI),
            _row(f"fig11/{name}/lego_gops", lego.gops, pl, CAUSE_LEGO),
            _row(f"fig11/{name}/gemmini_gops_per_w", gem.gops_per_watt, peg,
                 CAUSE_GEMMINI),
            _row(f"fig11/{name}/lego_gops_per_w", lego.gops_per_watt, pel,
                 CAUSE_LEGO),
            _row(f"fig11/{name}/speedup", speedups[-1], pl / pg, CAUSE_RATIO),
            _row(f"fig11/{name}/efficiency", effs[-1], pel / peg,
                 CAUSE_RATIO),
            _row(f"fig11/{name}/lego_utilization_pct",
                 100 * lego.utilization, None,
                 "the paper states only the shape: GPT-2 is DRAM-bound"),
        ]
    rows.append(_row("fig11/geomean/speedup", _geomean(speedups), 3.2,
                     CAUSE_RATIO))
    rows.append(_row("fig11/geomean/efficiency", _geomean(effs), 2.4,
                     CAUSE_RATIO))
    return rows


def sec6b_e():
    """§VI-B(e): instruction overhead of the LEGO-MNICOC design."""
    rows = []
    for name in MODELS:
        stats = fig11_perfs()[name][1].instruction_stats()
        rows.append(_row(f"sec6b_e/{name}/cycles_per_instruction",
                         stats["cycles_per_instruction"], None,
                         "the paper states only a bound: > 2000 cycles per "
                         "instruction on most models"))
        rows.append(_row(f"sec6b_e/{name}/instruction_bw_gbs",
                         stats["instruction_bw_gbs"], None,
                         "the paper states only a bound: < 1 % of the "
                         "16 GB/s DRAM bandwidth"))
    return rows


# -- Fig. 12: LEGO-MNICOC breakdown --------------------------------------

CAUSE_BREAKDOWN = ("area and power come from per-bit primitive costs and "
                   "a CACTI-like SRAM model (sim/energy_model.py), not "
                   "synthesis; category shares are the most model-"
                   "sensitive numbers")
CAUSE_PPU = ("PPU cycles are modelled per post-processing layer "
             "(sim/ppu.py) against modelled array cycles")


@functools.cache
def mnicoc():
    return build(AcceleratorSpec(name="LEGO-MNICOC", array=(16, 16),
                                 buffer_kb=256, n_ppus=8))


def fig12a():
    """Fig. 12(a): area and power breakdown of LEGO-MNICOC."""
    report = mnicoc().area_power()
    area, power = dict(report.area_um2), dict(report.power_mw)
    # Fold control into the FU array as the paper's categories do.
    area["fu_array"] = area.get("fu_array", 0) + area.pop("control", 0)
    power["fu_array"] = power.get("fu_array", 0) + power.pop("control", 0)
    total_a, total_p = sum(area.values()), sum(power.values())
    paper_area = {"fu_array": 7, "buffers": 86, "noc": 5, "ppus": 2}
    paper_power = {"fu_array": 57, "buffers": 12, "noc": 26, "ppus": 5}
    rows = [_row("fig12a/total/area_mm2", total_a / 1e6, 1.76,
                 CAUSE_BREAKDOWN),
            _row("fig12a/total/power_mw", total_p, 285, CAUSE_BREAKDOWN)]
    for cat in ("fu_array", "buffers", "noc", "ppus"):
        rows.append(_row(f"fig12a/{cat}/area_pct",
                         100 * area.get(cat, 0) / total_a, paper_area[cat],
                         CAUSE_BREAKDOWN))
        rows.append(_row(f"fig12a/{cat}/power_pct",
                         100 * power.get(cat, 0) / total_p,
                         paper_power[cat], CAUSE_BREAKDOWN))
    return rows


def fig12b():
    """Fig. 12(b): end-to-end latency share of the post-processing units."""
    arch = mnicoc().spec.perf_arch()
    paper = {"AlexNet": 0.5, "MobileNetV2": 1.0, "ResNet50": 2.5,
             "EfficientNetV2": 7.2, "BERT": 1.9, "GPT2": 0.9,
             "CoAtNet": 5.7}
    rows = [_row(f"fig12b/{name}/ppu_latency_pct",
                 100 * evaluate_model(zoo.MODEL_BUILDERS[name](),
                                      arch).ppu_fraction,
                 paper[name], CAUSE_PPU)
            for name in MODELS]
    return rows


# -- Tables II-VIII ------------------------------------------------------

LEGO_1K = ArchPerf(name="LEGO-ICOC-1K", array=(32, 32), buffer_kb=576.0,
                   dram_gbps=32.0, n_ppus=32,
                   dataflows=("MN", "ICOC", "OCOH"))
PAPER_TABLE2 = {  # (util %, GOP/s, GOPS/W)
    "DDPM": (92.9, 1903, 3165),
    "StableDiffusion": (80.2, 1642, 2731),
    "LLaMA-7B-bs1": (3.1, 63, 105),
    "LLaMA-7B-bs32": (42.9, 878, 1461),
}


def table2():
    """Table II: large generative models on LEGO-ICOC-1K."""
    cases = {"DDPM": zoo.ddpm(), "StableDiffusion": zoo.stable_diffusion(),
             "LLaMA-7B-bs1": zoo.llama7b_decode(1),
             "LLaMA-7B-bs32": zoo.llama7b_decode(32)}
    cause = ("analytic roofline (sim/perf_model.py): a layer takes "
             "max(compute, DRAM) cycles with perfect overlap and no stall "
             "beyond those modelled")
    rows = []
    for name, model in cases.items():
        perf = evaluate_model(model, LEGO_1K)
        pu, pp, pe = PAPER_TABLE2[name]
        rows += [_row(f"table2/{name}/util_pct", 100 * perf.utilization, pu,
                      cause),
                 _row(f"table2/{name}/gops", perf.gops, pp, cause),
                 _row(f"table2/{name}/gops_per_w", perf.gops_per_watt, pe,
                      "per-primitive energy constants (sim/energy_model.py)"
                      ", not synthesized power")]
    return rows


def table3():
    """Table III: LEGO-generated designs vs handwritten Eyeriss / NVDLA."""
    # Eyeriss-style KH-OH parallel array: 3 x 56 = 168 FUs, at Eyeriss's
    # node (65 nm) and frequency (200 MHz).
    conv = kernels.conv2d(1, 8, 8, 56, 8, 3, 3)
    khoh = run_backend(generate(build_adg(
        [kernels.conv2d_dataflow("KHOH", conv, 3, 56)])))
    tech65 = dataclasses.replace(TSMC28.scaled(65.0), freq_mhz=200.0)
    khoh_rep = evaluate_design(khoh, tech65)
    sram = sram_model(tech65, 108, 64, n_banks=14)  # Eyeriss-class 108 KB
    khoh_area = (khoh_rep.total_area_um2 + sram["area_um2"]) / 1e6
    khoh_power = (khoh_rep.total_power_mw
                  + sram["read_pj"] * 0.3 * 14 * tech65.freq_mhz * 1e6 * 1e-9)
    icoc = build(AcceleratorSpec(name="LEGO-ICOC", array=(16, 16),
                                 buffer_kb=256, conv_dataflows=("ICOC",),
                                 gemm_dataflows=(), n_ppus=0)).area_power()
    cause = ("28 nm per-primitive costs scaled to 65 nm by classical "
             "factors (TechModel.scaled) and a modelled 108 KB SRAM, not "
             "a 65 nm synthesis")
    rows = [_row("table3/LEGO-KHOH/area_mm2", khoh_area, 7.4, cause),
            _row("table3/LEGO-KHOH/power_mw", khoh_power, 112, cause),
            _row("table3/LEGO-ICOC/area_mm2", icoc.total_area_mm2, 1.5,
                 CAUSE_BREAKDOWN),
            _row("table3/LEGO-ICOC/power_mw", icoc.total_power_mw, 209,
                 CAUSE_BREAKDOWN)]
    return rows


PAPER_TABLE4 = {  # n_fus: (area mm2, power mW, GOPS/W)
    64: (0.02, 29, 4404),
    256: (0.06, 106, 4816),
    1024: (0.24, 422, 4853),
    4096: (1.05, 1748, 4688),
    16384: (4.21, 6987, 4690),
}


def _table4_spec(array, l2=(1, 1)) -> AcceleratorSpec:
    n = array[0] * array[1] * l2[0] * l2[1]
    return AcceleratorSpec(
        name=f"LEGO-ICOC-{n}", array=array, l2_noc=l2,
        buffer_kb=array[0] * array[1] / 4,  # per-PE; L2 scaling replicates
        conv_dataflows=("ICOC",), gemm_dataflows=(), n_ppus=0)


@functools.cache
def table4_accelerators() -> dict[int, tuple[object, float]]:
    """n_fus -> (accelerator, generation seconds) from 64 to 16,384 FUs.
    Past 1024 FUs the PE is reused and only the L2 NoC grows, as in the
    paper, so generation cost barely changes."""
    out, pe = {}, None
    for n_fus, array, l2 in [(64, (8, 8), (1, 1)), (256, (16, 16), (1, 1)),
                             (1024, (32, 32), (1, 1)),
                             (4096, (32, 32), (2, 2)),
                             (16384, (32, 32), (4, 4))]:
        if l2 == (1, 1):
            pe = build(_table4_spec(array))
            out[n_fus] = (pe, pe.generation_seconds)
        else:
            scaled = dataclasses.replace(pe, spec=_table4_spec(array, l2))
            out[n_fus] = (scaled, pe.generation_seconds + 0.5 * l2[0] * l2[1])
    return out


def table4():
    """Table IV: scaling from 64 to 16,384 FUs."""
    cause = ("Table IV reports the FU array + NoC scope; a fixed "
             "control/NoC overhead and 28 nm per-bit costs weigh most on "
             "small arrays")
    rows = []
    for n_fus, (acc, _seconds) in table4_accelerators().items():
        report = acc.area_power()
        cats = ("fu_array", "control", "noc", "ppus")
        area = sum(report.area_um2.get(c, 0.0) for c in cats) / 1e6
        power = sum(report.power_mw.get(c, 0.0) for c in cats)
        eff = n_fus * 2.0 * 0.9 / (power / 1e3)  # 90 % of peak at 1 GHz
        pa, pp, pe = PAPER_TABLE4[n_fus]
        rows += [_row(f"table4/{n_fus}/area_mm2", area, pa, cause),
                 _row(f"table4/{n_fus}/power_mw", power, pp, cause),
                 _row(f"table4/{n_fus}/gops_per_w", eff, pe, cause)]
    return rows


def _table5_build(name, conv_dataflows, gemm_dataflows=(),
                  fuse_heuristic=True):
    spec = AcceleratorSpec(name=name, array=(8, 8), buffer_kb=128,
                           conv_dataflows=conv_dataflows,
                           gemm_dataflows=gemm_dataflows, n_ppus=4)
    return build(spec, frontend=FrontendConfig(fuse_heuristic=fuse_heuristic))


def table5():
    """Table V: fusing several spatial dataflows in one design."""
    accs = {
        "ICOC-only": _table5_build("LEGO-ICOCICOC", ("ICOC",)),
        "OHOW-only": _table5_build("LEGO-OHOWICOC", ("OHOW",)),
        "merged": _table5_build("LEGO-MNICOC-naive", ("ICOC", "OHOW"),
                                ("IJ",), fuse_heuristic=False),
        "optimized": _table5_build("LEGO-MNICOC", ("ICOC", "OHOW"),
                                   ("IJ",)),
    }
    perf_dataflows = {"ICOC-only": ("ICOC",), "OHOW-only": ("MN",),
                      "merged": ("MN", "ICOC"), "optimized": ("MN", "ICOC")}
    paper_power = {"ICOC-only": 123, "OHOW-only": 155, "merged": 196,
                   "optimized": 163}
    models = {"MBV2": zoo.mobilenet_v2(), "R50": zoo.resnet50()}
    rows = []
    for key, acc in accs.items():
        power = acc.area_power().total_power_mw
        rows.append(_row(f"table5/{key}/power_mw", power, paper_power[key],
                         "the naive merge keeps each dataflow's links and "
                         "memory ports apart; costed per primitive, that "
                         "adds less power than the paper measured"))
        arch = ArchPerf(name="x", array=(8, 8), buffer_kb=128,
                        dataflows=perf_dataflows[key])
        for label, model in models.items():
            gops = evaluate_model(model, arch).gops
            # efficiency combines modelled perf with the design's power
            rows.append(_row(f"table5/{key}/{label}_gops", gops, None,
                             "the paper prints this column as a bar"))
            rows.append(_row(f"table5/{key}/{label}_gops_per_w",
                             gops / (power / 1e3), None,
                             "the paper prints this column as a bar"))
    return rows


def _ff_bits(design) -> int:
    dag = design.dag
    bits = dag.pipeline_register_bits() + dag.fifo_register_bits()
    for node in dag.nodes.values():
        if node.kind in ("ctrl", "ctrl_tap", "addrgen", "mem_read",
                         "mul", "add", "reducer", "lut"):
            bits += node.width  # output register of sequential primitives
    return bits


def _logic_bits(design) -> int:
    dag = design.dag
    bits = 0
    for nid, node in dag.nodes.items():
        if node.kind in ("add", "sub", "max", "shl", "shr"):
            bits += node.width
        elif node.kind == "mul":
            ins = [dag.nodes[e.src].width for e in dag.in_edges(nid)]
            bits += (ins[0] * ins[1]) if len(ins) >= 2 else node.width ** 2
        elif node.kind == "reducer":
            bits += node.width * max(
                node.params.get("n_inputs", 2) - 1, 1)
        elif node.kind == "mux":
            bits += node.width * max(node.params.get("n_inputs", 1) - 1, 0)
        elif node.kind in ("addrgen", "ctrl"):
            bits += 24 * 4
    return bits


def table6():
    """Table VI: LEGO vs the same array generated without its two key
    mechanisms — per-FU control and no backend optimization (the
    TensorLib/AutoSA-like structure), GEMM-IJ on 8x8."""
    df = kernels.gemm_dataflow("IJ", kernels.gemm(16, 16, 16), 8, 8)
    lego = run_backend(generate(build_adg([df]), share_control=True),
                       BackendOptions())
    base = run_backend(generate(build_adg([df]), share_control=False),
                       BackendOptions.baseline())
    lego_rep, base_rep = evaluate_design(lego), evaluate_design(base)
    pub = RELATED_WORK_OVERHEADS
    cause = ("measured against LEGO with both mechanisms switched off, "
             "not against the published generator's own output")
    rows = [
        _row("table6/TensorLib-like/area_overhead",
             base_rep.total_area_um2 / lego_rep.total_area_um2,
             pub["TensorLib"]["area"], cause),
        _row("table6/TensorLib-like/power_overhead",
             base_rep.total_power_mw / lego_rep.total_power_mw,
             pub["TensorLib"]["power"], cause),
        _row("table6/AutoSA-like/ff_overhead",
             _ff_bits(base) / _ff_bits(lego), pub["AutoSA"]["ff"], cause),
        _row("table6/AutoSA-like/lut_overhead",
             _logic_bits(base) / _logic_bits(lego), pub["AutoSA"]["lut"],
             cause),
    ]
    return rows


PAPER_TABLE7 = {"LeNet": (10.23, 52.33), "MobileNetV2": (14.21, 72.69),
                "ResNet50": (15.03, 76.88)}


def table7():
    """Table VII: LEGO-MNICOC-Tiny (16 FUs) vs SODA at FreePDK 45 nm,
    500 MHz."""
    acc = build(AcceleratorSpec(name="LEGO-MNICOC-Tiny", array=(4, 4),
                                buffer_kb=64, conv_dataflows=("ICOC", "OHOW"),
                                gemm_dataflows=("IJ",), n_ppus=2))
    acc = dataclasses.replace(
        acc, tech=dataclasses.replace(FREEPDK45, freq_mhz=500.0))
    arch = ArchPerf(name="tiny", array=(4, 4), buffer_kb=64, freq_mhz=500.0,
                    dram_gbps=4.0, n_ppus=2, dataflows=("MN", "ICOC"))
    cause = ("45 nm power is 28 nm per-primitive energy scaled by 45/28 "
             "(TechModel.scaled), not FreePDK45 synthesis, and comes out "
             "far below the paper's")
    rows = [_row("table7/LEGO-MNICOC-Tiny/area_mm2",
                 acc.area_power().total_area_mm2, 0.945,
                 "28 nm areas scaled by (45/28)^2, plus a modelled 64 KB "
                 "SRAM")]
    for name, model in (("LeNet", zoo.lenet()),
                        ("MobileNetV2", zoo.mobilenet_v2()),
                        ("ResNet50", zoo.resnet50())):
        perf = evaluate_model(model, arch, acc.tech)
        gflops, eff = PAPER_TABLE7[name]
        rows += [_row(f"table7/{name}/gflops", perf.gops, gflops,
                      CAUSE_LEGO),
                 _row(f"table7/{name}/gflops_per_w", perf.gops_per_watt, eff,
                      cause)]
    return rows


PAPER_TABLE8 = {"GEMM-IJ": (3_900, 4_800), "Conv2d-OCOH": (4_900, 4_200),
                "MTTKRP-IJ": (4_900, 4_700)}


def _fpga_resources(design) -> tuple[int, int]:
    """FF = all sequential bits; LUT ~= combinational logic bits / 2
    (a 6-LUT absorbs ~2 bits of arithmetic)."""
    dag = design.dag
    ff = dag.pipeline_register_bits() + dag.fifo_register_bits()
    lut = 0.0
    for nid, node in dag.nodes.items():
        if node.kind in ("ctrl", "ctrl_tap", "addrgen", "mem_read", "mul",
                         "add", "reducer", "lut"):
            ff += node.width
        if node.kind in ("add", "sub", "max", "shl", "shr"):
            lut += node.width
        elif node.kind == "mul":
            ins = [dag.nodes[e.src].width for e in dag.in_edges(nid)]
            lut += (ins[0] * ins[1] / 2) if len(ins) >= 2 else node.width
        elif node.kind == "reducer":
            lut += node.width * max(
                node.params.get("n_inputs", 2) - 1, 1)
        elif node.kind == "mux":
            lut += node.width * max(node.params.get("n_inputs", 1) - 1, 0) / 2
        elif node.kind in ("addrgen", "ctrl"):
            lut += 48
    return int(ff), int(lut)


def table8():
    """Table VIII: FPGA resources (U280) vs AutoSA, 8x8 arrays."""
    gemm = kernels.gemm(16, 16, 16)
    conv = kernels.conv2d(1, 8, 16, 16, 8, 3, 3)
    mt = kernels.mttkrp(16, 16, 8, 8)
    dataflows = {"GEMM-IJ": kernels.gemm_dataflow("IJ", gemm, 8, 8),
                 "Conv2d-OCOH": kernels.conv2d_dataflow("OCOH", conv, 8, 8),
                 "MTTKRP-IJ": kernels.mttkrp_dataflow("IJ", mt, 8, 8)}
    cause = ("FF/LUT estimated from DAG bit counts (FF = register bits, "
             "LUT = logic bits / 2), not Vivado place-and-route")
    rows = []
    for name, df in dataflows.items():
        ff, lut = _fpga_resources(run_backend(generate(build_adg([df]))))
        paper_ff, paper_lut = PAPER_TABLE8[name]
        rows += [_row(f"table8/{name}/ff", ff, paper_ff, cause),
                 _row(f"table8/{name}/lut", lut, paper_lut, cause)]
    return rows


# -- §VI-B(f): generating the DSE-searched design ------------------------

def sec6b_f():
    """§VI-B(f): search the mapping/architecture space under an
    Eyeriss-class area budget (the explorer stands in for Timeloop), pick
    the energy-optimal point at matched latency, generate it."""
    space = DesignSpace(arrays=((8, 8), (16, 16), (8, 16), (16, 8)),
                        buffer_kb=(108.0, 128.0, 192.0),
                        dataflow_sets=(("ICOC",), ("MN",), ("MN", "ICOC")))
    points = run_search([zoo.resnet50()], space, objective="latency",
                        area_budget_mm2=10.0).points
    # The Eyeriss-style hand pick: output-spatial dataflow, 108 KB, 16x16.
    default = next(p for p in points
                   if p.arch.dataflows == ("MN",) and p.arch.array == (16, 16)
                   and p.arch.buffer_kb == 108.0)
    matched = [p for p in points if p.cycles <= default.cycles * 1.001]
    searched = min(matched, key=lambda p: p.energy_pj)
    winner = generate_winner(searched, workload_scale=1)
    own = "the explorer's own search space; the paper states no value"
    rows = [
        _row("sec6b_f/search/candidates", len(points), None, own),
        _row("sec6b_f/default/energy_mj", default.energy_pj / 1e9, None, own),
        _row("sec6b_f/searched/energy_mj", searched.energy_pj / 1e9, None,
             own),
        _row("sec6b_f/searched/saving_pct",
             100 * (1 - searched.energy_pj / default.energy_pj), 9, own),
        _row("sec6b_f/winner/primitives", len(winner.design.dag.nodes),
             None, own),
    ]
    return rows


FIGURES = {f.__name__: f for f in (
    fig10, fig11, sec6b_e, fig12a, fig12b, fig13, fig14, table2, table3,
    table4, table5, table6, table7, table8, sec6b_f)}


@functools.cache
def reproduce(figure: str) -> dict[str, dict]:
    return {row["id"]: row for row in FIGURES[figure]()}


def value(rid: str) -> float:
    return reproduce(rid.split("/")[0])[rid]["value"]


# -- the ledger ----------------------------------------------------------

# absent only while re-recording; the completeness test then fails
LEDGER = (json.loads(LEDGER_PATH.read_text()) if LEDGER_PATH.exists()
          else [])


@pytest.mark.parametrize("entry", LEDGER, ids=[e["id"] for e in LEDGER])
def test_ledger_row_holds(entry):
    rows = reproduce(entry["id"].split("/")[0])
    assert entry["id"] in rows, "no longer reproduced: re-record the ledger"
    row = rows[entry["id"]]
    assert row["value"] == pytest.approx(entry["value"], rel=REL_TOL, abs=0)
    assert (row["paper"], row["cause"]) == (entry["paper"], entry["cause"])
    if entry["deviation"] is None:
        assert row["deviation"] is None
    else:
        assert row["deviation"] == pytest.approx(entry["deviation"],
                                                 rel=REL_TOL, abs=1e-12)


def test_ledger_has_exactly_the_reproduced_rows():
    ids = [e["id"] for e in LEDGER]
    assert len(ids) == len(set(ids)), "duplicate ledger ids"
    reproduced = [rid for figure in FIGURES for rid in reproduce(figure)]
    assert sorted(ids) == sorted(reproduced)


def test_fig11_geomeans_are_the_benchmark_outcomes():
    """The same two numbers `bench/run.py`'s dse_explore pins."""
    assert value("fig11/geomean/speedup") == 2.2607352093878146
    assert value("fig11/geomean/efficiency") == 1.1681715049308914


# -- the shapes the figures argue ----------------------------------------

SUITE = tuple(_suite_dataflows())


def test_fig10_optimizations_never_hurt_and_save_overall():
    for name in SUITE:
        assert value(f"fig10/{name}/area_saving") >= 0.99, name
        assert value(f"fig10/{name}/energy_saving") >= 0.99, name
    assert value("fig10/geomean/area_saving") > 1.05
    assert value("fig10/geomean/energy_saving") > 1.02


def test_fig11_lego_wins_everywhere_most_on_mobilenet():
    for name in MODELS:
        assert value(f"fig11/{name}/lego_gops") > \
            value(f"fig11/{name}/gemmini_gops"), name
        assert value(f"fig11/{name}/lego_gops_per_w") > \
            value(f"fig11/{name}/gemmini_gops_per_w"), name
    # dynamic switching on depthwise layers gives MobileNetV2 the larger
    # speedup; GPT-2 decode is bandwidth-bound
    assert value("fig11/MobileNetV2/speedup") > value("fig11/ResNet50/speedup")
    assert value("fig11/GPT2/lego_utilization_pct") < 10
    assert value("fig11/geomean/speedup") > 1.5


def test_sec6b_e_instruction_overhead_is_negligible():
    for name in MODELS:
        assert value(f"sec6b_e/{name}/cycles_per_instruction") > 2000, name
        assert value(f"sec6b_e/{name}/instruction_bw_gbs") < 0.01 * 16, name


def test_fig12_buffers_dominate_area_compute_and_noc_power():
    assert value("fig12a/buffers/area_pct") > 50
    assert value("fig12a/fu_array/power_pct") \
        + value("fig12a/noc/power_pct") > 50
    assert value("fig12a/ppus/area_pct") < 5
    assert value("fig12a/ppus/power_pct") < 8
    assert 0.5 < value("fig12a/total/area_mm2") < 5.0
    for name in MODELS:
        assert value(f"fig12b/{name}/ppu_latency_pct") < 15.0, name


def test_fig13_fig14_passes_never_hurt_fused_designs_gain_most():
    for name in SUITE:
        assert value(f"fig13/{name}/total_pct") >= -1e-7, name
        assert value(f"fig14/{name}/total_pct") >= -1e-7, name
    fused = ["GEMM-MJ", "MTTKRP-MJ", "Conv2d-MNICOC"]
    single = ["GEMM-IJ", "MTTKRP-IJ", "Conv2d-OHOW"]
    assert sum(value(f"fig13/{n}/total_pct") for n in fused) > \
        sum(value(f"fig13/{n}/total_pct") for n in single)
    # gating only helps designs with more than one dataflow
    assert value("fig14/GEMM-MJ/gating_pct") >= \
        value("fig14/GEMM-IJ/gating_pct")
    assert value("fig13/geomean/saving_pct") > 5.0
    assert value("fig14/geomean/saving_pct") > 5.0


def test_table2_diffusion_compute_bound_decode_bandwidth_bound():
    assert value("table2/DDPM/util_pct") > 60
    assert value("table2/StableDiffusion/util_pct") > 60
    assert value("table2/LLaMA-7B-bs1/util_pct") < 10
    assert value("table2/LLaMA-7B-bs32/util_pct") > \
        5 * value("table2/LLaMA-7B-bs1/util_pct")


def test_table3_generated_designs_comparable_to_handwritten():
    assert value("table3/LEGO-KHOH/area_mm2") < 2 * EYERISS.area_mm2
    assert value("table3/LEGO-KHOH/power_mw") < EYERISS.power_mw
    assert value("table3/LEGO-ICOC/area_mm2") < 2 * NVDLA.area_mm2
    assert value("table3/LEGO-ICOC/power_mw") < 2 * NVDLA.power_mw


def test_table4_scaling_keeps_efficiency_flat():
    gen = {n: seconds for n, (_acc, seconds) in table4_accelerators().items()}
    sizes = sorted(PAPER_TABLE4)
    assert [gen[n] for n in (64, 256, 1024)] == \
        sorted(gen[n] for n in (64, 256, 1024))
    assert gen[16384] < 180, "16K-FU generation stays within 3 minutes"
    areas = [value(f"table4/{n}/area_mm2") for n in sizes]
    assert areas == sorted(areas)
    # flat across the L2-NoC regime, within 4x overall (fixed overheads
    # weigh more on tiny arrays)
    big = [value(f"table4/{n}/gops_per_w") for n in (1024, 4096, 16384)]
    assert max(big) / min(big) < 1.10
    effs = [value(f"table4/{n}/gops_per_w") for n in sizes]
    assert max(effs) / min(effs) < 4.0
    # L2 NoC overhead below ~10 %
    assert value("table4/4096/area_mm2") < \
        4 * value("table4/1024/area_mm2") * 1.10


def test_table5_fusion_gains_perf_and_the_heuristic_saves_power():
    assert value("table5/optimized/MBV2_gops") >= \
        value("table5/ICOC-only/MBV2_gops")
    assert value("table5/optimized/power_mw") <= \
        value("table5/merged/power_mw") + 1e-9
    assert value("table5/merged/power_mw") >= min(
        value("table5/ICOC-only/power_mw"), value("table5/OHOW-only/power_mw"))


def test_table6_switching_off_lego_mechanisms_costs():
    assert value("table6/TensorLib-like/area_overhead") > 1.1
    assert value("table6/TensorLib-like/power_overhead") > 1.1
    assert value("table6/AutoSA-like/ff_overhead") > 1.1


def test_table7_order_of_magnitude_over_soda():
    for name, soda in SODA_45NM.items():
        assert value(f"table7/{name}/gflops") > 5 * soda["gflops"], name
        assert value(f"table7/{name}/gflops_per_w") > \
            5 * soda["gflops_per_w"], name
    assert value("table7/LEGO-MNICOC-Tiny/area_mm2") < 3.0


def test_table8_fewer_resources_than_autosa():
    for name, pub in AUTOSA_FPGA.items():
        assert value(f"table8/{name}/ff") < pub["FF"], name
        assert value(f"table8/{name}/lut") < pub["LUT"], name


def test_sec6b_f_searched_design_saves_energy_and_generates():
    assert value("sec6b_f/search/candidates") > 3
    assert value("sec6b_f/searched/saving_pct") >= 0
    assert value("sec6b_f/winner/primitives") > 0


if __name__ == "__main__":
    print(json.dumps([row for figure in FIGURES
                      for row in reproduce(figure).values()], indent=1))
