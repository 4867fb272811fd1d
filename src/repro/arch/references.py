"""Published reference numbers for the comparison tables.

Everything in this module is a **constant quoted from the cited papers**
(clearly separated from measured LEGO-side numbers): Eyeriss and NVDLA for
Table III, TensorLib/DSAGen/AutoSA/SODA for Tables VI-VIII.  The
fidelity ledger (``tests/test_fidelity.py``, ``FIDELITY.json``) holds the
values our generator produces against them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["HandwrittenDesign", "EYERISS", "NVDLA", "AUTOSA_FPGA",
           "SODA_45NM", "RELATED_WORK_OVERHEADS"]


@dataclass(frozen=True)
class HandwrittenDesign:
    """An expert-designed accelerator's published implementation numbers."""

    name: str
    dataflow: str
    n_fus: int
    frequency_mhz: float
    technology_nm: float
    area_mm2: float
    power_mw: float
    note: str = ""


#: Eyeriss (Chen et al., JSSC'16) — Table III left.
EYERISS = HandwrittenDesign(
    name="Eyeriss", dataflow="KH-OH Parallel", n_fus=168,
    frequency_mhz=200.0, technology_nm=65.0, area_mm2=9.6, power_mw=278.0)

#: NVDLA (projected to 28nm from 16nm per the paper) — Table III right.
NVDLA = HandwrittenDesign(
    name="NVDLA", dataflow="IC-OC Parallel", n_fus=256,
    frequency_mhz=1000.0, technology_nm=28.0, area_mm2=1.7, power_mw=300.0,
    note="power projected from 16nm [44]")

#: AutoSA on Xilinx U280 (Table VIII): FF / LUT per kernel.
AUTOSA_FPGA = {
    "GEMM-IJ": {"FF": 25_400, "LUT": 23_900},
    "Conv2d-OCOH": {"FF": 108_000, "LUT": 120_000},
    "MTTKRP-IJ": {"FF": 96_000, "LUT": 92_400},
}

#: SODA+MLIR+Bambu at FreePDK 45nm, 500 MHz (Table VII).
SODA_45NM = {
    "LeNet": {"area_mm2": 0.67, "gflops": 0.90, "gflops_per_w": 3.27},
    "MobileNetV2": {"area_mm2": 0.75, "gflops": 0.87, "gflops_per_w": 2.28},
    "ResNet50": {"area_mm2": 0.41, "gflops": 0.65, "gflops_per_w": 3.20},
}

#: Table VI row summaries: published overhead of related generators
#: relative to LEGO (as reported by the paper's comparisons).
RELATED_WORK_OVERHEADS = {
    "DSAGen": {"power": 2.6, "area": 2.4},
    "TensorLib": {"power": 2.6, "area": 2.0},
    "AutoSA": {"ff": 6.5, "lut": 5.0},
    "SODA": {"energy": 32.0, "speedup": 14.0},
}
