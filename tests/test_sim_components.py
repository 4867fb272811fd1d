"""Tests for the NoC and PPU terms and the energy model."""

import math

import pytest

from repro.sim.energy_model import (FREEPDK45, TSMC28, evaluate_design,
                                    sram_model)
from repro.sim.noc import ButterflyNetwork, WormholeMesh
from repro.sim.ppu import ppu_latency_cycles


class TestButterfly:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            ButterflyNetwork(6)

    def test_stage_count(self):
        assert ButterflyNetwork(16).n_stages == 4
        assert ButterflyNetwork(16).n_switches == 32


class TestWormhole:
    def test_mesh_area_scales(self):
        assert WormholeMesh(4, 5).area_um2(100) > WormholeMesh(2, 3).area_um2(100)


class TestPPU:
    def test_latency_model(self):
        assert ppu_latency_cycles(1000, 8, 2, 2) == math.ceil(125 * 2 / 2)
        with pytest.raises(ValueError):
            ppu_latency_cycles(10, 0)

    def test_two_pass_functions(self):
        from repro.models.layers import PPULayer
        assert PPULayer("s", "softmax", 10).n_passes == 2
        assert PPULayer("r", "relu", 10).n_passes == 1


class TestEnergyModel:
    def test_sram_model_monotone(self):
        small = sram_model(TSMC28, 64, 64)
        big = sram_model(TSMC28, 512, 64)
        assert big["area_um2"] > small["area_um2"]
        assert big["read_pj"] > small["read_pj"]

    def test_tech_scaling(self):
        assert FREEPDK45.reg_area_per_bit > TSMC28.reg_area_per_bit
        assert FREEPDK45.adder_energy_per_bit > TSMC28.adder_energy_per_bit
        # Area scales quadratically, energy linearly.
        assert (FREEPDK45.reg_area_per_bit / TSMC28.reg_area_per_bit
                == pytest.approx((45 / 28) ** 2))

    def test_design_evaluation_breakdown(self):
        from repro.backend import generate, run_backend
        from repro.core import kernels
        from repro.core.frontend import build_adg
        df = kernels.gemm_dataflow("KJ", kernels.gemm(8, 8, 8), 4, 4)
        design = run_backend(generate(build_adg([df])))
        report = evaluate_design(design)
        assert report.total_area_um2 > 0
        assert report.total_power_mw > 0
        assert "fu_array" in report.area_um2

    def test_active_dataflow_reduces_power(self):
        from repro.backend import generate, run_backend
        from repro.core import kernels
        from repro.core.frontend import build_adg
        wl = kernels.gemm(8, 8, 8)
        dfa = kernels.gemm_dataflow("IJ", wl, 4, 4)
        dfb = kernels.gemm_dataflow("KJ", wl, 4, 4)
        design = run_backend(generate(build_adg([dfa, dfb])))
        full = evaluate_design(design)
        single = evaluate_design(design, active_dataflow="GEMM-IJ")
        assert single.total_power_mw <= full.total_power_mw

    def test_report_merge(self):
        from repro.sim.energy_model import AreaPowerReport
        a = AreaPowerReport({"x": 1.0}, {"x": 2.0})
        b = AreaPowerReport({"x": 1.0, "y": 3.0}, {"y": 1.0})
        m = a.merge(b)
        assert m.area_um2 == {"x": 2.0, "y": 3.0}
        assert m.total_power_mw == 3.0
