"""Tests for the performance model, mapper, model zoo, and accelerator
assembly — including cross-validation of the analytic model against the
cycle-accurate DAG simulator."""

import numpy as np
import pytest

from repro.arch import AcceleratorSpec, build
from repro.arch.references import AUTOSA_FPGA, EYERISS, NVDLA, SODA_45NM
from repro.mapper import choose_mapping, map_model
from repro.models import zoo
from repro.models.layers import (AttentionLayer, ConvLayer, LinearLayer,
                                 PPULayer)
from repro.sim.perf_model import (GEMMINI_LIKE, ArchPerf, evaluate_layer,
                                  evaluate_model, spatial_options)

LEGO = ArchPerf(name="LEGO", dataflows=("MN", "ICOC", "OCOH"))


class TestLayers:
    def test_conv_macs(self):
        c = ConvLayer("c", 1, 16, 32, 8, 8, 3, 3)
        assert c.macs() == 32 * 8 * 8 * 16 * 9

    def test_depthwise(self):
        c = ConvLayer("dw", 1, 32, 32, 8, 8, 3, 3, groups=32)
        assert c.is_depthwise
        assert c.macs() == 32 * 8 * 8 * 9

    def test_stride_shrinks_output(self):
        c = ConvLayer("s", 1, 3, 8, 16, 16, 3, 3, stride=2)
        assert c.oh == 8

    def test_attention_macs(self):
        a = AttentionLayer("a", 2, 4, 8, 16)
        assert a.macs() == 2 * 2 * 4 * 8 * 16


class TestZoo:
    @pytest.mark.parametrize("name", sorted(zoo.MODEL_BUILDERS))
    def test_models_build(self, name):
        model = zoo.MODEL_BUILDERS[name]()
        assert model.layers
        assert model.total_ops() > 0

    def test_gop_counts_plausible(self):
        # Published MAC counts (within 2x: shapes are simplified).
        assert 0.5e9 < zoo.alexnet().total_macs() < 1.5e9
        assert 0.2e9 < zoo.mobilenet_v2().total_macs() < 0.7e9
        assert 2e9 < zoo.resnet50().total_macs() < 6e9

    def test_gpt2_is_gemv_shaped(self):
        model = zoo.gpt2_decode()
        linears = [l for l in model.layers if isinstance(l, LinearLayer)]
        assert all(l.m == 1 for l in linears)

    def test_llama_batch(self):
        m1 = zoo.llama7b_decode(1)
        m32 = zoo.llama7b_decode(32)
        assert m32.total_macs() > m1.total_macs()


class TestPerfModel:
    def test_spatial_options(self):
        conv = ConvLayer("c", 1, 64, 64, 16, 16, 3, 3)
        assert spatial_options(conv, "ICOC", (16, 16)) == {"ic": 16, "oc": 16}
        assert spatial_options(conv, "MN", (16, 16)) == {"oh": 16, "ow": 16}
        lin = LinearLayer("l", 64, 64, 64)
        assert spatial_options(lin, "KHOH", (16, 16)) is None

    def test_perfect_layer_high_utilization(self):
        lin = LinearLayer("l", 256, 256, 256)
        perf = evaluate_layer(lin, LEGO, "MN")
        assert perf.utilization > 0.9

    def test_misaligned_layer_low_utilization(self):
        lin = LinearLayer("l", 17, 17, 64)
        perf = evaluate_layer(lin, LEGO, "MN")
        assert perf.utilization < 0.6

    def test_memory_bound_gemv(self):
        gemv = LinearLayer("v", 1, 4096, 4096)
        perf = evaluate_layer(gemv, LEGO, "ICOC")
        assert perf.dram_cycles > perf.compute_cycles

    def test_depthwise_avoids_channel_parallelism(self):
        dw = ConvLayer("dw", 1, 64, 64, 32, 32, 3, 3, groups=64)
        mapping, _perf = choose_mapping(dw, LEGO)
        # ic = 1 per group: channel-parallel dataflows waste the array.
        assert mapping.dataflow != "ICOC"

    def test_tiling_respects_buffer(self):
        big = LinearLayer("big", 4096, 4096, 4096)
        perf = evaluate_layer(big, LEGO, "MN")
        # Cannot be all-resident: DRAM traffic must exceed the footprints.
        min_bytes = sum(big.tensor_bytes().values())
        assert perf.dram_bytes > min_bytes

    def test_dram_efficiency_hurts(self):
        slow = ArchPerf(name="slow", dataflows=("MN",), dram_efficiency=0.4)
        fast = ArchPerf(name="fast", dataflows=("MN",), dram_efficiency=0.9)
        gemv = LinearLayer("v", 1, 4096, 4096)
        assert evaluate_layer(gemv, slow, "MN").cycles > \
            evaluate_layer(gemv, fast, "MN").cycles

    def test_model_evaluation(self):
        perf = evaluate_model(zoo.alexnet(), LEGO)
        assert 0 < perf.gops <= LEGO.peak_gops
        assert perf.gops_per_watt > 0
        assert 0 < perf.utilization <= 1

    def test_instruction_overhead_small(self):
        """§VI-B(e): instruction bandwidth must stay below 1% of DRAM BW."""
        perf = evaluate_model(zoo.resnet50(), LEGO)
        stats = perf.instruction_stats()
        assert stats["instruction_bw_gbs"] < 0.16  # 1% of 16 GB/s
        assert stats["cycles_per_instruction"] > 100


class TestGemminiBaseline:
    def test_lego_beats_gemmini_everywhere(self):
        for name in ("AlexNet", "MobileNetV2", "ResNet50", "BERT", "GPT2"):
            model = zoo.MODEL_BUILDERS[name]()
            lego = evaluate_model(model, LEGO)
            gem = evaluate_model(model, GEMMINI_LIKE)
            assert lego.gops > gem.gops, name
            assert lego.gops_per_watt > gem.gops_per_watt, name

    def test_depthwise_dominates_gemmini_gap(self):
        """The MobileNetV2 speedup must exceed the ResNet50 speedup — the
        dataflow-switching advantage the paper highlights."""
        def speedup(name):
            model = zoo.MODEL_BUILDERS[name]()
            return (evaluate_model(model, LEGO).gops
                    / evaluate_model(model, GEMMINI_LIKE).gops)
        assert speedup("MobileNetV2") > 2 * speedup("ResNet50")

    def test_gpt2_memory_bound_for_both(self):
        model = zoo.gpt2_decode()
        for arch in (LEGO, GEMMINI_LIKE):
            perf = evaluate_model(model, arch)
            assert perf.utilization < 0.1, arch.name


class TestMapper:
    def test_map_model_covers_all_layers(self):
        model = zoo.alexnet()
        mapped = map_model(model, LEGO)
        assert len(mapped) == len(model.layers)
        for layer, mapping in mapped:
            if isinstance(layer, PPULayer):
                assert mapping is None
            else:
                assert mapping.dataflow in LEGO.dataflows

    def test_energy_objective_differs(self):
        conv = ConvLayer("c", 1, 64, 64, 56, 56, 3, 3)
        lat, _p1 = choose_mapping(conv, LEGO, "latency")
        eng, _p2 = choose_mapping(conv, LEGO, "energy")
        assert eng.energy_pj <= lat.energy_pj

    def test_infeasible_arch(self):
        arch = ArchPerf(name="none", dataflows=("KHOH",))
        with pytest.raises(ValueError):
            choose_mapping(LinearLayer("l", 8, 8, 8), arch)


class TestAcceleratorAssembly:
    @pytest.fixture(scope="class")
    def acc(self):
        return build(AcceleratorSpec(name="LEGO-small", array=(4, 4),
                                     buffer_kb=64, n_ppus=2))

    def test_generation_succeeds(self, acc):
        assert acc.generation_seconds > 0
        assert len(acc.design.dag.nodes) > 50

    def test_area_power_report(self, acc):
        report = acc.area_power()
        assert report.total_area_mm2 > 0
        assert {"buffers", "noc", "ppus"} <= set(report.area_um2)

    def test_model_evaluation(self, acc):
        perf = acc.evaluate(zoo.lenet())
        assert perf.gops > 0

    def test_verilog_emission(self, acc):
        rtl = acc.verilog()
        assert "module lego_small" in rtl

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            build(AcceleratorSpec(conv_dataflows=(), gemm_dataflows=()))

    def test_perf_arch_derivation(self):
        spec = AcceleratorSpec(conv_dataflows=("ICOC", "OHOW"),
                               gemm_dataflows=("IJ",))
        arch = spec.perf_arch()
        assert "MN" in arch.dataflows and "ICOC" in arch.dataflows


class TestReferences:
    def test_published_constants(self):
        assert EYERISS.n_fus == 168 and EYERISS.power_mw == 278.0
        assert NVDLA.technology_nm == 28.0
        assert AUTOSA_FPGA["GEMM-IJ"]["FF"] == 25_400
        assert SODA_45NM["LeNet"]["gflops"] == 0.90
