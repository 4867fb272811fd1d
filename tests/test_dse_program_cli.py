"""Tests for the DSE explorer, the configuration-stream compiler, the
reporting utilities, and the command-line interface."""

import numpy as np
import pytest

from repro.backend import generate, run_backend
from repro.backend.program import (compile_config, config_bytes,
                                   decode_config)
from repro.cli import main as cli_main
from repro.core import kernels
from repro.core.frontend import build_adg
from repro.dse.explorer import DesignSpace, generate_winner, pareto_front
from repro.dse.strategies import run_search
from repro.models import zoo
from repro.report import dag_summary, design_summary, render_topology


@pytest.fixture(scope="module")
def gemm_design():
    wl = kernels.gemm(8, 8, 8)
    df = kernels.gemm_dataflow("KJ", wl, 4, 4)
    return run_backend(generate(build_adg([df]))), df


@pytest.fixture(scope="module")
def fused_design():
    wl = kernels.gemm(8, 8, 8)
    dfa = kernels.gemm_dataflow("IJ", wl, 4, 4)
    dfb = kernels.gemm_dataflow("KJ", wl, 4, 4)
    return run_backend(generate(build_adg([dfa, dfb])))


class TestDSE:
    @pytest.fixture(scope="class")
    def points(self):
        space = DesignSpace(arrays=((8, 8), (16, 16)),
                            buffer_kb=(128.0, 256.0),
                            dataflow_sets=(("ICOC",), ("MN", "ICOC")))
        return run_search([zoo.lenet()], space).points

    def test_explores_full_space(self, points):
        assert len(points) == 2 * 2 * 2

    def test_sorted_by_objective(self, points):
        edps = [p.edp for p in points]
        assert edps == sorted(edps)

    def test_objectives(self):
        space = DesignSpace(arrays=((8, 8),), buffer_kb=(128.0,),
                            dataflow_sets=(("ICOC",),))
        for objective in ("edp", "latency", "energy", "throughput"):
            pts = run_search([zoo.lenet()], space, objective=objective).points
            assert len(pts) == 1
        with pytest.raises(ValueError, match="objective"):
            run_search([zoo.lenet()], space, objective="vibes")

    def test_area_budget_screens(self):
        space = DesignSpace(arrays=((8, 8), (32, 32)), buffer_kb=(256.0,),
                            dataflow_sets=(("ICOC",),))
        all_pts = run_search([zoo.lenet()], space).points
        tight = run_search([zoo.lenet()], space, area_budget_mm2=0.5).points
        assert len(tight) < len(all_pts)

    def test_pareto_front_dominance(self, points):
        front = pareto_front(points)
        assert front
        for p in points:
            assert any(f.cycles <= p.cycles and f.energy_pj <= p.energy_pj
                       for f in front)
        # Front itself is mutually non-dominated.
        for a in front:
            for b in front:
                if a is b:
                    continue
                assert not (a.cycles <= b.cycles
                            and a.energy_pj < b.energy_pj - 1e-9
                            and a.cycles < b.cycles - 1e-9)

    def test_generate_winner_produces_hardware(self, points):
        acc = generate_winner(points[0], workload_scale=1)
        assert len(acc.design.dag.nodes) > 0


class TestConfigCompiler:
    def test_roundtrip(self, gemm_design):
        design, df = gemm_design
        blob = compile_config(design, df.name)
        ordinal, words = decode_config(blob)
        assert ordinal == 0
        kinds = {w.kind for w in words}
        assert "addrgen" in kinds and "meta" in kinds

    def test_mux_selects_preserved(self, fused_design):
        design = fused_design
        for idx, name in enumerate(sorted(design.configs)):
            blob = compile_config(design, name)
            ordinal, words = decode_config(blob)
            assert ordinal == idx
            muxes = {w.node: w.payload[0] for w in words if w.kind == "mux"}
            for nid, sel in design.configs[name].mux_select.items():
                assert muxes[nid] == sel

    def test_magic_validation(self):
        with pytest.raises(ValueError, match="not a LEGO"):
            decode_config(b"\x00" * 16)

    def test_truncation_detected(self, gemm_design):
        design, df = gemm_design
        blob = compile_config(design, df.name)
        with pytest.raises(ValueError, match="truncated"):
            decode_config(blob[:-4])

    def test_config_size_is_small(self, fused_design):
        """The per-dataflow configuration is a few KB — consistent with
        the paper's <1%-of-DRAM-bandwidth instruction overhead claim."""
        sizes = config_bytes(fused_design)
        assert all(size < 64 * 1024 for size in sizes.values())
        assert all(size > 0 for size in sizes.values())


class TestReport:
    def test_topology_marks_data_nodes(self, gemm_design):
        design, df = gemm_design
        art = render_topology(design.adg, "X", df.name)
        assert "*" in art and "tensor X" in art

    def test_topology_rejects_3d(self):
        from repro.core.dataflow import Dataflow
        wl = kernels.gemm(4, 4, 4)
        df = Dataflow.build(wl, spatial=[("i", 2), ("j", 2), ("k", 2)],
                            control=(0, 0, 0), name="3d")
        design = generate(build_adg([df]))
        with pytest.raises(ValueError, match="2-D"):
            render_topology(design.adg, "X")

    def test_dag_summary_counts(self, gemm_design):
        design, _df = gemm_design
        text = dag_summary(design)
        assert "mul" in text and "pipeline register bits" in text

    def test_design_summary_sections(self, gemm_design):
        design, _df = gemm_design
        text = design_summary(design)
        for token in ("front end", "memory layouts", "back end",
                      "pass report"):
            assert token in text


class TestCLI:
    def test_generate(self, tmp_path, capsys):
        out = tmp_path / "top.v"
        rc = cli_main(["generate", "--kernel", "gemm", "--dataflows", "KJ",
                       "--array", "2", "2", "--output", str(out)])
        assert rc == 0
        assert out.exists() and "module lego_top" in out.read_text()
        assert "LEGO design" in capsys.readouterr().out

    def test_generate_unknown_kernel(self):
        with pytest.raises(SystemExit):
            cli_main(["generate", "--kernel", "fft"])

    def test_evaluate(self, capsys):
        rc = cli_main(["evaluate", "AlexNet"])
        assert rc == 0
        assert "GOP/s" in capsys.readouterr().out

    def test_evaluate_unknown_model(self):
        assert cli_main(["evaluate", "SkyNet"]) == 2

    def test_evaluate_gemmini(self, capsys):
        rc = cli_main(["evaluate", "AlexNet", "--arch", "gemmini"])
        assert rc == 0
        assert "Gemmini" in capsys.readouterr().out

    def test_topology_flag(self, capsys):
        rc = cli_main(["generate", "--kernel", "conv2d",
                       "--dataflows", "OHOW", "--array", "2", "2",
                       "--topology"])
        assert rc == 0
        assert "data node" in capsys.readouterr().out
