"""Multi-backend emitter subsystem: registry semantics, the HLS-C
family (including compile-and-run validation against the Python
cycle-accurate simulator), hash/cache isolation across families, and
the serving/CLI surface."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.backends import (BackendFamily, backend_names, backends_info,
                            get_backend, register_backend)
from repro.backends.hls_c import emit_hls_c, emit_hls_testbench
from repro.service import BatchEngine, DesignCache
from repro.service.spec import DesignRequest, execute_request

TINY = dict(kernel="gemm", dataflows=("KJ",), array=(2, 2))
#: Golden content hashes of the TINY request per family.  These pin the
#: canonical form (a change to it moves every cache address), and the
#: two differ (cache entries never collide across families).
GOLDEN_VERILOG = ("76f9403b318153ae9c28f7d580646622"
                  "787319f6209d8be2477628d85a00ac23")
GOLDEN_HLS_C = ("cb122fe82e93418e1fa24a9d5c448de0"
                "9ce96a430ec590d8dca760e3b029c5f9")


def _compiler():
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


@pytest.fixture(scope="module")
def tiny_design():
    from repro.backend import generate, run_backend
    from repro.core.frontend import build_adg

    request = DesignRequest(**TINY)
    return run_backend(generate(build_adg(request.build_dataflows(),
                                          request.frontend)),
                       request.options)


class TestRegistry:
    def test_builtin_families_registered(self):
        assert backend_names() == ("hls_c", "verilog")

    def test_lookup_reports_vocabulary(self):
        with pytest.raises(ValueError, match=r"hls_c.*verilog"):
            get_backend("firrtl")

    def test_families_implement_protocol(self):
        for name in backend_names():
            family = get_backend(name)
            assert isinstance(family, BackendFamily)
            assert family.name == name
            assert family.suffix.startswith(".")

    def test_double_registration_rejected(self):
        family = get_backend("verilog")
        with pytest.raises(ValueError, match="already registered"):
            register_backend(family)
        register_backend(family, replace=True)  # explicit override ok

    def test_non_family_rejected(self):
        with pytest.raises(TypeError):
            register_backend(object())

    def test_backends_info_shape(self):
        info = backends_info()
        assert [b["name"] for b in info] == list(backend_names())
        for entry in info:
            assert entry["artifacts"]
            assert "reduction_tree" in entry["options"]
            assert entry["options"]["reduction_tree"]["default"] is True


class TestRequestValidation:
    def test_unknown_backend_lists_supported(self):
        with pytest.raises(ValueError, match=r"hls_c.*verilog"):
            DesignRequest(backend="chisel", **TINY)

    def test_unknown_kernel_lists_supported(self):
        with pytest.raises(ValueError, match=r"gemm.*conv2d.*mttkrp"):
            DesignRequest(kernel="winograd")

    def test_bad_options_rejected_at_construction(self):
        with pytest.raises(ValueError, match="BackendOptions"):
            DesignRequest(options="fast", **TINY)


class TestHashIsolation:
    def test_golden_hashes_per_family(self):
        assert DesignRequest(**TINY).spec_hash() == GOLDEN_VERILOG
        assert DesignRequest(backend="hls_c",
                             **TINY).spec_hash() == GOLDEN_HLS_C

    def test_canonical_form_is_the_whole_request(self):
        """Defaults are hashed in like any other value: the canonical
        form is ``to_dict()``, default family and options included."""
        request = DesignRequest(**TINY)
        canonical = json.loads(request.canonical_json())
        assert canonical == request.to_dict()
        assert canonical["backend"] == "verilog"
        assert canonical["options"]["emit_testbench"] is True

    def test_canonical_json_round_trips(self):
        request = DesignRequest(backend="hls_c", **TINY)
        clone = DesignRequest.from_dict(json.loads(
            request.canonical_json()))
        assert clone == request
        assert clone.spec_hash() == request.spec_hash()

    def test_warm_hit_never_crosses_families(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "cache"))
        first = engine.submit(DesignRequest(**TINY))
        assert first.ok and not first.from_cache
        again = engine.submit(DesignRequest(**TINY))
        assert again.from_cache
        crossed = engine.submit(DesignRequest(backend="hls_c", **TINY))
        assert crossed.ok
        assert not crossed.from_cache, \
            "hls_c must not be served the verilog family's cache entry"
        assert set(crossed.artifacts) == {"lego_top.c", "lego_top_tb.c"}
        assert set(again.artifacts) == {"lego_top.v"}

    @pytest.mark.parametrize("family", backend_names())
    def test_every_family_round_trips_through_the_cache(self, family,
                                                        tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "cache"))
        request = DesignRequest(backend=family, **TINY)
        cold = engine.submit(request)
        assert cold.ok and not cold.from_cache
        warm = engine.submit(request)
        assert warm.from_cache
        assert warm.artifacts == cold.artifacts


class TestVerilogFamily:
    def test_emit_matches_legacy_path(self, tiny_design):
        from repro.backend.verilog import emit_verilog

        artifacts = get_backend("verilog").emit(tiny_design,
                                                module_name="m")
        assert artifacts == {"m.v": emit_verilog(tiny_design,
                                                 module_name="m")}

    def test_execute_request_primary_is_rtl(self):
        result = execute_request(DesignRequest(**TINY))
        assert result.ok
        assert result.artifacts == {"lego_top.v": result.rtl}
        assert "module lego_top" in result.rtl


class TestHlsCFamily:
    def test_emission_is_deterministic(self, tiny_design):
        assert emit_hls_c(tiny_design) == emit_hls_c(tiny_design)

    def test_structure(self, tiny_design):
        source = emit_hls_c(tiny_design, module_name="tiny")
        assert "int tiny(int cfg_dataflow" in source
        assert "#pragma HLS PIPELINE II=1" in source
        assert "#pragma HLS UNROLL" in source
        assert "static int df0_run(" in source
        assert source.count("{") == source.count("}")

    def test_testbench_references_top(self, tiny_design):
        bench = emit_hls_testbench(tiny_design, "GEMM-KJ",
                                   module_name="tiny")
        assert "extern int tiny(int cfg_dataflow" in bench
        assert "TESTBENCH PASSED" in bench

    def test_execute_request_emits_both_artifacts(self):
        result = execute_request(DesignRequest(backend="hls_c", **TINY))
        assert result.ok
        assert list(result.artifacts) == ["lego_top.c", "lego_top_tb.c"]
        assert result.rtl == result.artifacts["lego_top.c"]

    def test_printing_runs_no_simulator(self, tiny_design, monkeypatch):
        """The C prints the dataflow's netlist; only the testbench's
        golden vectors come from a simulator run."""
        from repro.sim import dag_sim

        def refuse(*args, **kwargs):
            raise AssertionError("emit_hls_c constructed a Simulator")

        monkeypatch.setattr(dag_sim.Simulator, "__init__", refuse)
        assert "static int df0_run(" in emit_hls_c(tiny_design)

    @pytest.mark.skipif(_compiler() is None,
                        reason="no system C compiler available")
    def test_compiles_and_reproduces_simulator(self, tmp_path):
        """The acceptance bar: the lowered C of every single-dataflow
        golden kernel compiles warning-clean with the system C compiler
        and its baked testbench (golden vectors from the Python
        cycle-accurate simulator) passes bit for bit."""
        assert sum(run_testbenches(design, tmp_path, label)
                   for label, design in _golden_designs(fused=False)) == 8

    @pytest.mark.skipif(_compiler() is None,
                        reason="no system C compiler available")
    def test_fused_design_every_dataflow_passes(self, tmp_path):
        """A fused multi-dataflow design exercises the config-selected
        operand muxes: every cfg_dataflow ordinal of every fused golden
        kernel must validate."""
        assert sum(run_testbenches(design, tmp_path, label)
                   for label, design in _golden_designs(fused=True)) == 12


def _golden_designs(fused: bool):
    """``(label, design)`` of every golden kernel at 2x2 under default
    and ``baseline()`` options whose design is (or is not) *fused*."""
    from repro.backend import generate, run_backend
    from repro.core.frontend import build_adg
    from test_golden_identity import KERNELS, OPTIONS

    for kernel, spec in KERNELS.items():
        for option, options in OPTIONS.items():
            request = DesignRequest(array=(2, 2), options=options, **spec)
            dataflows = request.build_dataflows()
            if (len(dataflows) > 1) == fused:
                yield f"{kernel}/{option}", run_backend(generate(build_adg(
                    dataflows, request.frontend)), request.options)


def run_testbenches(design, tmp_path, label: str,
                    werror: bool = True) -> int:
    """Compile *design*'s C once (with warnings as errors unless told
    otherwise), then link and run each dataflow's testbench against it;
    returns how many passed (all of them, or an assertion names the
    first failure)."""
    cc = [_compiler(), "-O1", "-Wall", "-Wextra", "-Wno-unknown-pragmas",
          *(["-Werror"] if werror else [])]
    top, tb, exe = (str(tmp_path / name) for name in ("top", "tb.c", "tb"))
    pathlib.Path(top + ".c").write_text(emit_hls_c(design))
    compiled = subprocess.run([*cc, "-c", "-o", top + ".o", top + ".c"],
                              capture_output=True, text=True)
    assert compiled.returncode == 0, (label, compiled.stderr)
    for dataflow in sorted(design.configs):
        pathlib.Path(tb).write_text(emit_hls_testbench(design, dataflow))
        linked = subprocess.run([*cc, "-o", exe, top + ".o", tb],
                                capture_output=True, text=True)
        assert linked.returncode == 0, (label, linked.stderr)
        bench = subprocess.run([exe], capture_output=True, text=True)
        assert bench.returncode == 0 and "TESTBENCH PASSED" in bench.stdout, \
            (label, dataflow, bench.stdout)
    return len(design.configs)


class TestEngineRouting:
    def test_requests_from_space_backend(self):
        from repro.dse.explorer import DesignSpace
        from repro.service.engine import requests_from_space

        space = DesignSpace(arrays=((2, 2),), buffer_kb=(128.0,),
                            dram_gbps=(16.0,), dataflow_sets=(("MN",),))
        default = requests_from_space(space)
        retargeted = requests_from_space(space, backend="hls_c")
        assert {r.backend for r in default} == {"verilog"}
        assert {r.backend for r in retargeted} == {"hls_c"}
        assert ({r.spec_hash() for r in default}
                & {r.spec_hash() for r in retargeted} == set())

    def test_batch_mixes_families(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "cache"))
        results = engine.generate_many([
            DesignRequest(**TINY),
            DesignRequest(backend="hls_c", **TINY),
            DesignRequest(**TINY),  # in-batch duplicate of the first
        ])
        assert all(r.ok for r in results)
        assert results[0].spec_hash == results[2].spec_hash
        assert results[0].spec_hash != results[1].spec_hash
        assert "module lego_top" in results[0].rtl
        assert "#pragma HLS" in results[1].rtl


class TestServingSurface:
    @pytest.fixture(scope="class")
    def server_url(self, tmp_path_factory):
        from repro.service import ServerThread

        root = tmp_path_factory.mktemp("serve-cache")
        engine = BatchEngine(cache=DesignCache(root=root))
        with ServerThread(engine) as url:
            yield url

    def test_get_backends_endpoint(self, server_url):
        from repro.service import ServiceClient

        with ServiceClient.from_url(server_url) as client:
            families = client.backends()
            assert [b["name"] for b in families] == ["hls_c", "verilog"]
            assert all("options" in b and "description" in b
                       for b in families)
            assert client.health()["backends"] == ["hls_c", "verilog"]

    def test_backends_endpoint_is_get_only(self, server_url):
        from repro.service import ServiceClient, ServiceError

        with ServiceClient.from_url(server_url) as client:
            with pytest.raises(ServiceError, match="use GET"):
                client.request("POST", "/backends", {})

    def test_generate_routes_backend(self, server_url):
        from repro.service import ServiceClient

        with ServiceClient.from_url(server_url) as client:
            result = client.generate(dict(TINY, dataflows=["KJ"],
                                          array=[2, 2],
                                          backend="hls_c"),
                                     include_rtl=True)
            assert result["ok"], result
            assert result["backend"] == "hls_c"
            assert set(result["artifacts"]) == {"lego_top.c",
                                                "lego_top_tb.c"}
            # The same design, other family: must be a cold miss.
            other = client.generate(dict(TINY, dataflows=["KJ"],
                                         array=[2, 2]))
            assert other["backend"] == "verilog"
            assert not other["from_cache"]

    def test_unknown_backend_is_client_error(self, server_url):
        from repro.service import ServiceClient, ServiceError

        with ServiceClient.from_url(server_url) as client:
            with pytest.raises(ServiceError) as err:
                client.generate(dict(TINY, dataflows=["KJ"],
                                     array=[2, 2], backend="mlir"))
            assert err.value.status == 400
            assert "verilog" in str(err.value)


SRC_DIR = str(pathlib.Path(__file__).resolve().parent.parent / "src")


class TestCliSurface:
    def _run(self, *argv):
        env = dict(os.environ)
        env["PYTHONPATH"] = (SRC_DIR + os.pathsep
                             + env.get("PYTHONPATH", ""))
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True, text=True, env=env)

    def test_backends_listing(self):
        out = self._run("backends")
        assert out.returncode == 0
        assert "verilog" in out.stdout and "hls_c" in out.stdout
        names = self._run("backends", "--names")
        assert names.stdout.split() == ["hls_c", "verilog"]

    def test_generate_backend_writes_c_artifacts(self, tmp_path):
        out_file = tmp_path / "design.c"
        run = self._run("generate", "--kernel", "gemm", "--dataflows",
                        "KJ", "--array", "2", "2", "--backend", "hls_c",
                        "--no-cache", "-o", str(out_file))
        assert run.returncode == 0, run.stderr
        assert "#pragma HLS" in out_file.read_text()
        companion = tmp_path / "design_tb.c"
        assert companion.exists()
        assert "TESTBENCH" in companion.read_text()

    def test_generate_unknown_backend_fails_with_vocabulary(self):
        run = self._run("generate", "--kernel", "gemm", "--backend",
                        "firrtl", "--no-cache")
        assert run.returncode != 0
        assert "verilog" in run.stderr

    def test_batch_output_dir_uses_family_suffixes(self, tmp_path):
        out_dir = tmp_path / "designs"
        run = self._run("batch", "--kernel", "gemm", "--dataflows", "KJ",
                        "--arrays", "2x2", "--backend", "hls_c",
                        "--no-cache", "--output-dir", str(out_dir))
        assert run.returncode == 0, run.stderr
        suffixes = sorted(p.name[16:] for p in out_dir.iterdir())
        assert suffixes == [".c", ".json", "_tb.c"]
