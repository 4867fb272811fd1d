"""Tests for the design service: canonical specs, the content-addressed
cache, the parallel batch engine, and the CLI integration."""

import json
import os
import pathlib
import pickle
import subprocess
import sys

import pytest

from repro.backend import BackendOptions
from repro.cli import main as cli_main
from repro.core.frontend import FrontendConfig
from repro.dse.explorer import DesignSpace
from repro.dse.strategies import run_search
from repro.models import zoo
from repro.obs import PHASE_DESIGN
from repro.service import (BatchEngine, DesignCache, DesignRequest,
                           ServerThread, ServiceClient, execute_request,
                           requests_from_space)
from repro.service.spec import SUPPORTED_KERNELS

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def tiny_requests() -> list[DesignRequest]:
    """16 distinct, fast-to-build requests (the acceptance batch)."""
    reqs = [DesignRequest(kernel="gemm", dataflows=(d,), array=a)
            for d in ("KJ", "IJ", "IK")
            for a in ((2, 2), (3, 3), (2, 3))]
    reqs += [DesignRequest(kernel="mttkrp", dataflows=(d,), array=a)
             for d in ("IJ", "KJ") for a in ((2, 2), (3, 2))]
    reqs += [DesignRequest(kernel="conv2d", dataflows=(d,), array=(2, 2),
                           systolic=False) for d in ("OHOW", "ICOC")]
    reqs += [DesignRequest(kernel="attention", array=(2, 2))]
    assert len(reqs) == 16
    return reqs


class TestDesignRequest:
    def test_canonical_roundtrip(self):
        req = DesignRequest(kernel="conv2d", dataflows=["ICOC", "OHOW"],
                            array=[4, 4], bounds={"kh": 5, "kw": 5})
        clone = DesignRequest.from_dict(json.loads(req.canonical_json()))
        assert clone == req
        assert clone.spec_hash() == req.spec_hash()

    def test_bounds_order_irrelevant(self):
        a = DesignRequest(bounds=(("m", 8), ("k", 16)))
        b = DesignRequest(bounds=(("k", 16), ("m", 8)))
        assert a.spec_hash() == b.spec_hash()

    def test_distinct_requests_distinct_hashes(self):
        hashes = {r.spec_hash() for r in tiny_requests()}
        assert len(hashes) == 16

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError, match="kernel"):
            DesignRequest(kernel="fft")

    def test_rejects_bad_array(self):
        with pytest.raises(ValueError, match="array"):
            DesignRequest(array=(0, 4))

    def test_hash_stable_across_processes(self):
        """The content address must not depend on interpreter state
        (hash randomization, import order, dict order)."""
        req = DesignRequest(kernel="gemm", dataflows=("KJ", "IJ"),
                            array=(4, 4), bounds={"k": 32})
        script = ("import json,sys\n"
                  "from repro.service.spec import DesignRequest\n"
                  "r = DesignRequest.from_dict(json.loads(sys.argv[1]))\n"
                  "print(r.spec_hash())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "random"
        out = subprocess.run(
            [sys.executable, "-c", script, req.canonical_json()],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == req.spec_hash()

    def test_attention_dataflows_normalized(self):
        """The attention pair is fixed; whatever the caller passes must
        hash to the same (single) cache entry."""
        a = DesignRequest(kernel="attention", dataflows=("KJ",))
        b = DesignRequest(kernel="attention", dataflows=("IJ", "IK"))
        assert a.dataflows == b.dataflows == ("QK", "PV")
        assert a.spec_hash() == b.spec_hash()

    def test_builds_every_kernel(self):
        for kernel in SUPPORTED_KERNELS:
            req = DesignRequest(kernel=kernel, dataflows=(
                {"gemm": "KJ", "conv2d": "OHOW",
                 "mttkrp": "IJ", "attention": "QKPV"}[kernel],),
                array=(2, 2))
            dfs = req.build_dataflows()
            assert dfs and all(df.rs == (2, 2) for df in dfs)


#: ``(name, request, spec_hash, design_key, adg_key)``, recorded before
#: ``DesignRequest.to_dict`` stopped calling ``dataclasses.fields`` per
#: request: a digest that moves re-addresses every cached design.
PINNED_KEYS = [
    ("defaults", DesignRequest(),
     "4ffe74d59708dc1798bd21f104ab23317650f94942f8eeab8eec547aecbaac97",
     "166e9faf4f6179df453dc908ea9784ab2a60d70c565a6de9350c638d4b3f1149",
     "b1f4d128b810074d22643ff0ba98a0d87f27f2c7966870af13624c2850e347b6"),
    ("attention-caller-dataflows",
     DesignRequest(kernel="attention", dataflows=("KJ", "IJ"),
                   array=(2, 2)),
     "1e68dc717ed590ae8bc7c8c21217128a748b343cc1ed69dac0541376df9bafb1",
     "1c90540389724ef19f83945700e80d92c49925e16ffc284d59e9dfc429d8563d",
     "3a7721e5b807dbeed4443cf6848ceb14a8e0ad8c3993490ed5462a05a259292b"),
    ("unordered-bounds",
     DesignRequest(kernel="gemm", dataflows=("KJ", "IJ"), array=(2, 4),
                   bounds={"n": 8, "k": 32, "m": 4}),
     "4dc7f86a20e4c34338cf3b5d994b400a2b6ca5442d80f0725778f1d9ad4ed68b",
     "aa1c4d4b6188ff1e87e607204b5aabccc025cecf3d5d590eb8d71b4a0e8339c3",
     "8a8c33aa21bdb787e33d315699164a968f73e61de0928f2ebc958d04588d015e"),
    ("backend-and-frontend-options",
     DesignRequest(kernel="gemm", dataflows=("IJ",), array=(4, 2),
                   systolic=False,
                   options=BackendOptions(reduction_tree=False,
                                          power_gating=False),
                   frontend=FrontendConfig(max_dist=2, memory_fetch_cost=8,
                                           fuse_heuristic=False)),
     "cbe3b6f17ab9e591f844fd9068a547142716de4833a85372f56df82b6a799e9b",
     "c946cadaa852d0b99940540cb5f751dff878027d3190b5c7e7feb91c24750f8b",
     "0eabfc315ea99d89f708218becdc1ad1312174820a10bdcab941b0723c9fa833"),
    ("hls_c-custom-module",
     DesignRequest(kernel="mttkrp", array=(2, 2), backend="hls_c",
                   module="my_top"),
     "20f5711d575b4250b58b7b237f43567e16cd6808dbb6b77c8bc3fb92a53abb11",
     "53705c797a3a5b1dd98ea5d7b1566b99e5dd4c20e6e3baa8fe7cbe46efdaa2f1",
     "8430387a20c940aad37f997ff196f9a972e22b630ebd53d3c6010957688a6859"),
    ("no-testbench",
     DesignRequest(array=(2, 2), backend="hls_c",
                   options=BackendOptions(emit_testbench=False)),
     "de30b79db83177f06dd001913fe84469b7ea4805d26698a418e6415f96a07649",
     "71b716824cfe8e57507a947c9b0996b7a17b75dfc48cfc1ccdfc87472ff9de87",
     "80de3e7f4da836afd8fd7d8ca457be875aaf31e142ec62710c6661a3a69ae6fd"),
]


class TestCacheKeyPins:
    @pytest.mark.parametrize("req, spec, design, adg",
                             [row[1:] for row in PINNED_KEYS],
                             ids=[row[0] for row in PINNED_KEYS])
    def test_keys_match_their_pins(self, req, spec, design, adg):
        assert (req.spec_hash(), req.design_key(), req.adg_key()) == \
            (spec, design, adg)

    def test_to_dict_field_order(self):
        """The hashed form sorts its keys, so only this catches a field
        that moved in ``to_dict``."""
        data = DesignRequest().to_dict()
        assert list(data) == ["format", "kernel", "dataflows", "array",
                              "systolic", "bounds", "options", "frontend",
                              "module", "backend"]
        assert list(data["options"]) == ["reduction_tree", "rewiring",
                                         "power_gating", "emit_testbench"]
        assert list(data["frontend"]) == ["max_dist", "memory_fetch_cost",
                                          "fuse_heuristic"]


class TestCache:
    def test_roundtrip_byte_identity(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        engine = BatchEngine(cache=cache)
        req = DesignRequest(array=(2, 2))
        first = engine.submit(req)
        assert first.ok and not first.from_cache
        second = engine.submit(req)
        assert second.from_cache
        assert second.design_bytes() == first.design_bytes()
        assert second.rtl == first.rtl
        assert second.summary == first.summary
        # the cold run stores the finished record plus the staged
        # pipeline's scheduled-design intermediate
        assert cache.stats.hits == 1 and cache.stats.puts == 2

    def test_record_stores_the_primary_artifact_once(self):
        from repro.service import DesignResult

        result = BatchEngine(cache=None).submit(DesignRequest(array=(2, 2)))
        record = result.to_record()
        assert "rtl" not in record
        clone = DesignResult.from_record(result.spec_hash, record)
        assert clone.rtl == result.rtl == next(iter(result.artifacts.values()))
        # Records that still carry the old duplicate "rtl" key load too.
        legacy = dict(record, rtl=result.rtl)
        assert DesignResult.from_record(result.spec_hash,
                                        legacy).rtl == result.rtl

    def test_cold_memory_warm_disk(self, tmp_path):
        """A fresh process (fresh engine) must hit the on-disk tier."""
        req = DesignRequest(array=(2, 2))
        first = BatchEngine(cache=DesignCache(root=tmp_path)).submit(req)
        cache = DesignCache(root=tmp_path)
        second = BatchEngine(cache=cache).submit(req)
        assert second.from_cache and cache.stats.memory_hits == 0
        assert second.design_bytes() == first.design_bytes()

    def test_corrupted_entry_recovery(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        engine = BatchEngine(cache=cache)
        req = DesignRequest(array=(2, 2))
        first = engine.submit(req)
        path = cache.path_for(req.spec_hash())
        path.write_text("{not json")
        cache._memory.clear()  # force the disk read
        redone = engine.submit(req)
        assert redone.ok and not redone.from_cache
        assert cache.stats.corrupt == 1
        assert redone.design_bytes() == first.design_bytes()
        assert not path.with_suffix(".tmp").exists()

    def test_non_object_json_treated_as_corrupt(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        key = "cd" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text("[1, 2, 3]")  # valid JSON, wrong shape
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()

    def test_wrong_format_treated_as_corrupt(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        key = "ab" + "0" * 62
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps({"format": "something-else"}))
        assert cache.get(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()

    def test_memory_lru_bounded(self, tmp_path):
        cache = DesignCache(root=tmp_path, memory_entries=2)
        for i in range(5):
            cache.put(f"{i:02d}" + "0" * 62, {"i": i})
        assert len(cache._memory) == 2
        assert len(cache) == 5  # disk keeps everything

    def test_disk_eviction_oldest_first(self, tmp_path):
        cache = DesignCache(root=tmp_path, disk_entries=3)
        keys = [f"{i:02d}" + "0" * 62 for i in range(5)]
        for i, key in enumerate(keys):
            cache.put(key, {"i": i})
            os.utime(cache.path_for(key), (i, i))
        cache.put("ff" + "0" * 62, {"i": 99})
        assert len(cache) == 3
        assert cache.stats.evictions >= 3
        remaining = set(cache.keys())
        assert keys[0] not in remaining and keys[1] not in remaining

    def test_peek_is_read_only(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        key = "ee" + "0" * 62
        cache.put(key, {"x": 1})
        cache._memory.clear()
        assert cache.peek(key) == {"x": 1}
        assert cache.stats.hits == 0 and not cache._memory
        assert cache.peek("ff" + "0" * 62) is None  # miss: no stats

    def test_clear(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        cache.put("aa" + "0" * 62, {"x": 1})
        assert cache.clear() == 1
        assert len(cache) == 0 and cache.get("aa" + "0" * 62) is None


class TestBatchEngine:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return BatchEngine(cache=None).generate_many(tiny_requests())

    def test_serial_all_ok(self, serial_results):
        assert all(r.ok for r in serial_results)

    def test_parallel_equals_serial(self, serial_results):
        parallel = BatchEngine(cache=None).generate_many(
            tiny_requests(), workers=4)
        assert len(parallel) == len(serial_results)
        for a, b in zip(serial_results, parallel):
            assert a.spec_hash == b.spec_hash
            assert a.design_bytes() == b.design_bytes()
            assert a.rtl == b.rtl

    def test_second_run_hits_cache_fully(self, tmp_path, serial_results):
        """Acceptance: a repeated batch over 16 requests is a 100% cache
        hit and byte-identical to the cold run."""
        cache = DesignCache(root=tmp_path)
        engine = BatchEngine(cache=cache)
        cold = engine.generate_many(tiny_requests(), workers=4)
        warm = engine.generate_many(tiny_requests())
        assert all(not r.from_cache for r in cold)
        assert all(r.from_cache for r in warm)
        assert cache.stats.hits >= 16
        for a, b, c in zip(cold, warm, serial_results):
            assert a.design_bytes() == b.design_bytes() == c.design_bytes()

    def test_in_batch_dedup(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        engine = BatchEngine(cache=cache)
        req = DesignRequest(array=(2, 2))
        results = engine.generate_many([req, req, req])
        assert len(results) == 3
        # computed once: one finished record + one phase intermediate
        assert cache.stats.puts == 2
        assert len({id(r) for r in results}) == 1

    def test_error_capture_does_not_poison_batch(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        engine = BatchEngine(cache=cache)
        bad = DesignRequest(kernel="gemm", dataflows=("XX",), array=(2, 2))
        good = DesignRequest(array=(2, 2))
        results = engine.generate_many([bad, good])
        assert not results[0].ok and "XX" in results[0].error
        assert results[1].ok
        # failures are never cached: a retry recomputes
        assert cache.get(bad.spec_hash()) is None

    def test_error_capture_preserves_traceback(self):
        """The captured failure must carry the original traceback (file
        and line of the raise site), not just the exception's last
        line — and it must survive the record round-trip."""
        from repro.service import DesignResult

        bad = DesignRequest(kernel="gemm", dataflows=("XX",), array=(2, 2))
        result = BatchEngine(cache=None).submit(bad)
        assert not result.ok
        assert result.traceback is not None
        assert "Traceback (most recent call last)" in result.traceback
        assert "File " in result.traceback  # the original raise site
        assert result.traceback.rstrip().endswith(result.error)
        clone = DesignResult.from_record(result.spec_hash,
                                         result.to_record())
        assert clone.traceback == result.traceback
        # Pre-traceback cache records still load (missing key -> None).
        legacy = result.to_record()
        del legacy["traceback"]
        assert DesignResult.from_record(result.spec_hash,
                                        legacy).traceback is None

    def test_progress_reports_cold_work(self):
        seen = []
        BatchEngine(cache=None).generate_many(
            [DesignRequest(array=(2, 2)),
             DesignRequest(array=(2, 3))],
            progress=lambda done, total, r: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]

    def test_progress_reaches_total_on_hits_and_dups(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path))
        a = DesignRequest(array=(2, 2))
        b = DesignRequest(array=(2, 3))
        engine.submit(a)  # warm the cache for `a`
        seen = []
        engine.generate_many(
            [a, b, b], progress=lambda d, t, r: seen.append((d, t)))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_accepts_design_space(self):
        space = DesignSpace(arrays=((2, 2),), buffer_kb=(128.0,),
                            dataflow_sets=(("MN",), ("MN", "ICOC")))
        reqs = requests_from_space(space)
        kernels = sorted(r.kernel for r in reqs)
        assert kernels == ["conv2d", "gemm"]  # deduplicated across points
        results = BatchEngine(cache=None).generate_many(space)
        assert [r.ok for r in results] == [True, True]


def _containers(value) -> int:
    """JSON containers (objects and arrays) in *value*, itself included."""
    if isinstance(value, dict):
        return 1 + sum(_containers(v) for v in value.values())
    if isinstance(value, list):
        return 1 + sum(_containers(v) for v in value)
    return 0


class TestRecordNamesItsDesign:
    """A full record holds request, artifacts, summary, timings and
    error; its design is the phase record at ``request.design_key()``,
    read only when a caller asks for ``result.design``."""

    def test_record_leaves_the_design_out(self, tmp_path):
        result = BatchEngine(cache=DesignCache(root=tmp_path)).submit(
            DesignRequest(array=(2, 2)))
        record = json.loads(json.dumps(result.to_record()))
        assert "design" not in record
        assert _containers(record) <= 20
        assert _containers(result.design) > 300  # what it used to carry

    def test_pooled_result_crosses_without_its_design(self, tmp_path):
        def carries_design(result) -> bool:
            size = len(pickle.dumps(result))  # before the design is read
            return size > (len(pickle.dumps(result.to_record()))
                           + len(pickle.dumps(result.design)) // 2)

        requests = [DesignRequest(array=(2, 2), bounds={"k": 8 + i})
                    for i in range(2)]
        uncached = execute_request(requests[0])
        cached = BatchEngine(cache=DesignCache(root=tmp_path)) \
            .generate_many(requests, workers=2)[0]
        assert not carries_design(cached)
        assert cached.design_bytes() == uncached.design_bytes()
        # without a cache nothing else holds the tree, so it travels
        bare = BatchEngine(cache=None).generate_many(requests, workers=2)[0]
        assert carries_design(bare)
        assert bare.design_bytes() == uncached.design_bytes()

    def test_legacy_record_with_embedded_design_loads(self, tmp_path):
        req = DesignRequest(array=(2, 2))
        cold = BatchEngine(cache=DesignCache(root=tmp_path)).submit(req)
        DesignCache(root=tmp_path).put(
            req.spec_hash(), dict(cold.to_record(), design=cold.design))
        cache = DesignCache(root=tmp_path)
        [hit] = BatchEngine(cache=cache).generate_many([req])
        assert hit.from_cache and hit.artifacts == cold.artifacts
        assert hit.design_bytes() == cold.design_bytes()

    def test_design_resolves_to_the_phase_record_as_stored(
            self, tmp_path, monkeypatch):
        import repro.serialize
        from repro.service import DesignResult

        req = DesignRequest(array=(2, 2))
        cold = BatchEngine(cache=DesignCache(root=tmp_path)).submit(req)
        loads = []
        real = repro.serialize.design_from_dict
        monkeypatch.setattr(repro.serialize, "design_from_dict",
                            lambda tree: loads.append(tree) or real(tree))
        cache = DesignCache(root=tmp_path)
        hit = DesignResult.from_record(
            req.spec_hash(), cache.get(req.spec_hash()), cache)
        assert hit.design_bytes() == cold.design_bytes()
        assert loads == [] and cache.stats.phase_hits == 1

    def test_hit_serves_after_its_phase_record_is_evicted(self, tmp_path):
        req = DesignRequest(array=(2, 2))
        cold = BatchEngine(cache=DesignCache(root=tmp_path)).submit(req)
        cache = DesignCache(root=tmp_path)
        phase_file = cache.path_for(
            cache.phase_address(PHASE_DESIGN, req.design_key()))
        phase_file.unlink()
        [hit] = BatchEngine(cache=cache).generate_many([req], workers=2)
        assert hit.from_cache and hit.artifacts == cold.artifacts
        # serving the hit never touched the phase tier ...
        assert cache.stats.phase_hits == cache.stats.phase_misses == 0
        # ... and asking for the design regenerates it
        assert hit.design_bytes() == cold.design_bytes()
        assert cache.stats.phase_misses == 1
        handle = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path))).start()
        try:
            phase_file.unlink()  # the regeneration above stored it again
            with ServiceClient.from_url(handle.url) as client:
                served = client.generate(req.to_dict(), include_rtl=True)
        finally:
            handle.stop()
        assert served["ok"] and served["from_cache"]
        assert served["artifacts"] == cold.artifacts


class TestExplorerIntegration:
    SPACE = DesignSpace(arrays=((8, 8), (16, 16)), buffer_kb=(128.0,),
                        dataflow_sets=(("ICOC",), ("MN", "ICOC")))

    def test_parallel_explore_matches_serial(self):
        serial = run_search([zoo.lenet()], self.SPACE).points
        parallel = run_search([zoo.lenet()], self.SPACE, workers=2).points
        assert [(p.arch.name, p.cycles, p.energy_pj) for p in serial] == \
               [(p.arch.name, p.cycles, p.energy_pj) for p in parallel]

    def test_cached_explore_matches_and_hits(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        baseline = run_search([zoo.lenet()], self.SPACE).points
        first = run_search([zoo.lenet()], self.SPACE, cache=cache).points
        again = run_search([zoo.lenet()], self.SPACE, cache=cache).points
        n = self.SPACE.size()
        assert cache.stats.puts == n and cache.stats.hits == n
        for a, b, c in zip(baseline, first, again):
            assert a.cycles == b.cycles == c.cycles
            assert a.energy_pj == b.energy_pj == c.energy_pj

    def test_eval_key_distinguishes_models(self, tmp_path):
        cache = DesignCache(root=tmp_path)
        run_search([zoo.lenet()], self.SPACE, cache=cache)
        run_search([zoo.alexnet()], self.SPACE, cache=cache)
        assert cache.stats.puts == 2 * self.SPACE.size()


class TestServiceCLI:
    def test_batch_then_warm(self, tmp_path, capsys):
        argv = ["batch", "--kernel", "gemm", "--dataflows", "KJ", "IJ",
                "--arrays", "2x2", "3x3", "--workers", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--output-dir", str(tmp_path / "out")]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert "4/4 designs ok (0 from cache)" in out
        assert len(list((tmp_path / "out").glob("*.v"))) == 4
        assert cli_main(argv) == 0
        assert "4/4 designs ok (4 from cache)" in capsys.readouterr().out

    def test_batch_output_dir_warm_equals_cold(self, tmp_path, capsys):
        """Every ``<stem>.json`` of an all-cached run reads its design
        back from the phase tier (or regenerates it when that record is
        gone) and equals the cold run's, and an uncached run's, byte
        for byte."""
        cache_dir = tmp_path / "cache"

        def run(out: str, *cache_args: str) -> dict:
            assert cli_main(["batch", "--kernel", "gemm", "--dataflows",
                             "KJ", "IJ", "--arrays", "2x2", "--backend",
                             "hls_c", "--workers", "2", "--output-dir",
                             str(tmp_path / out), *cache_args]) == 0
            return {p.name: p.read_bytes()
                    for p in (tmp_path / out).iterdir()}

        uncached = run("uncached", "--no-cache")
        capsys.readouterr()
        cold = run("cold", "--cache-dir", str(cache_dir))
        assert cold == uncached
        assert "2/2 designs ok (0 from cache)" in capsys.readouterr().out
        assert run("warm", "--cache-dir", str(cache_dir)) == cold
        assert "2/2 designs ok (2 from cache)" in capsys.readouterr().out
        cache = DesignCache(root=cache_dir)
        for key in cache.keys():
            if cache.peek(key).get("kind") == "phase-design-v1":
                cache.path_for(key).unlink()
        assert run("evicted", "--cache-dir", str(cache_dir)) == cold
        assert len([n for n in cold if n.endswith(".json")]) == 2

    def test_batch_spec_file(self, tmp_path, capsys):
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps([
            DesignRequest(array=(2, 2)).to_dict(),
            DesignRequest(kernel="mttkrp", dataflows=("IJ",),
                          array=(2, 2)).to_dict(),
        ]))
        rc = cli_main(["batch", "--spec-file", str(spec), "--no-cache"])
        assert rc == 0
        assert "2/2 designs ok" in capsys.readouterr().out

    def test_batch_reports_failure(self, tmp_path, capsys):
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps(
            [DesignRequest(dataflows=("XX",), array=(2, 2)).to_dict()]))
        rc = cli_main(["batch", "--spec-file", str(spec), "--no-cache"])
        assert rc == 1
        assert "failed" in capsys.readouterr().err

    def test_batch_rejects_zero_array(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["batch", "--arrays", "0x4", "--no-cache"])
        assert "positive" in capsys.readouterr().err

    def test_batch_rejects_bad_spec_values(self, tmp_path, capsys):
        spec = tmp_path / "batch.json"
        spec.write_text(json.dumps(
            [{"kernel": "fft", "dataflows": ["KJ"], "array": [2, 2]}]))
        rc = cli_main(["batch", "--spec-file", str(spec), "--no-cache"])
        assert rc == 2
        assert "invalid design request" in capsys.readouterr().err

    def test_cache_stats_list_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        cli_main(["generate", "--array", "2", "2",
                  "--cache-dir", cache_dir])
        capsys.readouterr()
        # two entries: the finished design plus the staged pipeline's
        # scheduled-design phase intermediate
        assert cli_main(["cache", "stats", "--dir", cache_dir]) == 0
        assert "entries    : 2" in capsys.readouterr().out
        assert cli_main(["cache", "list", "--dir", cache_dir]) == 0
        listing = capsys.readouterr().out
        assert "design  gemm-KJ @2x2" in listing
        assert "phase   design" in listing
        assert cli_main(["cache", "clear", "--dir", cache_dir]) == 0
        assert "removed 2" in capsys.readouterr().out

    def test_generate_cache_hit_note(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        argv = ["generate", "--array", "2", "2", "--cache-dir", cache_dir]
        cli_main(argv)
        capsys.readouterr()
        assert cli_main(argv) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_explore_flags(self, capsys):
        rc = cli_main(["explore", "--models", "LeNet", "--workers", "2",
                       "--area-budget", "20.0", "--no-cache"])
        assert rc == 0
        assert "Pareto frontier" in capsys.readouterr().out


class TestFacade:
    """The library entry point below the engine: one request, no
    engine, no cache."""

    def test_execute_request_direct(self):
        result = execute_request(DesignRequest(array=(2, 2)))
        assert result.ok and "LEGO design" in result.summary
