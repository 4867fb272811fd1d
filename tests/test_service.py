"""Tests for the design service: canonical specs, the content-addressed
cache, the parallel batch engine, and the CLI integration."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import main as cli_main
from repro.dse.explorer import DesignSpace
from repro.dse.strategies import run_search
from repro.models import zoo
from repro.service import (BatchEngine, DesignCache, DesignRequest,
                           execute_request, requests_from_space)
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
