"""Staged compilation with content-addressed intermediate caching.

The cold path of ``execute_request`` is split into hashed phases
(dataflows→ADG, ADG→scheduled design, design→golden vectors,
design→artifacts); these tests pin down the phase-key algebra, the
cross-backend reuse of the scheduled design and simulation vectors, and
— most importantly — that a staged run produces **byte-identical**
``DesignResult`` records to a fully uncached run (timing fields aside,
which are the only nondeterministic part of a record).
"""

import dataclasses

import pytest

from repro.backend import BackendOptions
from repro.serialize import canonical_dumps
from repro.service import BatchEngine, DesignCache
from repro.service.spec import DesignRequest, execute_request

TINY = dict(kernel="gemm", dataflows=("KJ",), array=(2, 2))


def record_identity(result) -> str:
    """Canonical bytes of a result's record plus its design (which the
    record names rather than carries), minus the timing fields."""
    out = {k: v for k, v in result.to_record().items()
           if k not in ("elapsed_s", "phases")}
    return canonical_dumps(dict(out, design=result.design))


@pytest.fixture()
def engine(tmp_path):
    return BatchEngine(cache=DesignCache(root=tmp_path / "cache"))


class TestPhaseKeys:
    def test_design_key_ignores_backend_and_module(self):
        base = DesignRequest(**TINY)
        assert base.design_key() == \
            DesignRequest(backend="hls_c", **TINY).design_key()
        assert base.design_key() == \
            DesignRequest(module="other", **TINY).design_key()

    def test_design_key_tracks_scheduling_inputs(self):
        base = DesignRequest(**TINY)
        assert base.design_key() != \
            DesignRequest(**dict(TINY, array=(4, 4))).design_key()
        assert base.design_key() != DesignRequest(
            options=BackendOptions.baseline(), **TINY).design_key()

    def test_adg_key_ignores_backend_pass_options(self):
        base = DesignRequest(**TINY)
        tuned = DesignRequest(options=BackendOptions.baseline(), **TINY)
        assert base.adg_key() == tuned.adg_key()
        assert base.design_key() != tuned.design_key()

    def test_emit_testbench_is_emission_only(self):
        base = DesignRequest(backend="hls_c", **TINY)
        lean = DesignRequest(
            backend="hls_c",
            options=BackendOptions(emit_testbench=False), **TINY)
        # different artifacts -> different spec hash, same design phase
        assert base.spec_hash() != lean.spec_hash()
        assert base.design_key() == lean.design_key()

    def test_sim_key_tracks_dataflow(self):
        request = DesignRequest(**TINY)
        assert request.sim_key("GEMM-KJ") != request.sim_key("GEMM-IJ")
        assert request.sim_key("GEMM-KJ") == \
            DesignRequest(backend="hls_c", **TINY).sim_key("GEMM-KJ")


class TestHashOnce:
    """Each key is hashed once per frozen request: the memo is invisible
    to equality, fresh after ``dataclasses.replace``, carried by pickle,
    and costs a one-shot request nothing it would not compute anyway."""

    KEYS = ("spec_hash", "design_key", "adg_key")

    @pytest.fixture()
    def dumps_calls(self, monkeypatch):
        import repro.service.spec as spec_mod

        calls = []
        real = spec_mod.canonical_dumps

        def counting(obj):
            calls.append(obj)
            return real(obj)

        monkeypatch.setattr(spec_mod, "canonical_dumps", counting)
        return calls

    def test_second_call_serializes_nothing(self, dumps_calls):
        request = DesignRequest(**TINY)
        first = [getattr(request, key)() for key in self.KEYS]
        assert len(dumps_calls) == 3
        assert [getattr(request, key)() for key in self.KEYS] == first
        request.sim_key("GEMM-KJ")  # reads the memoized design_key
        assert len(dumps_calls) == 4

    def test_replace_hashes_afresh(self, dumps_calls):
        request = DesignRequest(**TINY)
        request.spec_hash()
        request.design_key()
        other = dataclasses.replace(request, backend="hls_c")
        assert other.spec_hash() != request.spec_hash()
        assert other.spec_hash() == \
            DesignRequest(backend="hls_c", **TINY).spec_hash()
        dumps_calls.clear()
        assert other.design_key() == request.design_key()
        assert len(dumps_calls) == 1  # computed for `other`, not copied

    def test_equality_and_hash_ignore_the_memo(self, dumps_calls):
        import pickle

        hashed = DesignRequest(**TINY)
        hashed.spec_hash()
        fresh = DesignRequest(**TINY)
        assert hashed == fresh and hash(hashed) == hash(fresh)
        clone = pickle.loads(pickle.dumps(hashed))
        assert clone == hashed == fresh
        dumps_calls.clear()
        assert clone.spec_hash() == fresh.spec_hash()
        assert len(dumps_calls) == 1  # the clone's memo came along

    def test_one_shot_request_allocates_no_memo(self):
        """The server builds one request per ``/generate`` body: the
        memo is one ``__dict__`` entry per key actually asked for — no
        container up front, no per-call lambda or closure."""
        import types

        request = DesignRequest(**TINY)
        fields = {f.name for f in dataclasses.fields(DesignRequest)}
        assert set(vars(request)) == fields
        request.spec_hash()
        assert set(vars(request)) - fields == {"_spec"}
        for name in ("_digest", *self.KEYS):
            code = getattr(DesignRequest, name).__code__
            assert not any(isinstance(const, types.CodeType)
                           for const in code.co_consts), name


class TestStagedReuse:
    def test_second_backend_reuses_scheduled_design(self, engine):
        cache = engine.cache
        first = engine.submit(DesignRequest(**TINY))
        assert first.ok and not first.from_cache
        assert "schedule" in first.phases and "adg" in first.phases
        before = cache.stats.as_dict()
        second = engine.submit(DesignRequest(backend="hls_c", **TINY))
        assert second.ok and not second.from_cache
        # the scheduled design came from the intermediate cache: no
        # front-end or pass phase ran again
        assert "schedule" not in second.phases
        assert "adg" not in second.phases
        after = cache.stats.as_dict()
        assert (after["phase_hits"] + after["live_hits"]
                > before["phase_hits"] + before["live_hits"])

    def test_disk_phase_record_survives_processes(self, engine):
        """A fresh cache object on the same root (a new process, a pool
        worker) loads the scheduled design from disk."""
        engine.submit(DesignRequest(**TINY))
        sibling = BatchEngine(cache=DesignCache(root=engine.cache.root))
        result = sibling.submit(DesignRequest(backend="hls_c", **TINY))
        assert result.ok and not result.from_cache
        assert "design_load" in result.phases
        assert "schedule" not in result.phases
        assert sibling.cache.stats.phase_hits >= 1

    def test_staged_record_byte_identical_to_uncached(self, engine):
        request = DesignRequest(backend="hls_c", **TINY)
        uncached = execute_request(request)  # no cache at all
        engine.submit(DesignRequest(**TINY))  # primes the design phase
        staged = engine.submit(request)
        assert staged.ok and not staged.from_cache
        assert record_identity(staged) == record_identity(uncached)

    def test_warm_hit_byte_identical(self, engine):
        request = DesignRequest(**TINY)
        cold = engine.submit(request)
        warm = engine.submit(request)
        assert warm.from_cache
        assert record_identity(warm) == record_identity(cold)

    def test_module_variant_reuses_golden_vectors(self, engine):
        engine.submit(DesignRequest(backend="hls_c", **TINY))
        sim_hits = engine.cache.stats.phase_hits
        other = engine.submit(DesignRequest(backend="hls_c",
                                            module="variant", **TINY))
        assert other.ok and not other.from_cache
        assert set(other.artifacts) == {"variant.c", "variant_tb.c"}
        assert engine.cache.stats.phase_hits > sim_hits

    def test_parallel_workers_share_phase_records(self, engine):
        """Pool workers rebuild the cache from its spec and hit the
        same on-disk phase records."""
        engine.submit(DesignRequest(**TINY))  # prime the design phase
        results = engine.generate_many(
            [DesignRequest(backend="hls_c", **TINY),
             DesignRequest(backend="hls_c", module="m2", **TINY)],
            workers=2)
        assert all(r.ok for r in results)
        assert all("schedule" not in r.phases for r in results)


class TestTestbenchOnDemand:
    def test_lean_emit_skips_testbench(self, engine):
        lean = engine.submit(DesignRequest(
            backend="hls_c",
            options=BackendOptions(emit_testbench=False), **TINY))
        assert lean.ok
        assert set(lean.artifacts) == {"lego_top.c"}
        full = engine.submit(DesignRequest(backend="hls_c", **TINY))
        assert set(full.artifacts) == {"lego_top.c", "lego_top_tb.c"}
        # the kernel translation unit is identical either way
        assert lean.artifacts["lego_top.c"] == \
            full.artifacts["lego_top.c"]

    def test_cli_no_testbench_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "lean.c"
        code = main(["generate", "--kernel", "gemm", "--dataflows", "KJ",
                     "--array", "2", "2", "--backend", "hls_c",
                     "--no-testbench", "--no-cache", "-o", str(out)])
        assert code == 0
        assert out.is_file()
        assert not (tmp_path / "lean_tb.c").exists()


class TestJobExecutor:
    """How ``repro serve`` executes work: every compile and job body in
    one process pool driven by the event loop — no job threads, no
    default-executor threads — and no job monopolising that pool."""

    def test_pool_sized_with_workers(self, tmp_path):
        from repro.service import ServiceClient
        from repro.service.server import ServerThread

        thread = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "c"), workers=2))
        assert thread.server._pool is None  # forked on first use
        with thread as url, ServiceClient.from_url(url) as client:
            assert client.generate(**TINY)["ok"]
            pool = thread.server._pool
            assert pool._max_workers == 2
            assert len(pool._processes) == 2
            processes = list(pool._processes.values())
        assert not any(p.is_alive() for p in processes)  # stop() joined

    def test_one_loop_thread_under_mixed_load(self, tmp_path):
        """A cold /generate, a /batch and an /explore at once: no
        ``repro-job`` or default-executor (``asyncio_*``) thread ever
        appears — the loop sends all of it to the pool."""
        import threading

        from repro.service import ServiceClient
        from repro.service.server import ServerThread

        space = {"arrays": [[8, 8], [16, 16]], "buffer_kb": [128.0],
                 "dram_gbps": [16.0], "dataflow_sets": [["ICOC"]]}

        def work(url, kind):
            with ServiceClient.from_url(url) as client:
                if kind == "generate":
                    return client.generate(**dict(TINY, array=[3, 3]))
                if kind == "batch":
                    job = client.batch([dict(TINY, array=[2, a])
                                        for a in (2, 3, 4)])
                else:
                    job = client.explore(models=["LeNet"], space=space)
                return client.wait(job, timeout=120)

        def forbidden():
            return [t.name for t in threading.enumerate()
                    if t.name.startswith(("repro-job", "asyncio_"))]

        seen = []
        thread = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "c"), workers=2))
        with thread as url:
            # Fork the pool before the mixed load: if the executor path
            # came back, a fork while its thread is mid-compile can copy
            # a lock that thread holds into the worker, and this test
            # must fail on the thread, not hang in that worker.
            with ServiceClient.from_url(url) as client:
                client.wait(client.batch([TINY]), timeout=120)
            out = {}
            clients = [threading.Thread(
                target=lambda k=kind: out.__setitem__(k, work(url, k)))
                for kind in ("generate", "batch", "explore")]
            for client in clients:
                client.start()
            while any(c.is_alive() for c in clients):
                seen += forbidden()
                clients[0].join(0.01)
            for client in clients:
                client.join()
            seen += forbidden()
        assert out["generate"]["ok"]
        assert out["batch"]["status"] == "done"
        assert out["batch"]["result"]["ok"] == 3
        assert out["explore"]["status"] == "done"
        assert not seen, f"threads outside the loop: {sorted(set(seen))}"

    def test_generate_not_starved_by_saturated_job_pool(self, tmp_path):
        """One pool worker, two queued batches of four design groups
        each: a cold /generate sent after them returns while a batch is
        still running, because a job keeps at most ``workers`` groups
        in the pool and the /generate queues only behind those."""
        from repro.service import ServiceClient
        from repro.service.server import ServerThread

        arrays = ([2, 2], [2, 3], [3, 2], [3, 3])
        thread = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "c"), workers=1))
        with thread as url, ServiceClient.from_url(url) as client:
            jobs = [client.batch([dict(TINY, dataflows=[df], array=a)
                                  for a in arrays])
                    for df in ("KJ", "IJ")]
            result = client.generate(**dict(TINY, dataflows=["IK"]))
            statuses = [client.job(job)["status"] for job in jobs]
            for job in jobs:
                assert client.wait(job, timeout=120)["status"] == "done"
        assert result["ok"] and not result["from_cache"]
        assert statuses != ["done", "done"], \
            "the /generate waited for both batches' whole backlog"

    def test_generate_not_starved_by_exploration(self, tmp_path):
        """One pool worker and a long exploration (six pool tasks of
        eight rows of every zoo model): a cold /generate sent after it
        returns while the search is still running, because the search
        sends its rows to the pool a few at a time."""
        from repro.models import zoo
        from repro.service import ServiceClient
        from repro.service.server import ServerThread

        thread = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "c"), workers=1))
        with thread as url, ServiceClient.from_url(url) as client:
            job = client.explore(models=sorted(zoo.MODEL_BUILDERS))
            result = client.generate(**TINY)
            status = client.job(job)["status"]
            assert client.wait(job, timeout=120)["status"] == "done"
        assert result["ok"] and not result["from_cache"]
        assert status == "running", \
            "the /generate waited for the whole exploration"

    def test_explore_fans_rows_over_the_pool(self, tmp_path):
        """On a two-worker server an exhaustive search's 48 rows go to
        the pool as six tasks of eight, two at a time, and the result
        is the in-process search's, bit for bit."""
        from repro.dse import DesignSpace, run_search
        from repro.models import zoo
        from repro.service import ServiceClient
        from repro.service.server import ServerThread

        thread = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "c"), workers=2))
        server, in_pool = thread.server, thread.server._in_pool
        tasks, in_flight, peak = [], [0], [0]

        async def counting(fn, *args, **kwargs):
            tasks.append(len(args[1]))
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
            try:
                return await in_pool(fn, *args, **kwargs)
            finally:
                in_flight[0] -= 1

        server._in_pool = counting
        with thread as url, ServiceClient.from_url(url) as client:
            final = client.wait(client.explore(models=["ResNet50"]),
                                timeout=120)
        reference = run_search([zoo.resnet50()], DesignSpace()).to_json()
        assert final["result"] == reference
        assert tasks == [8] * 6
        assert peak == [2]
