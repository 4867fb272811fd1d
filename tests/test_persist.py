"""Restart safety of the serving tier: the per-job journal, registry
recovery (``restore``) and shutdown sweeping (``sweep_shutdown``), plus
the end-to-end scenarios — SIGKILL a server mid-``/explore`` and reboot
on the same cache root (re-queued and replayed bit-for-bit, every row
stored before the kill a cache hit), kill it mid-``/batch`` (failed with
a clear explanation).  Also holds the
regression tests for the shutdown/accounting bugfix sweep: queued jobs
orphaned at shutdown, torn ``JobRegistry.counts()`` reads, and the
``ServiceClient.wait`` deadline overshoot."""

import json
import threading
import time

import pytest

from repro.service import (BatchEngine, DesignCache, JobJournal,
                           ServerThread, ServiceClient, ServiceError)
from repro.service.jobs import JobRegistry
from repro.service.persist import JOURNAL_FORMAT
from test_fleet_chaos import (EXPLORE, _boot, _free_port, _kill,
                              assert_replayed, explore_then_sigkill,
                              uninterrupted_exploration)

SMALL_SPACE = {
    "arrays": [[8, 8], [16, 16]],
    "buffer_kb": [128.0, 256.0],
    "dram_gbps": [16.0],
    "dataflow_sets": [["ICOC"], ["MN", "ICOC"]],
}


class TestJournal:
    def test_record_load_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path / "jobs")
        journal.record("explore-1-abc", {"id": "explore-1-abc",
                                         "status": "running"})
        assert journal.load("explore-1-abc") == {"id": "explore-1-abc",
                                                 "status": "running"}
        assert len(journal) == 1

    def test_last_writer_wins(self, tmp_path):
        journal = JobJournal(tmp_path)
        for status in ("queued", "running", "done"):
            journal.record("batch-1-f00", {"id": "batch-1-f00",
                                           "status": status})
        assert journal.load("batch-1-f00")["status"] == "done"
        assert len(journal) == 1

    def test_forget(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("explore-2-abc", {"id": "explore-2-abc"})
        journal.forget("explore-2-abc")
        assert journal.load("explore-2-abc") is None
        journal.forget("explore-2-abc")  # idempotent
        journal.forget("../../etc/passwd")  # unsafe ids swallowed too

    def test_unsafe_job_id_refused(self, tmp_path):
        journal = JobJournal(tmp_path)
        with pytest.raises(ValueError):
            journal.path_for("../evil")
        with pytest.raises(ValueError):
            journal.record("a/b", {"id": "a/b"})

    def test_corrupt_and_foreign_files_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.record("explore-1-aaa", {"id": "explore-1-aaa"})
        (tmp_path / "torn.json").write_text('{"format": "lego-job')
        (tmp_path / "foreign.json").write_text(json.dumps(
            {"format": "something-else", "job": {"id": "foreign"}}))
        # id mismatch between filename and payload is refused too
        (tmp_path / "explore-9-zzz.json").write_text(json.dumps(
            {"format": JOURNAL_FORMAT, "job": {"id": "other"}}))
        records = journal.load_all()
        assert [r["id"] for r in records] == ["explore-1-aaa"]

    def test_no_temp_file_droppings(self, tmp_path):
        journal = JobJournal(tmp_path)
        for i in range(20):
            journal.record("explore-1-aaa", {"id": "explore-1-aaa",
                                             "step": i})
        assert [p.name for p in tmp_path.glob("*.tmp")] == []


class TestRegistryRecovery:
    def _registry(self, tmp_path):
        return JobRegistry(journal=JobJournal(tmp_path / "jobs"))

    def test_settled_jobs_restore_verbatim(self, tmp_path):
        first = self._registry(tmp_path)
        job = first.create("explore", {"seed": 3})
        job.start()
        job.finish({"best": "x"})
        second = self._registry(tmp_path)
        stats = second.restore()
        assert stats == {"jobs": 1, "requeued": 0, "failed": 0}
        restored = second.get(job.id)
        assert restored.status == "done"
        assert restored.result == {"best": "x"}
        assert restored.recovered is False  # settled, not interrupted

    def test_interrupted_explore_restores_queued(self, tmp_path):
        first = self._registry(tmp_path)
        job = first.create("explore", {"seed": 3})
        job.start()
        # no clean shutdown: simulate the crash by just re-reading disk
        second = self._registry(tmp_path)
        stats = second.restore()
        assert stats["requeued"] == 1
        restored = second.get(job.id)
        assert restored.status == "queued" and not restored.settled()
        assert restored.recovered is True
        assert restored.params == {"seed": 3}  # the request it replays
        assert second.queued() == [restored]

    def test_interrupted_batch_restores_failed(self, tmp_path):
        first = self._registry(tmp_path)
        job = first.create("batch", {"requests": 3})
        job.start()
        second = self._registry(tmp_path)
        stats = second.restore()
        assert stats["failed"] == 1
        restored = second.get(job.id)
        assert restored.status == "failed"
        assert restored.recovered is True
        assert "resubmit" in restored.error

    def test_id_sequence_continues_after_restore(self, tmp_path):
        first = self._registry(tmp_path)
        ids = {first.create("batch", {}).id for _ in range(3)}
        second = self._registry(tmp_path)
        second.restore()
        new = second.create("batch", {}).id
        assert new not in ids
        assert int(new.split("-")[-2]) > 3 - 1

    def test_restore_without_journal_is_noop(self):
        registry = JobRegistry()
        assert registry.restore() == {"jobs": 0, "requeued": 0,
                                      "failed": 0}


class TestShutdownSweep:
    """Regression: ``stop()`` used to cancel queued futures and leave
    their jobs "queued" forever — a client polling such a job would hang
    until its timeout.  Shutdown now fails unfinished batches; an
    unfinished exploration stays journaled live for the next boot to
    replay from the rows it cached."""

    def test_sweep_parks_queued_jobs(self, tmp_path):
        registry = JobRegistry(journal=JobJournal(tmp_path))
        explore = registry.create("explore", {})
        batch = registry.create("batch", {})
        running = registry.create("explore", {})
        running.start()
        assert registry.sweep_shutdown() == 1
        assert batch.status == "failed" and batch.settled()
        assert "resubmit" in batch.error
        assert explore.status == "queued"  # parked in the journal
        assert running.status == "running"  # live work is not swept
        reloaded = JobRegistry(journal=JobJournal(tmp_path))
        assert reloaded.restore()["requeued"] == 2
        assert {j.id for j in reloaded.queued()} == {explore.id,
                                                     running.id}

    def test_server_stop_settles_queued_jobs(self, tmp_path):
        """End to end: one pool worker, a long exploration running on
        it, and a batch and an exploration queued behind it.  stop()
        lets the task in the worker finish and drops the rest: the
        batch fails with an explanation, both explorations stay live
        (the running one running, the queued one queued), and the next
        boot replays both."""
        root = tmp_path / "cache"
        handle = ServerThread(BatchEngine(cache=DesignCache(root=root),
                                          workers=1)).start()
        server = handle.server
        try:
            with ServiceClient.from_url(handle.url) as c:
                blocker = c.explore(**EXPLORE)
                batch = c.batch([{"kernel": "gemm", "array": [2, 2]}])
                queued = c.explore(models=["LeNet"], space=SMALL_SPACE)
        finally:
            handle.stop()
        assert server.jobs.get(batch).status == "failed"
        assert "resubmit" in server.jobs.get(batch).error
        assert server.jobs.get(blocker).status == "running"
        assert server.jobs.get(queued).status == "queued"
        with ServerThread(BatchEngine(cache=DesignCache(root=root))) as url:
            with ServiceClient.from_url(url) as c:
                finals = [c.wait(job, timeout=180)
                          for job in (blocker, queued)]
        assert all(final["status"] == "done" and final["recovered"]
                   for final in finals)


class TestCountsLocking:
    """Regression: ``counts()`` read ``job.status`` without the job's
    lock — a torn read could see a transition half-applied.  It now
    snapshots each status under that job's own lock."""

    def test_counts_waits_for_in_flight_transition(self):
        registry = JobRegistry()
        job = registry.create("explore", {})
        job._lock.acquire()  # a transition is mid-flight
        result = {}

        def read():
            result["counts"] = registry.counts()

        reader = threading.Thread(target=read)
        reader.start()
        reader.join(timeout=0.3)
        assert reader.is_alive(), \
            "counts() read a status without taking the job lock"
        job._lock.release()
        reader.join(timeout=5)
        assert result["counts"]["queued"] == 1

    def test_counts_totals_consistent_under_churn(self):
        registry = JobRegistry(max_jobs=64)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                job = registry.create("explore", {})
                job.start()
                job.finish({})

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            for _ in range(200):
                counts = registry.counts()
                assert all(v >= 0 for v in counts.values())
        finally:
            stop.set()
            worker.join()


class TestWaitDeadline:
    """Regression: the final poll sleep ignored the remaining budget,
    overshooting ``timeout=1.0, poll_s=0.5`` to ~1.5s."""

    def test_wait_timeout_not_overshot(self, monkeypatch):
        client = ServiceClient(port=1)  # never actually connected
        monkeypatch.setattr(
            ServiceClient, "job",
            lambda self, job_id: {"status": "running"})
        begun = time.monotonic()
        with pytest.raises(TimeoutError):
            client.wait("explore-1-abc", timeout=1.0, poll_s=0.5)
        elapsed = time.monotonic() - begun
        assert elapsed < 1.45, f"wait overshot its deadline: {elapsed:.2f}s"


class TestServerRestartRecovery:
    """The issue's headline scenario: kill the server process, reboot
    on the same cache root, and the job table comes back."""

    def _boot(self, root, **kwargs):
        return ServerThread(
            BatchEngine(cache=DesignCache(root=root)), **kwargs).start()

    def test_explore_killed_midway_resumes_bit_for_bit(self, tmp_path):
        """SIGKILL ``repro serve`` once a row is on disk: the journal
        holds the request, the next boot on the root re-queues it, and
        the replay finishes with no client action — bit-for-bit, with
        every row stored before the kill a cache hit."""
        root = tmp_path / "cache"
        reference = uninterrupted_exploration()
        job_id, stored = explore_then_sigkill(root, _free_port())
        record = JobJournal(root / "jobs").load(job_id)
        assert record["status"] in ("queued", "running")
        assert record["params"]["models"] == EXPLORE["models"]
        port = _free_port()
        proc = _boot(root, port)
        try:
            with ServiceClient(port=port, timeout=60) as c:
                assert c.health()["recovered"] == {"jobs": 1,
                                                   "requeued": 1,
                                                   "failed": 0}
                assert_replayed(c, job_id, stored, reference)
        finally:
            _kill(proc)

    def test_batch_killed_midway_fails_with_explanation(self, tmp_path):
        root = tmp_path / "cache"
        first = self._boot(root)
        try:
            with ServiceClient.from_url(first.url) as c:
                # keep the single pool worker busy so the batch is still
                # live — "mid-flight" in its journaled state
                c.explore(models=["LeNet"], strategy="anneal",
                          max_evals=200, seed=1, space=SMALL_SPACE)
                job_id = c.batch([{"kernel": "gemm", "array": [2, 2]}])
            # simulate a hard kill: bypass stop()'s sweep so the journal
            # still says "queued", exactly as after SIGKILL
            first.server.jobs._journal = None
            for job in first.server.jobs._jobs.values():
                job._journal = None
        finally:
            first.stop()

        second = self._boot(root)
        try:
            assert second.server.recovered["failed"] >= 1
            with ServiceClient.from_url(second.url) as c:
                state = c.job(job_id)
                assert state["status"] == "failed"
                assert state["recovered"] is True
                assert "resubmit" in state["error"]
                # cache-backed work is not lost: the same spec is warm
                # (or freshly computable) on the rebooted server
                result = c.generate(kernel="gemm", array=[2, 2])
                assert result["ok"]
        finally:
            second.stop()

    def test_no_persist_opt_out(self, tmp_path):
        root = tmp_path / "cache"
        first = ServerThread(
            BatchEngine(cache=DesignCache(root=root)),
            persist_jobs=False).start()
        try:
            with ServiceClient.from_url(first.url) as c:
                job_id = c.explore(models=["LeNet"],
                                   strategy="exhaustive",
                                   space=SMALL_SPACE)
                c.wait(job_id, timeout=180)
        finally:
            first.stop()
        assert not (root / "jobs").exists()
        second = self._boot(root)
        try:
            with ServiceClient.from_url(second.url) as c:
                with pytest.raises(ServiceError) as err:
                    c.job(job_id)
                assert err.value.status == 404
        finally:
            second.stop()
