"""The serving job table: long-running work the HTTP front end tracks.

A :class:`Job` is one `/batch` or `/explore` request living across many
HTTP round-trips: submitted, polled via ``GET /jobs/<id>``, optionally
paused and resumed (explorations), and eventually carrying its result
or the full traceback of its failure.  The :class:`JobRegistry` is the
thread-safe table the asyncio server and its executor threads share;
nothing in here knows about HTTP.

Two serving-tier facilities hang off the job table:

* **Persistence** — give the registry a journal (see
  :class:`repro.service.persist.JobJournal`) and every transition is
  recorded to disk; :meth:`JobRegistry.restore` reloads the table at
  boot and applies the recovery matrix (interrupted explorations park
  as ``paused`` with their last journaled checkpoint, interrupted
  batches fail with an error explaining the restart).
* **Events** — job bodies :meth:`Job.emit` per-result / per-checkpoint
  events into a bounded buffer that the ``/jobs/<id>/stream`` endpoint
  drains with a cursor, so clients can stream results as they finish
  instead of polling.
"""

from __future__ import annotations

import itertools
import secrets
import threading
import time

__all__ = ["Job", "JobRegistry", "JOB_STATUSES", "RegistryFull"]

#: bound of a job's event buffer; past it, events are dropped (the
#: terminal "end" event is synthesized by the stream, never buffered,
#: so a stream always terminates; ``events_dropped`` records the loss)
MAX_JOB_EVENTS = 10_000

JOB_STATUSES = ("queued", "running", "pausing", "paused", "done", "failed")

#: statuses that still hold (or may again hold) an executor thread
LIVE_STATUSES = ("queued", "running", "pausing", "paused")


class RegistryFull(RuntimeError):
    """Backpressure signal: too many live jobs; try again later."""


class Job:
    """One unit of tracked background work."""

    def __init__(self, job_id: str, kind: str, params: dict):
        self.id = job_id
        self.kind = kind
        self.params = params
        self.status = "queued"
        self.created_s = time.time()
        self.started_s: float | None = None
        self.finished_s: float | None = None
        self.progress: dict = {}
        self.result: dict | None = None
        self.error: str | None = None
        self.traceback: str | None = None
        #: serialized SearchCheckpoint of an exploration job — updated
        #: after every step, so a poll always sees a resumable snapshot
        #: even if the server dies mid-search.
        self.checkpoint: dict | None = None
        #: request-scoped trace id minted at submission; every span the
        #: job body produces (pool workers included) carries it, so an
        #: exported Chrome trace can be filtered down to this job.
        self.trace_id: str | None = None
        #: span id of the submitting hop (the router's proxy span or a
        #: traced client's span): the job body re-binds it so its spans
        #: parent correctly in the cross-process trace tree.  Not
        #: journaled — a recovered job's submitter is long gone.
        self.trace_parent: str | None = None
        #: the batch planner's dry-run summary (``BatchPlan.to_dict()``)
        #: for a `/batch` job — recorded before execution starts, so a
        #: poller can see how much schedule work the batch will pay.
        self.plan: dict | None = None
        #: True when a server's end, not its submitter, parked or failed
        #: this job: the recovery matrix transitioned it after a
        #: restart, or a clean stop parked it (:meth:`mark_paused`).
        self.recovered = False
        self._lock = threading.RLock()
        self._pause = threading.Event()
        self._finished = threading.Event()
        self._events: list[dict] = []
        self.events_dropped = 0
        self._journal = None  # set by JobRegistry.create / restore

    # -- state transitions (called from executor threads) ------------------

    def start(self) -> None:
        with self._lock:
            self.status = "running"
            self.started_s = time.time()
        self._persist()

    def update_progress(self, **fields) -> None:
        """Merge progress fields under the job lock (worker threads
        update while pollers copy — unlocked mutation would race the
        ``dict(self.progress)`` snapshots)."""
        with self._lock:
            self.progress.update(fields)

    def set_checkpoint(self, checkpoint: dict | None) -> None:
        """Record the latest resumable exploration snapshot — and
        journal it, so a killed server re-parks the search exactly one
        step behind where it died."""
        with self._lock:
            self.checkpoint = checkpoint
        self._persist()

    def finish(self, result: dict) -> None:
        with self._lock:
            self.result = result
            self.status = "done"
            self.finished_s = time.time()
        self._finished.set()
        self._persist()

    def fail(self, error: str, tb: str | None = None) -> None:
        with self._lock:
            self.error = error
            self.traceback = tb
            self.status = "failed"
            self.finished_s = time.time()
        self._finished.set()
        self._persist()

    def pause(self) -> bool:
        """Ask a running exploration to stop after its current step."""
        with self._lock:
            if self.status not in ("queued", "running", "pausing"):
                return False
            self._pause.set()
            if self.status == "running":
                self.status = "pausing"
        self._persist()
        return True

    def mark_paused(self) -> None:
        """Park the job.  Parked without a pause request, a clean
        server stop did it, so it counts as recovered — as if the
        server had died with it live."""
        with self._lock:
            self.status = "paused"
            self.recovered = self.recovered or not self._pause.is_set()
        self._finished.set()
        self._persist()

    def resume(self) -> bool:
        """Clear the pause flag; the server re-dispatches the work."""
        with self._lock:
            if self.status != "paused":
                return False
            self._pause.clear()
            self._finished.clear()
            self.status = "running"
        self._persist()
        return True

    @property
    def pause_requested(self) -> bool:
        return self._pause.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches done/failed/paused."""
        return self._finished.wait(timeout)

    def settled(self) -> bool:
        """True once the job sits in done/failed/paused (no executor
        thread will emit further events until a resume)."""
        return self._finished.is_set()

    # -- recovery transitions (applied by JobRegistry.restore) -------------

    def recover_paused(self) -> None:
        """Park an exploration interrupted by a crash/restart: it holds
        no executor thread, but its journaled checkpoint makes it
        resumable through the ordinary ``POST /jobs/<id>/resume``."""
        with self._lock:
            self.status = "paused"
            self.recovered = True
        self._finished.set()
        self._persist()

    def recover_failed(self, error: str) -> None:
        with self._lock:
            self.error = error
            self.status = "failed"
            self.finished_s = time.time()
            self.recovered = True
        self._finished.set()
        self._persist()

    # -- event stream ------------------------------------------------------

    def emit(self, event: dict) -> None:
        """Append one stream event (a JSON-safe dict).  Past the buffer
        bound, events are dropped newest-first so existing cursors stay
        valid; drops are counted, never silent."""
        with self._lock:
            if len(self._events) >= MAX_JOB_EVENTS:
                self.events_dropped += 1
                return
            self._events.append(event)

    def events_since(self, cursor: int) -> tuple[list[dict], int]:
        """Events appended at or after *cursor*, plus the new cursor."""
        with self._lock:
            fresh = self._events[cursor:]
            return fresh, cursor + len(fresh)

    # -- journal -----------------------------------------------------------

    def _persist(self) -> None:
        """Best-effort journal write of the current state.  Runs under
        the job lock so concurrent transitions serialize their records
        (atomic replace makes each write all-or-nothing); a full disk
        must degrade persistence, never serving."""
        journal = self._journal
        if journal is None:
            return
        with self._lock:
            data = self.to_dict(include_checkpoint=True)
            data["params"] = self.params
            data["recovered"] = self.recovered
            try:
                journal.record(self.id, data)
            except OSError:
                pass

    @classmethod
    def from_journal(cls, data: dict, journal=None) -> "Job":
        """Rebuild a job verbatim from its journal record (recovery
        policy is the registry's concern, not this constructor's)."""
        job = cls(data["id"], data.get("kind", "batch"),
                  data.get("params") or {})
        job.status = data.get("status", "queued")
        job.created_s = data.get("created_s", job.created_s)
        job.started_s = data.get("started_s")
        job.finished_s = data.get("finished_s")
        job.progress = dict(data.get("progress") or {})
        job.result = data.get("result")
        job.error = data.get("error")
        job.traceback = data.get("traceback")
        job.checkpoint = data.get("checkpoint")
        job.trace_id = data.get("trace_id")
        job.plan = data.get("plan")
        job.recovered = bool(data.get("recovered"))
        job._journal = journal
        if job.status in ("done", "failed", "paused"):
            job._finished.set()
        return job

    # -- views -------------------------------------------------------------

    def summary(self) -> dict:
        with self._lock:
            return {"id": self.id, "kind": self.kind,
                    "status": self.status,
                    "created_s": self.created_s,
                    "trace_id": self.trace_id,
                    "plan": self.plan,
                    "recovered": self.recovered,
                    "progress": dict(self.progress)}

    def to_dict(self, include_checkpoint: bool = True) -> dict:
        with self._lock:
            out = {"id": self.id, "kind": self.kind, "status": self.status,
                   "created_s": self.created_s,
                   "trace_id": self.trace_id,
                   "plan": self.plan,
                   "recovered": self.recovered,
                   "started_s": self.started_s,
                   "finished_s": self.finished_s,
                   "progress": dict(self.progress),
                   "result": self.result,
                   "error": self.error,
                   "traceback": self.traceback}
            if include_checkpoint:
                out["checkpoint"] = self.checkpoint
            return out


class JobRegistry:
    """Thread-safe id → :class:`Job` table.

    *journal* (optional) is a :class:`~repro.service.persist.JobJournal`:
    every job created here records its transitions through it, evicted
    jobs are forgotten from it, and :meth:`restore` reloads it at boot.
    """

    def __init__(self, max_jobs: int = 1024, journal=None):
        self.max_jobs = max_jobs
        self.journal = journal
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._seq = itertools.count(1)

    def create(self, kind: str, params: dict) -> Job:
        job_id = f"{kind}-{next(self._seq)}-{secrets.token_hex(3)}"
        job = Job(job_id, kind, params)
        job._journal = self.journal
        evicted: list[str] = []
        with self._lock:
            live = sum(1 for j in self._jobs.values()
                       if j.status in LIVE_STATUSES)
            if live >= self.max_jobs:
                # Backpressure instead of unbounded growth: live jobs
                # are never discarded, so refuse new ones.
                raise RegistryFull(
                    f"{live} live jobs (limit {self.max_jobs}); retry "
                    "when current jobs finish, or pause/resume less")
            self._jobs[job_id] = job
            # Drop the oldest *finished* jobs once over the bound; live
            # jobs are never discarded.
            if len(self._jobs) > self.max_jobs:
                for jid, old in list(self._jobs.items()):
                    if len(self._jobs) <= self.max_jobs:
                        break
                    if old.status in ("done", "failed"):
                        del self._jobs[jid]
                        evicted.append(jid)
        job._persist()
        if self.journal is not None:
            for jid in evicted:
                self.journal.forget(jid)
        return job

    def get(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list(self) -> list[dict]:
        with self._lock:
            jobs = list(self._jobs.values())
        return [job.summary() for job in jobs]

    def counts(self) -> dict:
        with self._lock:
            jobs = list(self._jobs.values())
        counts = {status: 0 for status in JOB_STATUSES}
        for job in jobs:
            # Snapshot each status under its own job lock (like
            # summary() does): executor threads transition concurrently
            # and the gauge must never observe a mid-transition read.
            with job._lock:
                status = job.status
            counts[status] = counts.get(status, 0) + 1
        return counts

    # -- restart recovery --------------------------------------------------

    def restore(self) -> dict:
        """Reload the journal at boot and apply the recovery matrix:

        ========== ============================ =======================
        journaled  meaning after a dead server  restored as
        ========== ============================ =======================
        queued /   the executor thread died     explore → ``paused``
        running /  with the process             (resumable from its
        pausing                                 checkpoint); batch →
                                                ``failed`` with a
                                                recovery error
        paused     parked, holds no thread      as-is (resumable)
        done /     terminal                     as-is
        failed
        ========== ============================ =======================

        Returns ``{"jobs": n, "resumable": n, "failed": n}``.
        """
        summary = {"jobs": 0, "resumable": 0, "failed": 0}
        if self.journal is None:
            return summary
        records = sorted(self.journal.load_all(),
                         key=lambda d: d.get("created_s") or 0.0)
        max_seq = 0
        for data in records:
            job = Job.from_journal(data, journal=self.journal)
            if job.status in ("queued", "running", "pausing"):
                if job.kind == "explore":
                    job.recover_paused()
                    summary["resumable"] += 1
                else:
                    job.recover_failed(
                        "server restarted while this batch job was "
                        f"{job.status}; batch jobs hold no checkpoint, "
                        "so the work cannot be resumed — resubmit the "
                        "batch (finished designs are in the cache and "
                        "will be served warm)")
                    summary["failed"] += 1
            with self._lock:
                self._jobs[job.id] = job
            summary["jobs"] += 1
            max_seq = max(max_seq, _id_sequence(job.id))
        if max_seq:
            with self._lock:
                # Continue numbering past the restored jobs so fresh
                # ids never collide with journaled ones.
                self._seq = itertools.count(max_seq + 1)
        return summary

    def sweep_shutdown(self) -> dict:
        """Transition jobs whose queued executor slot was cancelled by
        a server shutdown (``cancel_futures=True``): without this they
        would sit ``queued`` forever and every ``wait()`` on them would
        hang to its timeout.  Explorations park as ``paused`` (a resume
        — possibly after a restart, via the journal — re-runs them);
        batches fail with an explanation.  Running jobs are left alone:
        their bodies observe the closing flag themselves."""
        with self._lock:
            jobs = list(self._jobs.values())
        swept = {"paused": 0, "failed": 0}
        for job in jobs:
            with job._lock:
                status = job.status
            if status != "queued":
                continue
            if job.kind == "explore":
                job.mark_paused()
                swept["paused"] += 1
            else:
                job.fail("server shut down before this batch job "
                         "started; resubmit it")
                swept["failed"] += 1
        return swept


def _id_sequence(job_id: str) -> int:
    """The monotonic sequence number embedded in ``<kind>-<n>-<hex>``
    job ids (0 when the id doesn't carry one)."""
    parts = job_id.split("-")
    if len(parts) < 3:
        return 0
    try:
        return int(parts[-2])
    except ValueError:
        return 0
