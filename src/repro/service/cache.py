"""Content-addressed design cache: spec-hash → finished design.

Two tiers.  An in-memory LRU (dict of parsed records, bounded by
``memory_entries``) absorbs the hot loop of a DSE run; an on-disk store
(``<root>/<hh>/<hash>.json``, bounded by ``disk_entries``, evicted
oldest-access-first) persists across processes so a warm service start
never regenerates a design it has seen before.  Corrupted entries are
deleted and counted, never raised: the cache must always be allowed to
fall back to regeneration.

Concurrency: every write is atomic (temp file + ``os.replace``), so
readers never observe a partial entry; the memory tier is guarded by a
lock, so the asyncio server's executor threads can share one cache; and
the disk eviction scan takes a cross-process advisory file lock
(``.evict.lock``) so concurrent writers don't both act on the same
stale directory snapshot and evict twice the excess.

Besides finished designs, the cache stores **keyed intermediates** of
the staged cold path (:meth:`DesignCache.get_phase` /
:meth:`DesignCache.put_phase`): scheduled-design and golden-vector
records addressed by ``(phase, phase key)``, namespaced into the same
content-addressed store so eviction and corruption recovery apply
uniformly.  A small **live tier**
(:meth:`~DesignCache.get_live`/:meth:`~DesignCache.put_live`) keeps
unserializable in-process objects (front-end ADGs, reloaded designs)
for the duration of a burst — it never touches disk and dies with the
process.

Beside the live tier sits the **in-flight registry**
(:attr:`DesignCache.flights`, a :class:`SingleFlight` table): caching
alone cannot deduplicate *concurrent* identical work — two server
threads that miss the cache at the same instant both start computing —
so the pipeline routes each phase computation through
``flights.run(phase, key, fn)``, where the first caller becomes the
leader and every concurrent caller for the same ``(phase, key)`` waits
on the one in-flight computation and shares its result (failures
propagate to all waiters; the slot is always released so a retry
recomputes).  Like the live tier, it is per-process: processes
deduplicate through the disk tier's content-addressed records instead.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

try:
    import fcntl
except ImportError:  # pragma: no cover — non-POSIX fallback
    fcntl = None

from ..obs import get_registry
from ..serialize import canonical_dumps

__all__ = ["DesignCache", "CacheStats", "SingleFlight",
           "default_cache_dir"]

_FORMAT = "lego-cache-v1"

# Telemetry: one lookup counter across all four tiers (memory / disk /
# phase / live), so `GET /metrics` answers "which tier absorbed the
# traffic" directly.  Families are process-global; pool workers reset
# and re-report them as deltas (see repro.obs.metrics).
_LOOKUPS = get_registry().counter(
    "repro_cache_lookups_total",
    "design-cache lookups by tier and outcome", ("tier", "outcome"))
_PUTS = get_registry().counter(
    "repro_cache_puts_total", "design-cache record writes")
_EVICTIONS = get_registry().counter(
    "repro_cache_evictions_total", "design-cache disk-tier evictions")
_CORRUPT = get_registry().counter(
    "repro_cache_corrupt_total",
    "corrupted design-cache entries dropped")
_FLIGHTS = get_registry().counter(
    "repro_singleflight_total",
    "single-flight outcomes by phase: lead = computed, wait = joined "
    "another caller's in-flight computation, reclaim = timed out "
    "waiting and recomputed", ("phase", "outcome"))
_FLIGHT_WAIT_SECONDS = get_registry().histogram(
    "repro_singleflight_wait_seconds",
    "seconds spent joined to another caller's in-flight computation",
    ("phase",))


class _Flight:
    """One in-flight computation: its completion event plus outcome."""

    __slots__ = ("done", "result", "error")

    def __init__(self):
        self.done = threading.Event()
        self.result = None
        self.error: BaseException | None = None


class SingleFlight:
    """Process-wide dedup of concurrent identical computations.

    ``run(phase, key, fn)`` executes *fn* at most once per ``(phase,
    key)`` at a time: the first caller (the *leader*) computes; every
    caller that arrives while that computation is in flight blocks and
    receives the same result.  The leader publishes its outcome —
    result or exception, ``BaseException`` included, so a leader killed
    mid-flight still releases its waiters — and removes the slot
    *before* waking them, so a later retry always recomputes rather
    than being served a stale failure.

    *timeout* (seconds) bounds how long a waiter trusts its leader: a
    waiter that times out reclaims the slot and computes for itself
    (duplicated work, never a deadlock).  ``None`` waits indefinitely.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._flights: dict[tuple[str, str], _Flight] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._flights)

    def run(self, phase: str, key: str, fn,
            timeout: float | None = None):
        """``(fn(), True)`` as the leader, or ``(shared result,
        False)`` after waiting on another caller's flight.  A leader's
        exception is re-raised in every waiter."""
        slot = (phase, key)
        while True:
            with self._lock:
                flight = self._flights.get(slot)
                lead = flight is None
                if lead:
                    flight = _Flight()
                    self._flights[slot] = flight
            if lead:
                try:
                    flight.result = fn()
                except BaseException as exc:
                    flight.error = exc
                    raise
                finally:
                    # Release the slot before waking waiters: anyone
                    # arriving from here on starts a fresh computation
                    # (a failed flight must never be joinable).
                    with self._lock:
                        if self._flights.get(slot) is flight:
                            del self._flights[slot]
                    flight.done.set()
                _FLIGHTS.labels(phase=phase, outcome="lead").inc()
                return flight.result, True
            t0 = time.perf_counter()
            if not flight.done.wait(timeout):
                # Leader hung (or was killed without unwinding): stop
                # trusting it.  Drop the slot if it is still ours and
                # loop — we (or whoever wins the race) recompute.
                with self._lock:
                    if self._flights.get(slot) is flight:
                        del self._flights[slot]
                _FLIGHTS.labels(phase=phase, outcome="reclaim").inc()
                continue
            _FLIGHTS.labels(phase=phase, outcome="wait").inc()
            _FLIGHT_WAIT_SECONDS.labels(phase=phase).observe(
                time.perf_counter() - t0)
            if flight.error is not None:
                raise flight.error
            return flight.result, False


def default_cache_dir() -> pathlib.Path:
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro/designs``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return pathlib.Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return pathlib.Path(xdg) / "repro" / "designs"


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    memory_hits: int = 0
    #: intermediate-tier lookups (subset of hits/misses above)
    phase_hits: int = 0
    phase_misses: int = 0
    #: in-process live-object tier (ADGs, reloaded designs)
    live_hits: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {"hits": self.hits, "misses": self.misses,
                "puts": self.puts, "evictions": self.evictions,
                "corrupt": self.corrupt, "memory_hits": self.memory_hits,
                "phase_hits": self.phase_hits,
                "phase_misses": self.phase_misses,
                "live_hits": self.live_hits,
                "hit_rate": round(self.hit_rate, 4)}

    def tiers(self) -> dict:
        """Tier-by-tier breakdown (memory / disk / phase / live) — the
        shape ``/healthz`` and ``repro cache stats`` report, so cache
        behaviour can be read per tier rather than from the flat
        counter soup."""
        return {
            "memory": {"hits": self.memory_hits},
            "disk": {"hits": self.hits - self.memory_hits,
                     "misses": self.misses, "puts": self.puts,
                     "evictions": self.evictions,
                     "corrupt": self.corrupt},
            "phase": {"hits": self.phase_hits,
                      "misses": self.phase_misses},
            "live": {"hits": self.live_hits},
        }


@dataclass
class DesignCache:
    """Content-addressed record store keyed by SHA-256 hex digests,
    rooted at one directory (``<root>/<hh>/<hash>.json``)."""

    root: pathlib.Path = field(default_factory=default_cache_dir)
    memory_entries: int = 128
    disk_entries: int = 4096
    #: bound of the in-process live-object tier (ADGs, reloaded
    #: designs); these can be large, so the default is deliberately
    #: smaller than the record LRU
    live_entries: int = 16
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self):
        self.root = pathlib.Path(self.root)
        self._memory: OrderedDict[str, dict] = OrderedDict()
        self._live: OrderedDict[str, object] = OrderedDict()
        #: in-flight registry: concurrent identical phase computations
        #: are deduplicated here before they ever reach the tiers above
        self.flights = SingleFlight()
        # Guards the memory LRU and the stats counters: without it, two
        # server threads can race a membership check against an
        # eviction and crash on move_to_end(missing key).
        self._lock = threading.RLock()
        # Approximate on-disk entry count; scanned lazily so put() stays
        # O(1) until the cache actually nears its bound.
        self._disk_count: int | None = None

    # -- addressing --------------------------------------------------------

    def path_for(self, key: str) -> pathlib.Path:
        return self.root / key[:2] / f"{key}.json"

    def keys(self) -> list[str]:
        """All keys currently on disk (sorted for stable listings)."""
        if not self.root.is_dir():
            return []
        return sorted(p.stem for p in self.root.glob("??/*.json"))

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return key in self._memory or self.path_for(key).is_file()

    # -- read / write ------------------------------------------------------

    def peek(self, key: str) -> dict | None:
        """Read a record without touching cache state: no stats, no LRU
        promotion, no mtime refresh, no corruption cleanup.  For
        listings and diagnostics only."""
        try:
            with open(self.path_for(key)) as fh:
                wrapper = json.load(fh)
        except (OSError, ValueError):
            return None
        if isinstance(wrapper, dict) and wrapper.get("format") == _FORMAT:
            return wrapper.get("record")
        return None

    def get_memory(self, key: str) -> dict | None:
        """Memory-tier-only lookup: no disk I/O, so it is safe on an
        event loop.  A hit promotes and counts as usual; a miss returns
        ``None`` *without* counting (the caller falls back to
        :meth:`get`, which does the bookkeeping)."""
        with self._lock:
            record = self._memory.get(key)
            if record is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
        if record is not None:
            _LOOKUPS.labels(tier="memory", outcome="hit").inc()
        return record

    def get(self, key: str) -> dict | None:
        """The cached record for *key*, or None on miss/corruption."""
        record = self.get_memory(key)
        if record is not None:
            return record
        path = self.path_for(key)
        try:
            with open(path) as fh:
                wrapper = json.load(fh)
            if (not isinstance(wrapper, dict)
                    or wrapper.get("format") != _FORMAT
                    or "record" not in wrapper):
                raise ValueError("bad cache wrapper")
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            _LOOKUPS.labels(tier="disk", outcome="miss").inc()
            return None
        except (ValueError, OSError):
            # Corrupted entry: drop it and let the caller regenerate.
            # Decrement the approximate disk count only once the entry
            # is actually gone — decrementing on a failed unlink makes
            # the eviction trigger undercount and the disk tier creep
            # past its bound.
            unlinked = False
            try:
                path.unlink()
                unlinked = True
            except OSError:
                pass
            with self._lock:
                self.stats.corrupt += 1
                self.stats.misses += 1
                if unlinked and self._disk_count is not None:
                    self._disk_count = max(0, self._disk_count - 1)
            _LOOKUPS.labels(tier="disk", outcome="miss").inc()
            _CORRUPT.inc()
            return None
        with self._lock:
            self.stats.hits += 1
            self._remember(key, wrapper["record"])
        _LOOKUPS.labels(tier="disk", outcome="hit").inc()
        # Refresh mtime so disk eviction approximates LRU, not FIFO.
        try:
            os.utime(path)
        except OSError:
            pass
        return wrapper["record"]

    def put(self, key: str, record: dict) -> None:
        """Store *record* under *key* (atomic write; last writer wins)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = canonical_dumps({"format": _FORMAT, "key": key,
                                   "record": record})
        existed = path.is_file()
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(payload)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        with self._lock:
            self.stats.puts += 1
            if self._disk_count is not None and not existed:
                self._disk_count += 1
            self._remember(key, record)
        _PUTS.inc()
        self._evict_disk()

    def remember(self, key: str, record: dict) -> None:
        """Memory-tier insert of a record another process already wrote
        to disk (a batch engine's pool worker): no I/O, no put count."""
        with self._lock:
            self._remember(key, record)

    def clear(self) -> int:
        """Remove every entry; returns how many were deleted."""
        n = 0
        for key in self.keys():
            try:
                self.path_for(key).unlink()
                n += 1
            except OSError:
                pass
        with self._lock:
            self._memory.clear()
            self._live.clear()
            self._disk_count = 0
        return n

    # -- intermediate (phase) tier -----------------------------------------
    #
    # The staged cold path splits execute_request into hashed phases
    # (dataflows -> ADG -> scheduled design -> golden vectors ->
    # artifacts); each serializable intermediate lives in the same
    # content-addressed store under a phase-namespaced address, so a
    # request differing only in its emission phase (another backend, a
    # lazy testbench, a module rename) reuses the scheduled design and
    # simulation vectors instead of recompiling from scratch.

    @staticmethod
    def phase_address(phase: str, key: str) -> str:
        """Storage address of one ``(phase, phase key)`` intermediate —
        namespaced so it can never collide with a request's spec hash."""
        return hashlib.sha256(f"phase/{phase}/{key}".encode()).hexdigest()

    def get_phase(self, phase: str, key: str) -> dict | None:
        """The cached intermediate of *phase* under *key*, or None."""
        record = self.get(self.phase_address(phase, key))
        with self._lock:
            if record is not None:
                self.stats.phase_hits += 1
            else:
                self.stats.phase_misses += 1
        _LOOKUPS.labels(tier="phase",
                        outcome="hit" if record is not None
                        else "miss").inc()
        return record

    def put_phase(self, phase: str, key: str, record: dict) -> None:
        """Store one phase intermediate (atomic, evictable, shared
        across processes like any other record)."""
        self.put(self.phase_address(phase, key), record)

    # -- live tier ---------------------------------------------------------

    def get_live(self, phase: str, key: str):
        """In-process object cached under ``(phase, key)``, or None.
        Never touches disk; safe for unserializable intermediates."""
        address = self.phase_address(phase, key)
        with self._lock:
            obj = self._live.get(address)
            if obj is not None:
                self._live.move_to_end(address)
                self.stats.live_hits += 1
        _LOOKUPS.labels(tier="live",
                        outcome="hit" if obj is not None
                        else "miss").inc()
        return obj

    def put_live(self, phase: str, key: str, obj) -> None:
        address = self.phase_address(phase, key)
        with self._lock:
            self._live[address] = obj
            self._live.move_to_end(address)
            while len(self._live) > self.live_entries:
                self._live.popitem(last=False)

    # -- eviction ----------------------------------------------------------

    def _remember(self, key: str, record: dict) -> None:
        # Caller holds self._lock.
        self._memory[key] = record
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)

    @contextlib.contextmanager
    def _eviction_lock(self):
        """Cross-process advisory lock (``<root>/.evict.lock``) for the
        eviction scan.  Held by another process → yields False (skip:
        that process is already shrinking the store, and two scans of
        the same stale snapshot would evict the excess twice)."""
        if fcntl is None:
            yield True
            return
        try:
            fd = os.open(self.root / ".evict.lock",
                         os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            yield True
            return
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                yield False
                return
            try:
                yield True
            finally:
                fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)

    def _evict_disk(self) -> None:
        with self._lock:
            count = self._disk_count
        if count is None:
            # First-time scan happens OUTSIDE the lock: globbing a big
            # cache root must not stall memory-tier readers (the
            # server's event-loop fast path takes this lock).
            count = len(self.keys())
            with self._lock:
                self._disk_count = count
        if count <= self.disk_entries:
            return
        with self._eviction_lock() as held:
            if not held:
                return
            # Scan under the lock: the count is approximate, and another
            # process may have evicted since it tripped the threshold.
            paths = list(self.root.glob("??/*.json"))
            excess = max(len(paths) - self.disk_entries, 0)

            def mtime(p: pathlib.Path) -> float:
                try:
                    return p.stat().st_mtime
                except OSError:
                    return 0.0
            for path in sorted(paths, key=mtime)[:excess]:
                try:
                    path.unlink()
                    with self._lock:
                        self.stats.evictions += 1
                    _EVICTIONS.inc()
                except OSError:
                    pass
                with self._lock:
                    self._memory.pop(path.stem, None)
        with self._lock:
            self._disk_count = len(paths) - excess
