"""Concurrency stress tests for the design cache: multiple processes
writing, reading, and evicting the same root must never corrupt an
entry or crash, and multiple threads sharing one ``DesignCache`` (the
serving front end's executor pool) must never race the memory LRU."""

import hashlib
import json
import multiprocessing
import random
import threading

from repro.serialize import canonical_dumps
from repro.service.cache import DesignCache


def _key_for(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _record_for(tag: str) -> dict:
    # Content-addressed integrity witness: the record names its own key.
    return {"kind": "stress-v1", "echo": _key_for(tag), "tag": tag,
            "payload": "x" * 256}


def _hammer_process(root, worker, n_ops, failures):
    """One writer/reader process: puts, gets, and (via the small
    disk_entries bound) constant eviction scans."""
    try:
        cache = DesignCache(root=root, memory_entries=8, disk_entries=24)
        rng = random.Random(worker)
        for i in range(n_ops):
            tag = f"w{worker}-{i}"
            cache.put(_key_for(tag), _record_for(tag))
            # Read back a random earlier entry — possibly evicted
            # (None) but never corrupt.
            probe = f"w{worker}-{rng.randrange(i + 1)}"
            record = cache.get(_key_for(probe))
            if record is not None and record["echo"] != _key_for(probe):
                failures.put(f"{probe}: wrong record {record['echo']}")
        if cache.stats.corrupt:
            failures.put(f"worker {worker} saw "
                         f"{cache.stats.corrupt} corrupt entries")
    except Exception as exc:  # noqa: BLE001 — reported to the parent
        failures.put(f"worker {worker} crashed: {type(exc).__name__}: "
                     f"{exc}")


class TestCrossProcess:
    def test_concurrent_writers_and_eviction(self, tmp_path):
        """4 processes x 60 puts against a 24-entry bound: constant
        eviction pressure, zero corruption."""
        ctx = multiprocessing.get_context()
        failures = ctx.Queue()
        procs = [ctx.Process(target=_hammer_process,
                             args=(str(tmp_path), w, 60, failures))
                 for w in range(4)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        problems = []
        while not failures.empty():
            problems.append(failures.get())
        assert not problems, problems

        # Every surviving on-disk entry must still be a fully valid,
        # self-consistent wrapper (atomic writes: no torn files).
        survivor_cache = DesignCache(root=tmp_path, disk_entries=24)
        keys = survivor_cache.keys()
        assert keys, "eviction removed everything"
        for key in keys:
            payload = json.loads(survivor_cache.path_for(key).read_text())
            assert payload["format"] == "lego-cache-v1"
            assert payload["key"] == key
            assert payload["record"]["echo"] == key
        # The disk bound is enforced by the *next* put's scan, not at
        # every instant: a writer that finds the flock held skips its
        # scan (its count stays over the bound, so its next put retries),
        # and whatever is put while the last scanner stalls stays until
        # somebody puts again.  So the racy count only shows that scans
        # ran at all; one quiescent scan must then restore the bound.
        assert len(keys) < 4 * 60
        survivor_cache._evict_disk()
        assert 0 < len(survivor_cache.keys()) <= 24

    def test_eviction_lock_skips_when_held(self, tmp_path):
        """While one cache holds the eviction lock, another's scan is a
        no-op instead of a double eviction."""
        a = DesignCache(root=tmp_path, disk_entries=4)
        b = DesignCache(root=tmp_path, disk_entries=4)
        for i in range(8):
            a.put(_key_for(f"seed-{i}"), _record_for(f"seed-{i}"))
        with a._eviction_lock() as held:
            assert held
            before = len(b.keys())
            b._evict_disk()  # must bail out: lock is taken
            assert len(b.keys()) == before
        b._evict_disk()
        assert len(b.keys()) <= 4


class TestThreadSafety:
    def test_shared_cache_many_threads(self, tmp_path):
        """The serving executor shares one cache across threads; the
        memory-LRU lock must prevent membership/move_to_end races (this
        crashed with KeyError before the lock)."""
        cache = DesignCache(root=tmp_path, memory_entries=4,
                            disk_entries=256)
        tags = [f"t{i}" for i in range(16)]
        for tag in tags:
            cache.put(_key_for(tag), _record_for(tag))
        errors: list = []

        def churn(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    tag = rng.choice(tags)
                    if rng.random() < 0.3:
                        cache.put(_key_for(tag), _record_for(tag))
                    else:
                        record = cache.get(_key_for(tag))
                        assert (record is None
                                or record["echo"] == _key_for(tag))
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=churn, args=(s,))
                   for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert cache.stats.corrupt == 0

    def test_many_threads_under_eviction_pressure(self, tmp_path):
        """6 threads x 40 puts against a 32-entry bound: every put trips
        an eviction scan while other threads read; reads see an intact
        record or a clean miss, never a crash or a corrupt entry."""
        cache = DesignCache(root=tmp_path, memory_entries=8,
                            disk_entries=32)
        errors: list = []

        def worker(w):
            try:
                rng = random.Random(w)
                for i in range(40):
                    tag = f"s{w}-{i}"
                    cache.put(_key_for(tag), _record_for(tag))
                    probe = f"s{w}-{rng.randrange(i + 1)}"
                    record = cache.get(_key_for(probe))
                    if record is not None:
                        assert record["echo"] == _key_for(probe)
            except Exception as exc:  # noqa: BLE001
                errors.append(f"worker {w}: {exc}")

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert cache.stats.corrupt == 0

    def test_atomic_put_never_partially_visible(self, tmp_path):
        """A reader polling while a writer overwrites the same key must
        only ever see complete versions (os.replace atomicity)."""
        cache_w = DesignCache(root=tmp_path)
        cache_r = DesignCache(root=tmp_path, memory_entries=0)
        key = _key_for("contended")
        stop = threading.Event()
        errors: list = []

        def write():
            i = 0
            while not stop.is_set():
                record = dict(_record_for("contended"), version=i)
                record_json = canonical_dumps(record)
                cache_w.put(key, json.loads(record_json))
                i += 1

        def read():
            try:
                while not stop.is_set():
                    record = cache_r.get(key)
                    if record is not None:
                        assert record["echo"] == key
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        writer = threading.Thread(target=write)
        readers = [threading.Thread(target=read) for _ in range(3)]
        writer.start()
        for t in readers:
            t.start()
        writer.join(timeout=0.5)  # let them contend for half a second
        stop.set()
        for t in [writer, *readers]:
            t.join(timeout=30)
        assert not errors, errors
        assert cache_r.stats.corrupt == 0


class TestDiskCountAccounting:
    """Regression: the corrupt-entry path in ``get()`` decremented the
    approximate disk count even when the unlink failed, so the eviction
    trigger undercounted and the disk tier crept past its bound."""

    def _corrupt(self, cache, key):
        path = cache.path_for(key)
        path.write_text("{ not json")

    def test_failed_unlink_does_not_decrement(self, tmp_path,
                                              monkeypatch):
        import pathlib

        cache = DesignCache(root=tmp_path, memory_entries=0)
        for i in range(4):
            cache.put(_key_for(f"d-{i}"), _record_for(f"d-{i}"))
        cache._evict_disk()  # seed the count via the first-time scan
        assert cache._disk_count == 4
        self._corrupt(cache, _key_for("d-0"))

        real_unlink = pathlib.Path.unlink

        def deny(self, *args, **kwargs):
            raise OSError("unlink denied")

        monkeypatch.setattr(pathlib.Path, "unlink", deny)
        try:
            assert cache.get(_key_for("d-0")) is None
        finally:
            monkeypatch.setattr(pathlib.Path, "unlink", real_unlink)
        # entry is corrupt but still on disk: the count must not move
        assert cache.stats.corrupt == 1
        assert cache._disk_count == 4
        assert len(cache.keys()) == 4
        # with unlink working again the entry goes and the count follows
        assert cache.get(_key_for("d-0")) is None
        assert cache._disk_count == 3
        assert len(cache.keys()) == 3

    def test_count_tracks_glob_through_corruption_churn(self, tmp_path):
        cache = DesignCache(root=tmp_path, memory_entries=0,
                            disk_entries=10_000)
        rng = random.Random(7)
        live = set()
        for i in range(120):
            tag = f"churn-{i}"
            cache.put(_key_for(tag), _record_for(tag))
            live.add(tag)
            if rng.random() < 0.3:
                victim = rng.choice(sorted(live))
                self._corrupt(cache, _key_for(victim))
                assert cache.get(_key_for(victim)) is None
                live.discard(victim)
            if cache._disk_count is not None:
                assert cache._disk_count == len(cache.keys()), \
                    f"count drifted at step {i}"
        cache._evict_disk()
        assert cache._disk_count == len(cache.keys()) == len(live)

    def test_count_tracks_glob_under_threads(self, tmp_path):
        """Concurrent puts (distinct keys) and corrupt-entry drops must
        leave the counted total equal to the globbed truth."""
        cache = DesignCache(root=tmp_path, memory_entries=0,
                            disk_entries=10_000)
        cache.put(_key_for("seed"), _record_for("seed"))
        cache._evict_disk()
        errors: list = []

        def worker(w):
            try:
                for i in range(30):
                    tag = f"t{w}-{i}"
                    cache.put(_key_for(tag), _record_for(tag))
                    if i % 3 == 0:
                        self._corrupt(cache, _key_for(tag))
                        assert cache.get(_key_for(tag)) is None
            except Exception as exc:  # noqa: BLE001
                errors.append(f"worker {w}: {exc}")

        threads = [threading.Thread(target=worker, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors, errors
        assert cache._disk_count == len(cache.keys())

    def test_eviction_keeps_count_exact(self, tmp_path):
        """After real evictions the approximate count is the globbed
        truth again, and the store is back within its bound."""
        cache = DesignCache(root=tmp_path, memory_entries=4,
                            disk_entries=12)
        for i in range(80):
            cache.put(_key_for(f"se-{i}"), _record_for(f"se-{i}"))
        assert cache.stats.evictions == 80 - 12
        assert cache._disk_count == len(cache.keys()) == 12
