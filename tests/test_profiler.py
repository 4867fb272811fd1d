"""Sampling-profiler tests: the Profile value object (collapsed stacks,
top-N, merge, dict round-trip, bounded distinct stacks), the live
sampler (a busy thread shows up, samples carry the busy thread's open
span as their phase, drain semantics), and the ``GET /debug/profile``
surface on both a single server and the fan-and-merge router, and the
always-on sampler's cost on the warm serving path."""

import statistics
import threading
import time

import pytest

from repro.obs import (DEFAULT_HZ, Profile, SamplingProfiler, profile_for,
                       trace_span)
from repro.service import (BatchEngine, DesignCache, ServerThread,
                           ServiceClient)
from repro.service.router import RouterThread


def _spin(stop: threading.Event) -> None:
    while not stop.is_set():
        sum(i * i for i in range(500))


class TestProfileObject:
    def test_collapsed_busiest_first_and_idle_filtered(self):
        p = Profile(hz=50, stacks={"main.a;main.b": 3,
                                   "main.a;selectors.select": 9,
                                   "main.a;main.c": 7})
        assert p.collapsed() == "main.a;main.c 7\nmain.a;main.b 3"
        assert p.collapsed(include_idle=True).splitlines()[0] \
            == "main.a;selectors.select 9"

    def test_top_self_vs_total(self):
        p = Profile(hz=50, stacks={"m.a;m.b": 4, "m.a;m.b;m.c": 6})
        by_frame = {row["frame"]: row for row in p.top(10)}
        assert by_frame["m.c"]["self"] == 6
        assert by_frame["m.b"]["self"] == 4
        assert by_frame["m.b"]["total"] == 10
        assert by_frame["m.a"]["self"] == 0

    def test_merge_adds_counts_keeps_max_wall(self):
        a = Profile(hz=50, stacks={"x": 1}, by_phase={"emit": 1},
                    samples=1, idle_samples=0, wall_s=1.0)
        b = Profile(hz=50, stacks={"x": 2, "y": 3}, by_phase={"emit": 5},
                    samples=5, idle_samples=2, wall_s=3.0)
        a.merge(b)
        assert a.stacks == {"x": 3, "y": 3}
        assert a.by_phase == {"emit": 6}
        assert a.samples == 6 and a.idle_samples == 2
        assert a.wall_s == 3.0  # overlapping captures: max, not sum

    def test_dict_roundtrip(self):
        p = Profile(hz=99, stacks={"a;b": 2}, by_phase={"adg": 2},
                    samples=2, idle_samples=1, wall_s=0.5)
        clone = Profile.from_dict(p.to_dict())
        assert (clone.hz, clone.stacks, clone.by_phase, clone.samples,
                clone.idle_samples, clone.wall_s) \
            == (99, {"a;b": 2}, {"adg": 2}, 2, 1, 0.5)
        assert p.to_dict()["top"][0]["frame"] == "b"

    def test_distinct_stack_cap_overflows_to_truncated(self):
        # sampler not started: pre-fill to the cap, then drive
        # _sample_once by hand — novel stacks must aggregate
        profiler = SamplingProfiler(hz=10, max_stacks=2)
        profiler._stacks = {"s1": 1, "s2": 1}
        # a third novel stack must aggregate, not grow the dict
        stop = threading.Event()
        spinner = threading.Thread(target=_spin, args=(stop,),
                                   daemon=True)
        spinner.start()
        try:
            for _ in range(5):
                profiler._sample_once()
        finally:
            stop.set()
            spinner.join()
        novel = set(profiler._stacks) - {"s1", "s2"}
        assert novel <= {"(truncated)"}


class TestSamplingProfiler:
    def test_busy_thread_appears_with_phase(self):
        stop = threading.Event()

        def busy():
            with trace_span("hot_phase"):
                _spin(stop)

        worker = threading.Thread(target=busy, daemon=True,
                                  name="busy-under-test")
        worker.start()
        profiler = SamplingProfiler(hz=200)
        profiler.start()
        time.sleep(0.3)
        profiler.stop()
        stop.set()
        worker.join()
        profile = profiler.snapshot()
        assert profile.samples > 0
        assert any("_spin" in stack for stack in profile.stacks), \
            profile.stacks
        assert profile.by_phase.get("hot_phase", 0) > 0
        assert profile.wall_s == pytest.approx(0.3, abs=0.2)

    def test_take_drains_accumulators(self):
        profiler = SamplingProfiler(hz=100)
        stop = threading.Event()
        spinner = threading.Thread(target=_spin, args=(stop,),
                                   daemon=True)
        spinner.start()
        profiler.start()
        try:
            time.sleep(0.15)
        finally:
            profiler.stop()
            stop.set()
            spinner.join()
        first = profiler.take()
        assert first.samples > 0 and first.stacks
        # take() reset everything; with the sampler stopped, the next
        # read is empty
        empty = profiler.snapshot()
        assert empty.samples == 0 and empty.stacks == {}
        assert empty.wall_s == 0.0

    def test_profile_for_excludes_its_own_capture_thread(self):
        profile = profile_for(0.2, hz=150)
        assert all("profile_for" not in stack
                   for stack in profile.stacks), profile.stacks


class TestProfileEndpoint:
    def test_one_shot_capture(self):
        server = ServerThread(BatchEngine(cache=None)).start()
        try:
            with ServiceClient.from_url(server.url) as client:
                payload = client.profile(seconds=0.2, hz=100)
            assert payload["continuous"] is False
            assert payload["samples"] > 0  # parked threads still sample
            assert payload["hz"] == 100
            assert isinstance(payload["top"], list)
        finally:
            server.stop()

    def test_404_without_continuous_profiler_or_seconds(self):
        from repro.service import ServiceError

        server = ServerThread(BatchEngine(cache=None)).start()
        try:
            with ServiceClient.from_url(server.url) as client:
                with pytest.raises(ServiceError) as err:
                    client.profile()
            assert err.value.status == 404
        finally:
            server.stop()

    def test_bad_params_are_400(self):
        from repro.service import ServiceError

        server = ServerThread(BatchEngine(cache=None)).start()
        try:
            with ServiceClient.from_url(server.url) as client:
                with pytest.raises(ServiceError) as err:
                    client.request("GET", "/debug/profile?seconds=nope")
            assert err.value.status == 400
        finally:
            server.stop()

    def test_continuous_mode_snapshot(self):
        server = ServerThread(BatchEngine(cache=None),
                              profile_hz=150).start()
        try:
            assert server.server.profiler.running
            time.sleep(0.2)
            with ServiceClient.from_url(server.url) as client:
                payload = client.profile()
            assert payload["continuous"] is True
            assert payload["samples"] > 0
            assert payload["hz"] == 150
        finally:
            server.stop()

    def test_router_fans_and_merges(self):
        backend = ServerThread(BatchEngine(cache=None)).start()
        router = RouterThread([backend.url]).start()
        try:
            with ServiceClient.from_url(router.url) as client:
                payload = client.profile(seconds=0.2, hz=100)
            assert payload["merged_from"] == 2  # router + backend
            assert payload["samples"] > 0
            assert payload["backends"][0]["ok"] is True
            assert payload["backends"][0]["url"] == backend.url
        finally:
            router.stop()
            backend.stop()

    def test_router_404_when_nothing_available(self):
        from repro.service import ServiceError

        backend = ServerThread(BatchEngine(cache=None)).start()
        router = RouterThread([backend.url]).start()
        try:
            with ServiceClient.from_url(router.url) as client:
                with pytest.raises(ServiceError) as err:
                    client.profile()
            assert err.value.status == 404
        finally:
            router.stop()
            backend.stop()

    def test_default_hz_constant(self):
        # bench + CLI defaults reference 67 Hz; keep them honest
        assert DEFAULT_HZ == 67.0


WARM_REQUESTS = [{"kernel": "gemm", "dataflows": [d], "array": [2, 2]}
                 for d in ("KJ", "IJ", "IK")]
T_WINDOW = 0.6   # seconds per measurement window
N_PAIRS = 4      # interleaved (sampler-off, sampler-on) window pairs


def test_profiler_overhead(tmp_path):
    """The always-on profiler (``repro serve --profile``) must not tax
    the warm serving path: its only cost is the GIL time the sampler
    thread steals, ~`hz` brief wakeups per second.  Interleave
    sampler-off and sampler-on measurement windows (so host-load drift
    hits both populations equally), compare median request rates, and
    bound the slowdown (typically <5%; asserted with CI-noise margin).
    Windows are wall-clock-sized, not request-counted: a fast host
    burning through a fixed request count in 100 ms would measure
    scheduler jitter, not the profiler.
    """
    engine = BatchEngine(cache=DesignCache(root=tmp_path / "cache"))
    with ServerThread(engine) as url:
        client = ServiceClient(port=int(url.rsplit(":", 1)[1]))
        for spec in WARM_REQUESTS:  # prime the cache
            assert client.generate(spec)["ok"]

        def warm_rate(window_s=T_WINDOW):
            n = 0
            start = time.perf_counter()
            while (elapsed := time.perf_counter() - start) < window_s:
                result = client.generate(
                    WARM_REQUESTS[n % len(WARM_REQUESTS)])
                assert result["from_cache"]
                n += 1
            return n / elapsed

        profiler = SamplingProfiler(hz=DEFAULT_HZ)
        off_rates, on_rates = [], []
        warm_rate(0.3)  # settle connections and code paths
        for _ in range(N_PAIRS):
            off_rates.append(warm_rate())
            profiler.start()
            try:
                on_rates.append(warm_rate())
            finally:
                profiler.stop()
        client.close()

    profile = profiler.snapshot()
    overhead = (statistics.median(off_rates)
                / statistics.median(on_rates) - 1.0)
    # the sampler actually sampled the serving threads...
    assert profile.samples > 0
    # ...and stole well under the acceptance bar (<5% typical; the
    # asserted bound is looser so a noisy CI host can't flake it).
    assert overhead < 0.20
