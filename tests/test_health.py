"""Fleet health machinery: transport-error classification, the
per-backend tracker's circuit breaker (threshold, half-open trial,
cooldown doubling from the probe interval), its up/degraded/down
folding and gauge export, and the router's on-loop prober — its
verdicts against live and dead endpoints and its backoff schedule."""

import asyncio
import http.client
import socket
import threading
import time

import pytest

from repro.obs import get_registry, snapshot_value
from repro.service import (BackendHealth, BatchEngine, RouterThread,
                           ServerThread, ServiceClient, get_faults,
                           reset_faults)
from repro.service.health import (STATE_VALUES, backoff_delays,
                                  classify_error, probe_forever)
from repro.service.router import DesignRouter

DEAD = "http://127.0.0.1:9"


def _gauge(url: str) -> float:
    return snapshot_value(get_registry().snapshot(), "repro_backend_state",
                          backend=url)


class TestClassifyError:
    @pytest.mark.parametrize("exc, expected", [
        (ConnectionRefusedError(), "refused"),
        (ConnectionResetError(), "reset"),
        (BrokenPipeError(), "reset"),
        (ConnectionAbortedError(), "reset"),
        (http.client.RemoteDisconnected("gone"), "reset"),
        (TimeoutError(), "timeout"),
        (http.client.BadStatusLine("I AM NOT HTTP"), "protocol"),
        (OSError("no route"), "os_error"),
        (RuntimeError("misc"), "error"),
    ])
    def test_classes(self, exc, expected):
        assert classify_error(exc) == expected


class TestBackoffDelays:
    def test_jittered_exponential_capped(self):
        delays = backoff_delays(base_s=0.1, max_s=0.4, factor=2.0)
        first = next(delays)
        assert 0.05 <= first <= 0.15
        for expected in (0.2, 0.4, 0.4, 0.4):
            value = next(delays)
            assert expected * 0.5 <= value <= expected * 1.5


class TestCircuitBreaker:
    """The breaker half of :class:`BackendHealth`; its cooldown starts
    at a quarter of the probe interval and is capped at the interval."""

    def test_trips_after_threshold_consecutive_failures(self):
        backend = BackendHealth("b0", threshold=3, probe_interval_s=60)
        for _ in range(2):
            backend.record(False)
        assert backend.breaker == "closed" and backend.allows()
        backend.record(False)
        assert backend.breaker == "open"
        assert not backend.allows()

    def test_success_resets_the_streak(self):
        backend = BackendHealth("b0", threshold=3, probe_interval_s=60)
        for _ in range(10):
            backend.record(False)
            backend.record(False)
            backend.record(True)
        assert backend.breaker == "closed"

    def test_half_open_admits_one_trial(self):
        backend = BackendHealth("b0", threshold=1, probe_interval_s=0.04)
        backend.record(False)
        assert backend.breaker == "open"
        time.sleep(0.02)
        assert backend.allows()          # open -> half_open, one trial
        assert backend.breaker == "half_open"
        assert not backend.allows()      # no second trial
        backend.record(True)
        assert backend.breaker == "closed"
        assert backend.allows()

    def test_failed_trial_reopens(self):
        backend = BackendHealth("b0", threshold=1, probe_interval_s=0.04)
        backend.record(False)
        time.sleep(0.02)
        assert backend.allows()
        backend.record(False)
        assert backend.breaker == "open"

    def test_cooldown_doubles_per_trip_up_to_cap(self):
        backend = BackendHealth("b0", threshold=1, probe_interval_s=0.2)
        for expected in (0.05, 0.1, 0.2, 0.2):
            before = time.monotonic()
            backend.record(False)
            assert backend.breaker == "open"
            cooldown = backend._retry_at - before
            assert cooldown == pytest.approx(expected, rel=0.1)
            # expire the cooldown so the next round starts half_open
            backend._retry_at = time.monotonic()
            assert backend.allows()

    def test_transitions_metric_counts(self):
        backend = BackendHealth("metric-test", threshold=1,
                                probe_interval_s=60)
        backend.record(False)
        assert snapshot_value(get_registry().snapshot(),
                              "repro_breaker_transitions_total",
                              backend="metric-test", to="open") == 1.0

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            BackendHealth("b0", threshold=0)


class TestBackendHealth:
    def test_state_folds_breaker_and_probe(self):
        backend = BackendHealth("http://x", threshold=2,
                                probe_interval_s=60)
        assert backend.state == "up"  # optimistic start
        backend.record(False, "probe: refused")
        assert backend.state == "degraded"  # failing but not tripped
        backend.record(False)
        assert backend.state == "down"      # breaker open
        assert backend.to_dict()["breaker"] == {"state": "open",
                                                "failures": 2}
        assert backend.to_dict()["last_error"] == "probe: refused"
        backend._retry_at = 0.0
        backend.allows()                    # half_open trial
        assert backend.state == "degraded"  # mid-recovery
        backend.record(True)
        assert backend.state == "up"
        assert "last_error" not in backend.to_dict()

    def test_state_gauge_values(self):
        assert STATE_VALUES == {"up": 2.0, "degraded": 1.0, "down": 0.0}
        # exported once at construction, then on every state change
        backend = BackendHealth("gauge-test", threshold=1,
                                probe_interval_s=60)
        assert _gauge("gauge-test") == 2.0
        backend.record(False)
        assert _gauge("gauge-test") == 0.0
        backend._retry_at = 0.0
        backend.allows()
        assert _gauge("gauge-test") == 1.0
        backend.record(True)
        assert _gauge("gauge-test") == 2.0


class TestFleetHealth:
    """The router's view of its fleet: trackers fed by the request
    path and by a prober task on the router's own event loop."""

    def test_overall_verdicts(self):
        live = ServerThread(BatchEngine(cache=None)).start()
        try:
            for urls, verdict, states in (
                    ([live.url, live.url], "up", ["up", "up"]),
                    ([live.url, DEAD], "degraded", ["up", "down"]),
                    ([DEAD, DEAD], "down", ["down", "down"])):
                with RouterThread(urls, probe_interval_s=0,
                                  breaker_threshold=1) as url:
                    with ServiceClient.from_url(url) as c:
                        health = c.health()
                assert health["status"] == verdict
                assert [b["state"] for b in health["backends"]] == states
        finally:
            live.stop()

    def test_prober_marks_dead_backend_down(self):
        live = ServerThread(BatchEngine(cache=None)).start()
        router = RouterThread([live.url, DEAD], probe_interval_s=0.1,
                              breaker_threshold=2).start()
        try:
            health = router.server.health
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if health[0].state == "up" and health[1].state == "down":
                    break
                time.sleep(0.02)
            assert health[0].state == "up"
            assert health[1].state == "down"
            error = health[1].last_error
            assert error.startswith("probe: ")
            assert "refused" in error or "Connection" in error
            with ServiceClient.from_url(router.url) as c:
                assert c.health()["status"] == "degraded"
        finally:
            router.stop()
            live.stop()

    def test_probe_interval_zero_disables_thread(self):
        router = RouterThread([DEAD], probe_interval_s=0).start()
        try:
            assert router.server._prober is None
        finally:
            router.stop()
        # a live prober is a task on the router's loop, not a thread
        router = RouterThread([DEAD], probe_interval_s=0.05).start()
        try:
            assert router.server._prober is not None
            assert "repro-health-prober" not in {
                t.name for t in threading.enumerate()}
        finally:
            router.stop()
        assert router.server._prober is None

    def test_manual_probe_records_verdict(self):
        live = ServerThread(BatchEngine(cache=None)).start()
        router = DesignRouter([live.url, DEAD], probe_interval_s=0,
                              breaker_threshold=1)

        async def probe_both():
            try:
                return await router._probe(0), await router._probe(1)
            finally:
                await router.stop()

        try:
            # probes are not router:forward sites: chaos there hits
            # client traffic only
            get_faults().arm("router:forward", "error")
            assert asyncio.run(probe_both()) == (True, False)
        finally:
            reset_faults()
            live.stop()
        assert router.health[0].state == "up"
        assert router.health[1].state == "down"

    def test_probe_schedule_backs_off_from_quarter_interval(self):
        seen: dict[int, list[float]] = {0: [], 1: []}

        async def probe(index):
            seen[index].append(time.monotonic())
            return index == 0  # backend 1 keeps failing

        async def run():
            task = asyncio.create_task(probe_forever(probe, 2, 0.4))
            await asyncio.sleep(1.0)
            task.cancel()

        asyncio.run(run())
        healthy = [b - a for a, b in zip(seen[0], seen[0][1:])]
        failing = [b - a for a, b in zip(seen[1], seen[1][1:])]
        assert healthy and all(gap >= 0.4 for gap in healthy)
        # interval/4, then doubling back up to the interval
        for gap, expected in zip(failing, (0.1, 0.2, 0.4)):
            assert expected <= gap < expected + 0.15

    def test_probe_has_its_own_budget(self):
        """A backend that accepts but never answers fails its probe
        within the probe budget (the interval, 0.25 s at least), not
        within the router's much longer ``--timeout``."""
        silent = socket.socket()
        silent.bind(("127.0.0.1", 0))
        silent.listen(8)
        router = DesignRouter(
            [f"http://127.0.0.1:{silent.getsockname()[1]}"],
            timeout=300, probe_interval_s=0.3, breaker_threshold=1)

        async def probe():
            try:
                started = time.monotonic()
                return await router._probe(0), time.monotonic() - started
            finally:
                await router.stop()

        try:
            ok, took = asyncio.run(probe())
        finally:
            silent.close()
        assert ok is False and 0.3 <= took < 5
        assert router.health[0].last_error == (
            "probe: TimeoutError: no answer within 0.3s")
