"""Single-flight dedup under concurrency: the in-flight registry that
makes concurrent ``execute_request`` calls for the same phase key wait
on one computation instead of each recomputing.

Three layers of hammering:

* :class:`SingleFlight` unit semantics — leader/waiter accounting,
  failure propagation (``BaseException`` included: a leader killed
  mid-flight must release its waiters, not deadlock them), slot release
  on both success and failure, waiter-timeout reclaim;
* ``execute_request`` — N threads against one cold spec run the
  pipeline exactly once and all share one :class:`DesignResult`;
* a live :class:`DesignServer` — concurrent HTTP clients requesting
  the same cold spec pay one schedule phase between them.
"""

import threading
import time

import pytest

from repro.obs import get_registry
from repro.service import (BatchEngine, DesignCache, ServerThread,
                           ServiceClient)
from repro.service import spec as spec_module
from repro.service.cache import SingleFlight
from repro.service.spec import DesignRequest, execute_request

TINY = dict(kernel="gemm", dataflows=("KJ",), array=(2, 2))


def schedule_count() -> float:
    return get_registry().value("repro_phase_seconds", phase="schedule")


def run_threads(n: int, target) -> list:
    """Run *target(i)* in n threads; returns [(value|exception), ...]."""
    out: list = [None] * n
    def wrap(i):
        try:
            out[i] = target(i)
        except BaseException as exc:  # noqa: BLE001 — collected on purpose
            out[i] = exc
    threads = [threading.Thread(target=wrap, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads), "deadlocked threads"
    return out


class TestSingleFlightUnit:
    def test_one_leader_many_waiters(self):
        flights = SingleFlight()
        calls = []
        gate = threading.Event()
        started = threading.Barrier(9)

        def compute():
            calls.append(1)
            gate.wait(10)
            return "value"

        def caller(_i):
            started.wait(10)
            return flights.run("p", "k", compute)

        # Hold the leader inside fn until everyone has had a chance to
        # join its flight.
        release = threading.Timer(0.2, gate.set)
        release.start()
        try:
            results = run_threads(9, caller)
        finally:
            release.cancel()
            gate.set()
        assert len(calls) == 1
        assert all(value == "value" for value, _ in results)
        assert sum(1 for _, lead in results if lead) == 1
        assert len(flights) == 0  # slot released

    def test_leader_failure_propagates_and_releases_slot(self):
        flights = SingleFlight()
        attempts = []
        gate = threading.Event()

        def explode():
            attempts.append(1)
            gate.wait(10)
            raise ValueError("boom")

        def caller(_i):
            return flights.run("p", "k", explode)

        threading.Timer(0.2, gate.set).start()
        results = run_threads(4, caller)
        assert len(attempts) == 1
        assert all(isinstance(r, ValueError) for r in results)
        # the failed flight is gone: a retry recomputes (and can heal)
        assert len(flights) == 0
        value, lead = flights.run("p", "k", lambda: "healed")
        assert value == "healed" and lead

    def test_killed_leader_releases_waiters(self):
        """A leader dying on a non-Exception BaseException (the
        killed-mid-flight scenario) must still wake its waiters and
        surface the kill — never leave them blocked forever."""
        flights = SingleFlight()
        gate = threading.Event()

        def die():
            gate.wait(10)
            raise KeyboardInterrupt

        def caller(_i):
            return flights.run("p", "k", die)

        threading.Timer(0.2, gate.set).start()
        results = run_threads(3, caller)
        assert all(isinstance(r, KeyboardInterrupt) for r in results)
        assert len(flights) == 0

    def test_waiter_timeout_reclaims(self):
        """A waiter that stops trusting a hung leader recomputes for
        itself instead of deadlocking."""
        flights = SingleFlight()
        hang = threading.Event()
        leader_in = threading.Event()

        def hung_leader():
            leader_in.set()
            hang.wait(30)
            return "stale"

        leader = threading.Thread(
            target=lambda: flights.run("p", "k", hung_leader))
        leader.start()
        assert leader_in.wait(10)
        value, lead = flights.run("p", "k", lambda: "fresh",
                                  timeout=0.05)
        assert value == "fresh" and lead
        hang.set()
        leader.join(timeout=10)
        assert not leader.is_alive()

    def test_distinct_keys_do_not_serialize(self):
        flights = SingleFlight()
        barrier = threading.Barrier(4, timeout=10)

        def compute(i):
            def fn():
                # All four computations must be in flight at once for
                # the barrier to open — same phase, distinct keys.
                barrier.wait()
                return i
            return flights.run("p", f"k{i}", fn)

        results = run_threads(4, compute)
        assert sorted(value for value, _ in results) == [0, 1, 2, 3]
        assert all(lead for _, lead in results)


class TestExecuteRequestDedup:
    def test_n_threads_one_pipeline_run(self, tmp_path, monkeypatch):
        cache = DesignCache(root=tmp_path / "cache")
        request = DesignRequest(**TINY)
        # Hold the leader inside its flight until every caller is on its
        # way in.  The compile takes ~30 ms and run_threads starts its
        # callers one by one, so on a stalled host a late caller used to
        # find the flight over, lead a second one (answered from the
        # phase tier) and come back with its own DesignResult: a fact
        # about the scheduler, not about single-flight.
        n, arrived, all_arrived = 8, [], threading.Event()
        compute = spec_module._execute_request_once

        def held(*args):
            assert all_arrived.wait(30)
            return compute(*args)

        def caller(i):
            arrived.append(i)
            if len(arrived) == n:
                all_arrived.set()
            return execute_request(request, cache=cache)

        monkeypatch.setattr(spec_module, "_execute_request_once", held)
        before = schedule_count()
        results = run_threads(n, caller)
        assert schedule_count() - before == 1
        assert not any(isinstance(r, BaseException) for r in results)
        assert all(r.ok for r in results)
        # every caller shares the leader's DesignResult object
        assert all(r is results[0] for r in results)

    def test_backend_variants_share_one_schedule(self, tmp_path):
        """Concurrent requests for *different* backends of one design
        single-flight the schedule through the design_key slot."""
        cache = DesignCache(root=tmp_path / "cache")
        backends = ["verilog", "hls_c"] * 3
        before = schedule_count()
        results = run_threads(
            len(backends),
            lambda i: execute_request(
                DesignRequest(backend=backends[i], **TINY), cache=cache))
        assert schedule_count() - before == 1
        assert all(r.ok for r in results)
        assert len({r.spec_hash for r in results}) == 2


class TestServerDedup:
    @pytest.fixture()
    def server(self, tmp_path):
        cache = DesignCache(root=tmp_path / "serve-cache")
        handle = ServerThread(BatchEngine(cache=cache)).start()
        yield handle
        handle.stop()

    def test_concurrent_clients_one_schedule(self, server):
        spec = {"kernel": "gemm", "dataflows": ["KJ"], "array": [3, 3]}
        before = schedule_count()

        def hit(_i):
            with ServiceClient.from_url(server.url) as client:
                return client.generate(spec)

        results = run_threads(8, hit)
        assert not any(isinstance(r, BaseException) for r in results)
        assert all(r["ok"] for r in results)
        assert len({r["spec_hash"] for r in results}) == 1
        assert schedule_count() - before == 1
