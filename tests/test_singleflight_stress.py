"""Single-flight dedup under concurrency: a :class:`DesignServer`
keeps one compile per ``design_key`` in flight on its event loop, so
concurrent requests for one cold design pay one schedule phase between
them — whether they ask for the same spec (the waiters find its record
in the memory tier) or for different backends of it (the waiters' own
compiles load the scheduled design the first one stored).

Two layers:

* the loop's flight table alone — ``/generate`` handlers on an event
  loop, with the process pool replaced by a gated fake, so leader and
  waiter order is exact;
* a live server with two pool workers (with one, the pool would
  serialise the compiles and hide a missing dedup behind the disk
  tier): concurrent HTTP clients pay one schedule phase between them.
"""

import asyncio
import threading

import pytest

from repro.obs import get_registry
from repro.service import (BatchEngine, DesignCache, ServerThread,
                           ServiceClient)
from repro.service.server import DesignServer, Request, match_route
from repro.service.spec import DesignResult

TINY = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}


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


class FakePool:
    """Stands in for ``DesignServer._in_pool``: records each compile,
    holds it until :attr:`gate` opens, then returns the group's results
    (or raises :attr:`error`)."""

    def __init__(self):
        self.calls: list[str] = []
        self.in_flight = 0
        self.peak = 0
        self.gate = asyncio.Event()
        self.error: Exception | None = None

    async def __call__(self, fn, group, lookup, job=None):
        self.calls.append(group.design_key)
        self.in_flight += 1
        self.peak = max(self.peak, self.in_flight)
        try:
            await self.gate.wait()
            if self.error is not None:
                raise self.error
        finally:
            self.in_flight -= 1
        return [DesignResult(spec_hash=r.spec_hash(), request=r,
                             summary="fake")
                for r in [group.leader, *group.variants]]


def generate(server: DesignServer, spec: dict):
    """One ``POST /generate`` handler call, as the dispatcher makes it."""
    route, _ = match_route("/generate")
    return server._ep_generate(Request(route, "POST", "", {}, spec, None))


@pytest.fixture()
def loop_server(tmp_path):
    server = DesignServer(BatchEngine(cache=DesignCache(root=tmp_path)),
                          persist_jobs=False)
    server._in_pool = FakePool()
    return server


class TestSingleFlightUnit:
    def test_one_leader_many_waiters(self, loop_server):
        fake = loop_server._in_pool

        async def main():
            calls = [asyncio.ensure_future(generate(loop_server, TINY))
                     for _ in range(9)]
            await asyncio.sleep(0.05)  # every caller is in, one compiles
            assert fake.calls and fake.in_flight == 1
            fake.gate.set()
            return await asyncio.gather(*calls)

        answers = asyncio.run(main())
        assert len(fake.calls) == 1
        assert all(status == 200 and body["ok"]
                   for status, body in answers)
        # the eight waiters were answered from the memory tier
        assert sum(body["from_cache"] for _, body in answers) == 8
        assert loop_server._flights == {}  # slot released

    def test_killed_leader_releases_waiters(self, loop_server):
        """A leader whose client goes away mid-compile (its handler is
        cancelled) must not take the compile down with it: the waiters
        still get its result, and the slot is released."""
        fake = loop_server._in_pool

        async def main():
            leader = asyncio.ensure_future(generate(loop_server, TINY))
            await asyncio.sleep(0.02)
            waiters = [asyncio.ensure_future(generate(loop_server, TINY))
                       for _ in range(3)]
            await asyncio.sleep(0.02)
            leader.cancel()
            await asyncio.sleep(0.02)
            fake.gate.set()
            return await asyncio.gather(*waiters)

        answers = asyncio.run(main())
        assert len(fake.calls) == 1
        assert all(body["ok"] and body["from_cache"] for _, body in answers)
        assert loop_server._flights == {}

    def test_failed_flight_releases_slot(self, loop_server):
        """A compile that raises fails its own request and leaves no
        slot behind: the requests that waited on it compile for
        themselves, and once the fault heals a retry succeeds."""
        fake = loop_server._in_pool
        fake.error = RuntimeError("pool broke")

        async def main():
            leader = asyncio.ensure_future(generate(loop_server, TINY))
            await asyncio.sleep(0.02)
            waiter = asyncio.ensure_future(generate(loop_server, TINY))
            await asyncio.sleep(0.02)
            fake.gate.set()
            with pytest.raises(RuntimeError):
                await leader
            with pytest.raises(RuntimeError):
                await waiter
            assert loop_server._flights == {}
            fake.error = None
            return await generate(loop_server, TINY)

        status, body = asyncio.run(main())
        assert len(fake.calls) == 3  # leader, waiter's own, the retry
        assert status == 200 and body["ok"] and not body["from_cache"]

    def test_distinct_keys_do_not_serialize(self, loop_server):
        fake = loop_server._in_pool
        specs = [dict(TINY, array=[2, a]) for a in (2, 3, 4, 5)]

        async def main():
            calls = [asyncio.ensure_future(generate(loop_server, spec))
                     for spec in specs]
            await asyncio.sleep(0.05)
            fake.gate.set()
            return await asyncio.gather(*calls)

        answers = asyncio.run(main())
        assert fake.peak == len(specs)  # all four compiled at once
        assert all(body["ok"] for _, body in answers)


class TestServerDedup:
    @pytest.fixture()
    def server(self, tmp_path):
        cache = DesignCache(root=tmp_path / "serve-cache")
        handle = ServerThread(BatchEngine(cache=cache, workers=2)).start()
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

    def test_backend_variants_share_one_schedule(self, server):
        """Concurrent requests for *different* backends of one design
        share its schedule: the hls_c compile waits for the verilog one
        (or the other way round) and loads the design it stored."""
        spec = {"kernel": "gemm", "dataflows": ["KJ"], "array": [3, 3]}
        backends = ["verilog", "hls_c"] * 3
        before = schedule_count()

        def hit(i):
            with ServiceClient.from_url(server.url) as client:
                return client.generate(dict(spec, backend=backends[i]))

        results = run_threads(len(backends), hit)
        assert not any(isinstance(r, BaseException) for r in results)
        assert all(r["ok"] for r in results)
        assert len({r["spec_hash"] for r in results}) == 2
        assert schedule_count() - before == 1
