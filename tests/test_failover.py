"""Self-healing fleet behavior end to end: replica failover with zero
client-visible errors, breaker re-close after a backend revives on the
same port, and mid-stream resume (replay-then-follow) — against a
deterministic truncating fake server, and against a real server with
an injected ``stream-event`` connection drop, directly and behind the
router."""

import contextlib
import json
import socket
import threading
import time

import pytest

from repro.obs import get_registry, snapshot_children
from repro.service import (BatchEngine, DesignCache, RouterThread,
                           ServerThread, ServiceClient, ServiceError,
                           get_faults, reset_faults)
from repro.service.server import _request_from_body

TINY = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}
TINY2 = {"kernel": "gemm", "dataflows": ["KJ"], "array": [3, 3]}


@pytest.fixture(autouse=True)
def _clean_faults():
    reset_faults()
    yield
    reset_faults()


def _shard_of(spec: dict, n: int = 2) -> int:
    return int(_request_from_body(spec).spec_hash()[:2], 16) % n


def _specs_for_shard(index: int, count: int, n: int = 2) -> list[dict]:
    out = []
    for a in range(2, 40):
        for b in range(2, 40):
            spec = {"kernel": "gemm", "array": [a, b]}
            if _shard_of(spec, n) == index:
                out.append(spec)
                if len(out) == count:
                    return out
    raise AssertionError("design space too small for shard sampling")


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _retries_total() -> float:
    snapshot = get_registry().snapshot()
    return sum(value for _labels, value in snapshot_children(
        snapshot, "repro_router_retries_total"))


class TestReplicaFailover:
    def test_dead_primary_fails_over_to_replica(self, tmp_path):
        backends = [
            ServerThread(BatchEngine(
                cache=DesignCache(root=tmp_path / f"s{i}"))).start()
            for i in range(2)]
        # prober off: the request path alone must fail over
        router = RouterThread([b.url for b in backends], replicas=2,
                              probe_interval_s=0,
                              retry_budget_s=5.0).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                spec0 = _specs_for_shard(0, 1)[0]
                spec1 = _specs_for_shard(1, 1)[0]
                assert c.generate(spec0)["ok"]
                assert c.generate(spec1)["ok"]
                before = _retries_total()
                backends[0].stop()
                # shard 0's primary is gone: its replica answers (cache
                # miss there — regenerated, not 502)
                assert c.generate(spec0)["ok"]
                assert c.generate(spec1)["ok"]
                assert _retries_total() > before
                health = c.health()
                assert health["ok"] is False
                assert health["status"] == "degraded"
                assert health["replicas"] == 2
        finally:
            router.stop()
            for backend in backends:
                with contextlib.suppress(Exception):
                    backend.stop()

    def test_replica_owns_consecutive_range(self, tmp_path):
        backends = [
            ServerThread(BatchEngine(
                cache=DesignCache(root=tmp_path / f"s{i}"))).start()
            for i in range(3)]
        router = RouterThread([b.url for b in backends], replicas=2,
                              probe_interval_s=0).start()
        try:
            assert router.server.owners_of(0) == [0, 1]
            assert router.server.owners_of(2) == [2, 0]
        finally:
            router.stop()
            for backend in backends:
                backend.stop()


class TestBreakerRecovery:
    def test_backend_revival_recloses_breaker(self, tmp_path):
        port = _free_port()
        root = tmp_path / "cache"
        backend = ServerThread(BatchEngine(
            cache=DesignCache(root=root)), port=port).start()
        router = RouterThread([f"http://127.0.0.1:{port}"],
                              probe_interval_s=0.2,
                              retry_budget_s=0.4).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                assert c.generate(TINY)["ok"]
                backend.stop()
                with pytest.raises(ServiceError) as err:
                    c.generate(TINY)
                assert err.value.status == 502
                deadline = time.monotonic() + 10
                while (time.monotonic() < deadline
                       and c.health()["status"] != "down"):
                    time.sleep(0.05)
                assert c.health()["status"] == "down"
                # revive on the same port, same cache: the prober's
                # next success closes the breaker (cooldowns are capped
                # at the probe interval)
                backend = ServerThread(BatchEngine(
                    cache=DesignCache(root=root)), port=port).start()
                deadline = time.monotonic() + 10
                while (time.monotonic() < deadline
                       and c.health()["status"] != "up"):
                    time.sleep(0.05)
                health = c.health()
                assert health["status"] == "up"
                assert health["backends"][0]["breaker"]["state"] == \
                    "closed"
                assert c.generate(TINY)["from_cache"]
        finally:
            router.stop()
            with contextlib.suppress(Exception):
                backend.stop()


class _TruncatingStreamServer(threading.Thread):
    """A fake stream endpoint honoring the server's replay contract:
    every connection replays the event list from the start; the first
    connection truncates after two events (mid-stream death)."""

    def __init__(self, events: list[dict]):
        super().__init__(daemon=True)
        self.events = events
        self.connections = 0
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self._halt = threading.Event()

    def run(self):
        self.sock.settimeout(0.1)
        while not self._halt.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            with conn:
                try:
                    conn.settimeout(1.0)
                    request = b""
                    while b"\r\n\r\n" not in request:
                        chunk = conn.recv(65536)
                        if not chunk:
                            break
                        request += chunk
                    self.connections += 1
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\n"
                        b"Content-Type: application/x-ndjson\r\n"
                        b"Transfer-Encoding: chunked\r\n"
                        b"Connection: close\r\n\r\n")
                    complete = self.connections > 1
                    count = len(self.events) if complete else 2
                    for event in self.events[:count]:
                        data = json.dumps(event).encode() + b"\n"
                        conn.sendall(b"%x\r\n" % len(data) + data
                                     + b"\r\n")
                    if complete:
                        conn.sendall(b"0\r\n\r\n")
                    # else: close without the terminal chunk — the
                    # client sees a truncated chunked stream
                except OSError:
                    pass

    def stop(self):
        self._halt.set()
        self.sock.close()
        self.join(timeout=5)


class TestStreamResume:
    def test_replay_then_follow_skips_seen_events(self):
        events = ([{"event": "result", "n": i} for i in range(4)]
                  + [{"event": "end"}])
        fake = _TruncatingStreamServer(events)
        fake.start()
        try:
            with ServiceClient.from_url(fake.url) as c:
                got = list(c.stream("whatever"))
            # exactly one resume, no duplicated or lost events
            assert fake.connections == 2
            assert got == events
        finally:
            fake.stop()

    def test_stream_survives_injected_drop(self, tmp_path):
        server = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "cache"))).start()
        try:
            with ServiceClient.from_url(server.url) as c:
                job = c.batch([TINY, TINY2])
                c.wait(job, timeout=180)
                c.request("POST", "/debug/faults",
                          {"site": "server:stream-event", "kind": "drop",
                           "count": 1})
                got = list(c.stream(job))
                assert [e.get("event") for e in got].count("end") == 1
                assert got[-1]["event"] == "end"
                hashes = [e["result"]["spec_hash"] for e in got
                          if e.get("event") == "result"]
                assert len(hashes) == len(set(hashes)) == 2
        finally:
            server.stop()

    def test_backend_drop_behind_router_resumes_client_side(self,
                                                           tmp_path):
        """The router relays a backend's stream on its loop; a backend
        that drops mid-stream ends the relay without ``end`` and the
        client's replay-then-follow resumes through the router."""
        backends = [ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / f"s{i}"))).start()
            for i in range(2)]
        router = RouterThread([b.url for b in backends],
                              probe_interval_s=0).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                job = c.batch(_specs_for_shard(1, 2))
                assert job.startswith("s1.")
                assert c.wait(job, timeout=180)["status"] == "done"
            with ServiceClient.from_url(backends[1].url) as c:
                c.request("POST", "/debug/faults",
                          {"site": "server:stream-event", "kind": "drop",
                           "count": 1})
            with ServiceClient.from_url(router.url) as c:
                got = list(c.stream(job))
            assert get_faults().active() == []  # the drop did fire
            assert [e.get("event") for e in got].count("end") == 1
            assert got[-1]["event"] == "end"
            assert got[-1]["job"]["id"] == job  # re-tagged s1.
            hashes = [e["result"]["spec_hash"] for e in got
                      if e.get("event") == "result"]
            assert len(hashes) == len(set(hashes)) == 2
        finally:
            router.stop()
            for backend in backends:
                backend.stop()
