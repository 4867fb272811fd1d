"""The router's backend transport: forwards, relayed streams and
health probes run on the event loop over pooled keep-alive
connections.  No router thread is left behind and no telemetry thread
samples in the background; a
backend that hangs up, truncates or omits ``Content-Length`` is named
and counted exactly once; ``ServiceClient``'s resend rule holds (a GET
is resent once after any transport error, a POST only when the send
itself failed); a backend restarted on the same port is reached again;
and ``stop()`` closes every pooled connection."""

import gc
import socket
import threading
import warnings

import pytest

from repro.service import (BatchEngine, DesignCache, RouterThread,
                           ServerThread, ServiceClient, ServiceError)
from repro.service.server import _request_from_body

TINY = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}

OK = (b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      b"Content-Length: 12\r\n\r\n{\"ok\": true}")


def _specs_for_shard(index: int, count: int, n: int = 2) -> list[dict]:
    out = []
    for a in range(2, 40):
        for b in range(2, 40):
            spec = {"kernel": "gemm", "array": [a, b]}
            if int(_request_from_body(spec).spec_hash()[:2], 16) % n \
                    == index:
                out.append(spec)
                if len(out) == count:
                    return out
    raise AssertionError("design space too small for shard sampling")


class _ScriptedBackend(threading.Thread):
    """A raw socket backend.  Every request on the *n*-th connection is
    answered with ``reply(n)``: bytes to send, or ``None`` to hang up
    without answering.  A reply without ``Content-Length`` (or with
    ``Connection: close``) ends its connection; any other keeps it
    alive for the next request, like ``repro serve``."""

    def __init__(self, reply):
        super().__init__(daemon=True)
        self.reply = reply
        self.connections = 0
        self.sock = socket.socket()
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
            self.connections += 1
            threading.Thread(target=self._serve, daemon=True,
                             args=(conn, self.connections)).start()

    def _serve(self, conn, number):
        with conn:
            buffer = b""
            try:
                while True:
                    while b"\r\n\r\n" not in buffer:
                        chunk = conn.recv(65536)
                        if not chunk:
                            return
                        buffer += chunk
                    head, _, buffer = buffer.partition(b"\r\n\r\n")
                    length = 0
                    for line in head.lower().split(b"\r\n"):
                        if line.startswith(b"content-length:"):
                            length = int(line.split(b":")[1])
                    while len(buffer) < length:
                        buffer += conn.recv(65536)
                    buffer = buffer[length:]
                    answer = self.reply(number)
                    if answer is None:
                        return
                    conn.sendall(answer)
                    lowered = answer.lower()
                    if (b"content-length" not in lowered
                            or b"connection: close" in lowered):
                        return
            except OSError:
                return

    def stop(self):
        self._halt.set()
        self.sock.close()
        self.join(timeout=5)


@pytest.fixture()
def scripted():
    """``scripted(reply)`` -> ``(backend, router)`` with the prober off
    and a retry budget shorter than the first backoff, so each routed
    request is exactly one forward."""
    started = []

    def start(reply):
        backend = _ScriptedBackend(reply)
        backend.start()
        router = RouterThread([backend.url], probe_interval_s=0,
                              retry_budget_s=0.01).start()
        started.append((backend, router))
        return backend, router

    yield start
    for backend, router in started:
        router.stop()
        backend.stop()


def _failures(router) -> int:
    return router.server.health[0].failures


def _router_threads(router) -> list[str]:
    return [t.name for t in threading.enumerate()
            if (t.name.startswith("repro-route") and t is not router._thread)
            or t.name == "repro-health-prober"]


class TestOnTheLoop:
    def test_no_forward_threads(self, tmp_path):
        """Forwards, a relayed job stream and a live prober all run on
        the router's loop thread."""
        backends = [ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / f"s{i}"))).start()
            for i in range(2)]
        router = RouterThread([b.url for b in backends],
                              probe_interval_s=0.05).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                assert c.generate(TINY)["ok"]
                single = c.batch(_specs_for_shard(0, 2))
                fanned = c.batch(_specs_for_shard(0, 1)
                                 + _specs_for_shard(1, 1))
                assert single.startswith("s0.")
                assert fanned.startswith("fan-")
                for job in (single, fanned):
                    assert c.wait(job, timeout=180)["status"] == "done"
                assert c.job(single)["id"] == single
                assert c.health()["ok"]
                assert "# TYPE" in c.metrics()
                assert {single, fanned} <= {j["id"] for j in c.jobs()}
                events = list(c.stream(single))
                assert events[-1]["job"]["id"] == single
                assert _router_threads(router) == []
            assert router.server.health[0].state == "up"
            assert _router_threads(router) == []
        finally:
            router.stop()
            for backend in backends:
                backend.stop()

    def test_no_background_telemetry_threads(self):
        """A default server and router sample nothing in the
        background: no metrics-history recorder, no always-on
        profiler."""
        backend = ServerThread(BatchEngine(cache=None)).start()
        router = RouterThread([backend.url]).start()
        try:
            names = {t.name for t in threading.enumerate()}
            assert not names & {"repro-metrics-history", "repro-profiler"}
        finally:
            router.stop()
            backend.stop()

    def test_stop_closes_pooled_connections(self):
        backend = ServerThread(BatchEngine(cache=None)).start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                router = RouterThread([backend.url],
                                      probe_interval_s=0).start()
                with ServiceClient.from_url(router.url) as c:
                    assert c.backends()
                    assert c.health()["ok"]
                assert router.server._idle[0], "nothing was pooled"
                router.stop()
                del router
                gc.collect()
            leaks = [str(w.message) for w in caught
                     if issubclass(w.category, ResourceWarning)]
            assert leaks == []
        finally:
            backend.stop()


class TestBackendFaults:
    def test_eof_before_status_line_is_reset(self, scripted):
        backend, router = scripted(lambda n: None)
        with ServiceClient.from_url(router.url) as c:
            with pytest.raises(ServiceError) as err:
                c.generate(TINY)
        assert err.value.status == 502
        assert err.value.payload["reason"] == "reset"
        assert _failures(router) == 1
        assert backend.connections == 1

    def test_short_body_is_protocol(self, scripted):
        _backend, router = scripted(lambda n: (
            b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n"
            b"Connection: close\r\n\r\n{\"ok\": true}"))
        with ServiceClient.from_url(router.url) as c:
            with pytest.raises(ServiceError) as err:
                c.generate(TINY)
        assert err.value.status == 502
        assert err.value.payload["reason"] == "protocol"
        assert _failures(router) == 1

    def test_no_content_length_read_to_eof_not_reused(self, scripted):
        backend, router = scripted(lambda n: (
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n"
            b"{\"ok\": true}"))
        with ServiceClient.from_url(router.url) as c:
            assert c.generate(TINY) == {"ok": True}
            assert router.server._idle[0] == []
            assert c.generate(TINY) == {"ok": True}
        assert backend.connections == 2
        assert _failures(router) == 0

    def test_keep_alive_connection_is_reused(self, scripted):
        backend, router = scripted(lambda n: OK)
        with ServiceClient.from_url(router.url) as c:
            for _ in range(3):
                assert c.generate(TINY) == {"ok": True}
        assert backend.connections == 1


class TestResendRule:
    @staticmethod
    def _first_connection_hangs_up(n):
        return None if n == 1 else OK

    def test_get_resent_after_read_failure(self, scripted):
        backend, router = scripted(self._first_connection_hangs_up)
        with ServiceClient.from_url(router.url) as c:
            assert c.job("s0.job-1") == {"ok": True}
        assert backend.connections == 2
        assert _failures(router) == 0

    def test_post_not_resent_after_read_failure(self, scripted):
        backend, router = scripted(self._first_connection_hangs_up)
        with ServiceClient.from_url(router.url) as c:
            with pytest.raises(ServiceError) as err:
                c.generate(TINY)
        assert err.value.payload["reason"] == "reset"
        assert backend.connections == 1

    def test_post_resent_after_send_failure(self, scripted):
        backend, router = scripted(lambda n: OK)
        connect = router.server._connect
        dials = []

        async def stale_first(index):
            dials.append(index)
            if len(dials) == 1:
                raise ConnectionResetError("stale keep-alive socket")
            return await connect(index)

        router.server._connect = stale_first
        with ServiceClient.from_url(router.url) as c:
            assert c.generate(TINY) == {"ok": True}
        assert dials == [0, 0]
        assert backend.connections == 1
        assert _failures(router) == 0


def test_backend_restarted_on_same_port(tmp_path):
    backend = ServerThread(BatchEngine(
        cache=DesignCache(root=tmp_path / "cache"))).start()
    port = backend.port
    router = RouterThread([backend.url], probe_interval_s=0,
                          retry_budget_s=5.0).start()
    try:
        with ServiceClient.from_url(router.url) as c:
            assert c.generate(TINY)["ok"]
            assert router.server._idle[0], "nothing was pooled"
            backend.stop()
            backend = ServerThread(BatchEngine(
                cache=DesignCache(root=tmp_path / "cache")),
                port=port).start()
            assert c.generate(TINY)["from_cache"]
    finally:
        router.stop()
        backend.stop()
