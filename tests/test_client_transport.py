"""The ``ServiceClient`` transport contract, against a scripted peer.

Each test runs a :class:`Peer`: a listening socket on a thread that
hands every accepted connection to a script and records each request
it reads.  The scripts misbehave on purpose — they stall, reset, hang
up mid-reply, drop ``Content-Length`` or truncate a chunk — and the
tests pin what the client promises in each case: which budget a 504
names, which calls are retried, that a POST whose reply was lost is not
resent, how a reply is framed, and how a job stream resumes.
"""

import json
import re
import socket
import struct
import threading

import pytest

from repro.obs import trace_context
from repro.service import ServiceClient, ServiceError


def read_request(rfile):
    """``(request line, lower-cased headers, body)`` of the next request
    on *rfile*, or None at EOF."""
    line = rfile.readline()
    if not line:
        return None
    headers = {}
    while (raw := rfile.readline()) not in (b"\r\n", b""):
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = rfile.read(int(headers.get("content-length", 0)))
    return line.decode("latin-1").strip(), headers, body


def reply(conn, body: bytes = b"{}", status: str = "200 OK",
          headers: str = "") -> None:
    conn.sendall(f"HTTP/1.1 {status}\r\nContent-Length: {len(body)}\r\n"
                 f"{headers}\r\n".encode() + body)


def reset(conn) -> None:
    """Abort *conn*: the client sees a reset, not a clean close."""
    conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct.pack("ii", 1, 0))


def chunk(event: dict) -> bytes:
    data = json.dumps(event).encode() + b"\n"
    return b"%x\r\n" % len(data) + data + b"\r\n"


STREAM_HEAD = (b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n"
               b"Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n")


class Peer:
    """A scripted HTTP peer: ``script(peer, conn, rfile, n)`` serves the
    *n*-th accepted connection (one at a time); ``requests`` records
    ``(n, request line, headers)`` for every request a script read
    through :meth:`read`."""

    def __init__(self, script):
        self.script = script
        self.requests: list[tuple[int, str, dict]] = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def read(self, rfile, n: int):
        request = read_request(rfile)
        if request is not None:
            self.requests.append((n, request[0], request[1]))
        return request

    def _serve(self) -> None:
        n = 0
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            conn.settimeout(10)
            with conn, conn.makefile("rb") as rfile:
                try:
                    self.script(self, conn, rfile, n)
                except OSError:
                    pass
            n += 1

    def client(self, **kw) -> ServiceClient:
        return ServiceClient(port=self.port, **kw)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(10)
        self._listener.close()

    def __enter__(self) -> "Peer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@pytest.fixture
def peer():
    peers = []

    def start(script) -> Peer:
        peers.append(Peer(script))
        return peers[-1]

    yield start
    for p in peers:
        p.close()


def serve_all(peer, conn, rfile, n):
    """A well-behaved keep-alive peer."""
    while peer.read(rfile, n) is not None:
        reply(conn, b'{"ok": true}')


class TestBudgets:
    def test_read_budget_names_timeout(self, peer):
        """(a) The peer accepts and never answers."""
        def stall(peer, conn, rfile, n):
            peer.read(rfile, n)
            rfile.read()            # until the client gives up

        p = peer(stall)
        with p.client(timeout=0.3) as client, \
                pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 504
        assert "(timeout=0.3s" in str(err.value)
        assert "connect_timeout" not in str(err.value)
        assert len(p.requests) == 1           # a timeout is not retried

    def test_connect_budget_names_connect_timeout(self, peer, monkeypatch):
        """(b) The dial itself times out."""
        dials = []

        def blackhole(address, timeout=None, *args, **kw):
            dials.append(timeout)
            raise TimeoutError("timed out")

        monkeypatch.setattr(socket, "create_connection", blackhole)
        with ServiceClient(port=9, timeout=30, connect_timeout=0.25) \
                as client, pytest.raises(ServiceError) as err:
            client.health()
        assert err.value.status == 504
        assert "connect_timeout=0.25s" in str(err.value)
        assert dials == [0.25]                # dialled once, its budget


class TestRetries:
    def test_get_survives_two_resets(self, peer):
        """(c) ``retries=2``: two reset connections, then an answer."""
        def flaky(peer, conn, rfile, n):
            peer.read(rfile, n)
            if n < 2:
                reset(conn)
                return
            reply(conn, b'{"status": "ok"}')
            peer.read(rfile, n)

        p = peer(flaky)
        with p.client(retries=2) as client:
            assert client.health() == {"status": "ok"}
        assert [n for n, _, _ in p.requests] == [0, 1, 2]

    def test_get_gives_up_after_its_allowance(self, peer):
        def always_reset(peer, conn, rfile, n):
            peer.read(rfile, n)
            reset(conn)

        p = peer(always_reset)
        with p.client(retries=1) as client, \
                pytest.raises(ConnectionError):
            client.health()
        assert len(p.requests) == 3           # 2 + retries attempts

    def test_post_whose_reply_was_lost_is_not_resent(self, peer):
        """(d) The peer reads the POST and hangs up without a reply."""
        def hang_up(peer, conn, rfile, n):
            peer.read(rfile, n)

        p = peer(hang_up)
        with p.client(retries=5) as client, pytest.raises(OSError):
            client.generate(kernel="gemm")
        assert [line for _, line, _ in p.requests] == [
            "POST /generate HTTP/1.1"]


class TestFraming:
    def test_connection_close_makes_the_next_call_redial(self, peer):
        """(e) A ``Connection: close`` reply spends the socket, even
        when the peer would keep reading it."""
        def closing(peer, conn, rfile, n):
            while peer.read(rfile, n) is not None:
                reply(conn, b'{"n": %d}' % n, headers="Connection: close\r\n")

        p = peer(closing)
        with p.client() as client:
            assert client.health() == {"n": 0}
            assert client.health() == {"n": 1}
        assert [n for n, _, _ in p.requests] == [0, 1]

    def test_keep_alive_reuses_one_connection(self, peer):
        p = peer(serve_all)
        with p.client() as client:
            for _ in range(3):
                assert client.health() == {"ok": True}
        assert [n for n, _, _ in p.requests] == [0, 0, 0]

    def test_reply_without_content_length_is_read_to_eof(self, peer):
        """(e) No ``Content-Length``: the body runs to EOF, and the
        next call redials."""
        def to_eof(peer, conn, rfile, n):
            peer.read(rfile, n)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\n"
                         b"\r\nline one\nline two\n")
            conn.shutdown(socket.SHUT_WR)
            peer.read(rfile, n)

        p = peer(to_eof)
        with p.client() as client:
            assert client.metrics() == "line one\nline two\n"
            assert client.metrics() == "line one\nline two\n"
        assert [n for n, _, _ in p.requests] == [0, 1]

    def test_error_status_raises_with_the_payload(self, peer):
        def refuse(peer, conn, rfile, n):
            while peer.read(rfile, n) is not None:
                reply(conn, b'{"error": "no such job"}', "404 Not Found")

        p = peer(refuse)
        with p.client() as client, pytest.raises(ServiceError) as err:
            client.job("x")
        assert (err.value.status, err.value.payload) == (
            404, {"error": "no such job"})

    def test_request_carries_body_and_length(self, peer):
        bodies = []

        def echo(peer, conn, rfile, n):
            while (request := read_request(rfile)) is not None:
                bodies.append((request[0], request[2]))
                reply(conn, b'{"job": "j1"}')

        p = peer(echo)
        with p.client() as client:
            assert client.batch([{"kernel": "gemm"}], workers=2) == "j1"
        assert bodies == [("POST /batch HTTP/1.1", json.dumps(
            {"requests": [{"kernel": "gemm"}], "workers": 2}).encode())]

    def test_trace_header_carries_the_bound_id(self, peer):
        """(f) A bound trace id arrives as ``X-Repro-Trace``."""
        p = peer(serve_all)
        with p.client() as client:
            client.health()
            with trace_context("0123456789abcdef"):
                client.health()
        assert "x-repro-trace" not in p.requests[0][2]
        assert p.requests[1][2]["x-repro-trace"] == "0123456789abcdef"

    def test_a_reply_that_is_not_http_is_a_connection_error(self, peer):
        """Protocol failures are ``ConnectionError``s naming the peer,
        so every ``except OSError`` handler catches them."""
        def junk(peer, conn, rfile, n):
            peer.read(rfile, n)
            conn.sendall(b"I AM NOT HTTP\r\n\r\n")

        p = peer(junk)
        with p.client(retries=0) as client, \
                pytest.raises(ConnectionError, match=f"127.0.0.1:{p.port}"):
            client.metrics()

    def test_truncated_body_is_a_connection_error(self, peer):
        def short(peer, conn, rfile, n):
            peer.read(rfile, n)
            conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{")

        p = peer(short)
        with p.client() as client, \
                pytest.raises(ConnectionError, match="127.0.0.1"):
            client.generate(kernel="gemm")
        assert len(p.requests) == 1


EVENTS = [{"event": "result", "i": i} for i in range(4)]
END = {"event": "end", "job": {"id": "j", "status": "done"}}


class TestStream:
    def _stream_peer(self, peer, first_connection: bytes):
        """Connection 0 sends *first_connection* after the head and
        hangs up; every later one replays the whole stream."""
        def script(peer, conn, rfile, n):
            peer.read(rfile, n)
            conn.sendall(STREAM_HEAD)
            if n == 0:
                conn.sendall(first_connection)
                return              # hang up mid-stream
            conn.sendall(b"".join(map(chunk, EVENTS + [END])) + b"0\r\n\r\n")

        return peer(script)

    def test_events_arrive_in_order(self, peer):
        """(g) A whole chunked stream, one event per chunk."""
        p = self._stream_peer(peer, b"".join(map(chunk, EVENTS + [END])))
        with p.client() as client:
            assert list(client.stream("j")) == EVENTS + [END]
        assert p.requests[0][1] == "GET /jobs/j/stream HTTP/1.1"

    def test_drop_mid_stream_resumes_without_duplicates(self, peer):
        """(g) Replay-then-follow: the events seen before the drop are
        skipped on the replay."""
        p = self._stream_peer(peer, b"".join(map(chunk, EVENTS[:2])))
        with p.client() as client:
            assert list(client.stream("j")) == EVENTS + [END]
        assert [n for n, _, _ in p.requests] == [0, 1]

    def test_truncated_chunk_counts_as_a_drop(self, peer):
        """(g) A chunk cut short is a drop, not a clean ending."""
        p = self._stream_peer(peer, chunk(EVENTS[0]) + chunk(EVENTS[1])[:9])
        with p.client() as client:
            assert list(client.stream("j")) == EVENTS + [END]
        assert [n for n, _, _ in p.requests] == [0, 1]

    def test_eof_before_end_exhausts_retries(self, peer):
        def no_end(peer, conn, rfile, n):
            peer.read(rfile, n)
            conn.sendall(STREAM_HEAD + chunk(EVENTS[0]) + b"0\r\n\r\n")

        p = peer(no_end)
        with p.client(retries=1) as client, \
                pytest.raises(ConnectionError, match="terminal event"):
            list(client.stream("j"))
        assert len(p.requests) == 2

    def test_error_status_raises(self, peer):
        def missing(peer, conn, rfile, n):
            peer.read(rfile, n)
            reply(conn, b'{"error": "no such job: j"}', "404 Not Found",
                  "Connection: close\r\n")

        p = peer(missing)
        with p.client() as client, pytest.raises(ServiceError) as err:
            list(client.stream("j"))
        assert err.value.status == 404


class TestFromUrl:
    @pytest.mark.parametrize("url, host, port", [
        ("http://127.0.0.1:8731", "127.0.0.1", 8731),
        ("http://127.0.0.1:8731/", "127.0.0.1", 8731),
        ("http://[::1]:8731", "::1", 8731),
        ("http://[::1]:8731/", "::1", 8731),
        ("http://localhost", "localhost", 80),
        ("127.0.0.1:9001", "127.0.0.1", 9001),
    ])
    def test_accepted(self, url, host, port):
        client = ServiceClient.from_url(url, timeout=3)
        assert (client.host, client.port, client.timeout) == (host, port, 3)

    @pytest.mark.parametrize("url", [
        "http://127.0.0.1:8731/healthz", "http://127.0.0.1:8731/?x=1",
        "http://:8731", "http://", "http://127.0.0.1:port",
        "http://127.0.0.1:99999", "https://127.0.0.1:8731"])
    def test_rejected_naming_the_url(self, url):
        with pytest.raises(ValueError, match=re.escape(repr(url))):
            ServiceClient.from_url(url)

    def test_ipv6_host_line(self):
        message = ServiceClient.from_url("http://[::1]:8731")._message(
            "GET", "/healthz", b"")
        assert b"\r\nHost: [::1]:8731\r\n" in message
