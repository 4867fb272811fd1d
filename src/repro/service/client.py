"""Blocking client for the design service, on one raw keep-alive socket.

One :class:`ServiceClient` wraps one persistent HTTP/1.1 connection to a
``repro serve`` instance or a ``repro route`` fleet, and redials when
the server closes it.  It is deliberately synchronous — benchmark
workers, tests and notebooks drive it directly, and concurrency comes
from running many clients.  An instance is not thread-safe.

The client only moves bytes: each request is one ``sendall``, and a
reply is read with ``recv`` until :mod:`repro.service.wire`, the framing
codec the server and router share, has a whole head, body or event.
A reply that breaks the framing (not HTTP, cut short, a head over the
codec's bound) raises a ``ConnectionError`` naming ``host:port``.

A trace id bound in the calling context (``trace_context``) rides on
every request as ``X-Repro-Trace``, so the server (or the router, and
through it every backend and pool worker) joins the caller's trace tree.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import time
import urllib.parse

from ..obs.tracing import format_trace_header
from . import wire

__all__ = ["ServiceClient", "ServiceError"]


class ServiceError(RuntimeError):
    """A non-2xx response from the design service."""

    def __init__(self, status: int, payload: dict):
        self.status = status
        self.payload = payload if isinstance(payload, dict) else {}
        message = self.payload.get("error", repr(payload))
        super().__init__(f"HTTP {status}: {message}")


class _BudgetTimeout(TimeoutError):
    """A timeout already attributed to one budget (connect vs read) —
    the message names which one expired."""


class ServiceClient:
    """Talk to a running design service.

    Two separate time budgets: *connect_timeout* bounds the TCP dial
    (``None`` shares *timeout*, the old single-budget behavior) and
    *timeout* bounds each read.  An expired budget surfaces as a
    :class:`ServiceError` (HTTP 504, client-synthesized) from the
    high-level methods — its message names which budget ran out.
    *retries* is the transport-level retry allowance for **idempotent
    GETs** (and mid-:meth:`stream` resumes): connection resets and
    refusals are retried with a short jittered backoff; timeouts are
    never retried (the budget is the contract).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8731,
                 timeout: float = 120.0,
                 connect_timeout: float | None = None,
                 retries: int = 2):
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.retries = max(0, int(retries))
        self._sock: socket.socket | None = None

    @classmethod
    def from_url(cls, url: str, timeout: float = 120.0,
                 connect_timeout: float | None = None,
                 retries: int = 2) -> "ServiceClient":
        """``ServiceClient.from_url("http://127.0.0.1:8731")``; a URL
        with any path but ``/``, or without a host, is a ValueError."""
        parts = urllib.parse.urlsplit(url if "//" in url else "//" + url)
        try:
            port = parts.port or 80     # ValueError: not a port number
            if (not parts.hostname or parts.scheme not in ("", "http")
                    or parts.path not in ("", "/") or parts.query):
                raise ValueError
        except ValueError:
            raise ValueError(f"not a service URL: {url!r} (expected "
                             "http://host:port)") from None
        return cls(host=parts.hostname, port=port, timeout=timeout,
                   connect_timeout=connect_timeout, retries=retries)

    # -- transport ---------------------------------------------------------

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str,
                body: dict | None = None) -> dict:
        """One round-trip; raises :class:`ServiceError` on non-2xx.

        A transport failure is retried as :func:`wire.may_resend`
        allows, a GET up to *retries* more times.  An expired time
        budget raises :class:`ServiceError` with a synthesized 504
        naming the budget.
        """
        status, data = self._roundtrip(method, path, body)
        decoded = wire.decode_json(data)
        if status >= 400:
            raise ServiceError(status, decoded)
        return decoded

    def request_text(self, method: str, path: str) -> str:
        """Like :meth:`request`, but return the raw response body as
        text — for non-JSON endpoints (the Prometheus exposition of
        ``GET /metrics``)."""
        status, data = self._roundtrip(method, path, None)
        text = data.decode(errors="replace")
        if status >= 400:
            raise ServiceError(status, {"error": text})
        return text

    def _dial(self) -> socket.socket:
        """Dial under *connect_timeout*, then rebind the socket to the
        read *timeout* — so a refused/blackholed backend fails fast
        without shrinking the budget for slow-but-working responses."""
        connect = (self.connect_timeout if self.connect_timeout is not None
                   else self.timeout)
        try:
            sock = socket.create_connection((self.host, self.port), connect)
        except TimeoutError:
            raise _BudgetTimeout(
                f"connect to {self.host}:{self.port} exceeded the "
                f"connect budget (connect_timeout={connect:g}s)") from None
        sock.settimeout(self.timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def _message(self, method: str, path: str,
                 payload: bytes | None) -> bytes:
        """The whole request, with the bound trace id if any."""
        return wire.encode_request(method, path, self.host, self.port,
                                   payload, format_trace_header())

    def _named(self, exc: ConnectionError) -> ConnectionError:
        return type(exc)(f"{self.host}:{self.port} {exc}")

    def _recv(self, sock: socket.socket, replied: bool) -> bytes:
        if more := sock.recv(65536):
            return more
        raise wire.eof_error(replied)

    def _reply(self, sock: socket.socket, stream: bool = False):
        """``(status, body, keep-alive)`` of one reply; with *stream*
        and a status below 400, the body is a generator of the lines of
        the chunked NDJSON that follows the head.  A failure to read it
        is a ``ConnectionError`` naming the peer."""
        try:
            data = self._recv(sock, False)
            while (end := wire.head_end(data)) < 0:
                data += self._recv(sock, True)
            status, length, keep = wire.parse_response(data[:end])
            if stream and status < 400:
                return status, self._chunked_lines(sock, data[end:]), False
            parts = [data[end:]]
            if length is None:
                while more := sock.recv(65536):
                    parts.append(more)
                return status, b"".join(parts), False
            got = len(parts[0])
            while got < length:
                parts.append(self._recv(sock, True))
                got += len(parts[-1])
        except ConnectionError as exc:
            raise self._named(exc) from None
        return status, b"".join(parts)[:length], keep and got == length

    def _chunked_lines(self, sock: socket.socket, data: bytes):
        decoder = wire.ChunkedLines()
        try:
            yield from decoder.feed(data)
            while not decoder.done:
                yield from decoder.feed(self._recv(sock, True))
        except ConnectionError as exc:
            raise self._named(exc) from None

    def _read_timeout(self, exc: OSError) -> _BudgetTimeout:
        if isinstance(exc, _BudgetTimeout):
            return exc
        return _BudgetTimeout(
            f"read from {self.host}:{self.port} exceeded the total "
            f"budget (timeout={self.timeout:g}s; the connect budget did "
            f"not expire)")

    def _retry_pause(self, attempt: int) -> None:
        time.sleep(min(1.0, 0.02 * 2 ** attempt) * (0.5 + random.random()))

    def _roundtrip(self, method: str, path: str,
                   body: dict | None) -> tuple[int, bytes]:
        message = self._message(method, path, None if body is None
                                else json.dumps(body).encode())
        # Non-GETs keep the historical two attempts (the second only
        # replaces a stale keep-alive socket); idempotent GETs add the
        # transport retry allowance on top.
        attempts = 2 + (self.retries if method == "GET" else 0)
        attempt = 0
        while True:
            sent = False
            try:
                if self._sock is None:
                    self._sock = self._dial()
                self._sock.sendall(message)
                sent = True
                status, data, keep = self._reply(self._sock)
            except OSError as exc:
                self.close()
                if isinstance(exc, TimeoutError):
                    raise ServiceError(504, {
                        "error": str(self._read_timeout(exc))}) from exc
                if (not wire.may_resend(method, sent)
                        or attempt == attempts - 1):
                    raise
                self._retry_pause(attempt)
                attempt += 1
                continue
            if not keep:
                self.close()
            return status, data

    # -- endpoints ---------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/healthz")

    def metrics(self) -> str:
        """The server's Prometheus text exposition — ``GET /metrics``."""
        return self.request_text("GET", "/metrics")

    def metrics_snapshot(self) -> dict:
        """The mergeable JSON snapshot — ``GET /metrics?format=json``
        (the router serves the fleet-merged one); what ``repro top``
        polls."""
        return self.request("GET", "/metrics?format=json")

    def trace(self, drain: bool = False,
              trace_id: str | None = None) -> dict:
        """The span buffer as Chrome-trace JSON — ``GET /trace``.
        Through the router this is the fan-and-merged fleet tree.
        ``drain=True`` clears the buffers as it reads (scrape pattern);
        *trace_id* filters to one request's tree."""
        params = {}
        if drain:
            params["drain"] = "1"
        if trace_id:
            params["trace_id"] = trace_id
        path = "/trace"
        if params:
            path += "?" + urllib.parse.urlencode(params)
        return self.request("GET", path)

    def profile(self, seconds: float | None = None,
                hz: float | None = None) -> dict:
        """A CPU profile — ``GET /debug/profile``: a capture of
        *seconds* (the server's 2 s default when None)."""
        params = {}
        if seconds is not None:
            params["seconds"] = f"{seconds:g}"
        if hz is not None:
            params["hz"] = f"{hz:g}"
        path = "/debug/profile"
        if params:
            path += "?" + urllib.parse.urlencode(params)
        return self.request("GET", path)

    def backends(self) -> list[dict]:
        """Registered emitter backend families (name, description,
        artifact names, option schema) — ``GET /backends``."""
        return self.request("GET", "/backends")["backends"]

    def generate(self, request: dict | None = None,
                 include_rtl: bool = False, **fields) -> dict:
        """Generate (or fetch) one design.  *request* is a design-request
        dict (``DesignRequest.to_dict`` shape, partial is fine); keyword
        fields are a shorthand: ``client.generate(kernel="gemm",
        array=[4, 4], backend="hls_c")``."""
        spec = dict(request or {})
        spec.update(fields)
        body = {"request": spec}
        if include_rtl:
            body["include_rtl"] = True
        return self.request("POST", "/generate", body)

    def batch(self, requests: list[dict], workers: int | None = None,
              include_rtl: bool = False) -> str:
        """Submit a batch job; returns the job id."""
        body: dict = {"requests": list(requests)}
        if workers is not None:
            body["workers"] = workers
        if include_rtl:
            body["include_rtl"] = True
        return self.request("POST", "/batch", body)["job"]

    def explore(self, models: list[str] | None = None, **params) -> str:
        """Start an exploration job; returns the job id.  *params* pass
        through: ``strategy``, ``objective``, ``max_evals``, ``seed``,
        ``area_budget_mm2``, ``space``."""
        body = dict(params)
        if models is not None:
            body["models"] = list(models)
        return self.request("POST", "/explore", body)["job"]

    def jobs(self) -> list[dict]:
        return self.request("GET", "/jobs")["jobs"]

    def job(self, job_id: str) -> dict:
        return self.request("GET", f"/jobs/{job_id}")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.05) -> dict:
        """Poll ``GET /jobs/<id>`` until the job is done or failed;
        returns the final job dict (raises :class:`TimeoutError` on
        timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            state = self.job(job_id)
            if state["status"] in ("done", "failed"):
                return state
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {state['status']} after "
                    f"{timeout:.0f}s")
            # Cap the sleep to the remaining budget: a full poll_s past
            # the deadline would overshoot timeout=1.0, poll_s=0.5 to
            # ~1.5s.
            time.sleep(min(poll_s, remaining))

    def stream(self, job_id: str):
        """Follow ``GET /jobs/<id>/stream``: yield each NDJSON event
        (per-result dicts for batches, then one ``{"event": "end",
        "job": ...}``) as the server produces it — replacing a
        :meth:`wait` poll loop.

        Runs on its own connection (the server closes a stream's
        connection when it ends), so the client's persistent connection
        stays usable; abandoning the generator early closes the stream.
        """
        message = self._message("GET", f"/jobs/{job_id}/stream", None)
        # Resume state: the server replays a job's buffered events from
        # the start of every stream, so after a mid-stream drop we
        # reconnect and skip the `seen` events already yielded
        # (replay-then-follow).  `failures` resets on progress, so a
        # long stream tolerates `retries` *consecutive* drops, not
        # `retries` total.
        seen = 0
        failures = 0
        while True:
            sock = None
            try:
                sock = self._dial()
                sock.sendall(message)
                status, body, _keep = self._reply(sock, stream=True)
                if status >= 400:
                    raise ServiceError(status, wire.decode_json(body))
                for line in itertools.islice(body, seen, None):
                    event = json.loads(line.decode())
                    seen += 1
                    failures = 0
                    yield event
                    if (isinstance(event, dict)
                            and event.get("event") == "end"):
                        return  # the protocol's terminal event
                # The zero-size chunk came before the "end" event, the
                # only trusted ending: resume like any mid-stream drop.
                raise self._named(wire.ProtocolError(
                    f"ended the stream before the terminal event ({seen} "
                    "events seen)"))
            except OSError as exc:
                if isinstance(exc, TimeoutError):
                    raise self._read_timeout(exc) from exc
                failures += 1
                if failures > self.retries:
                    raise
                self._retry_pause(failures)
            finally:
                if sock is not None:
                    sock.close()
