"""Blocking client for the design service (stdlib ``http.client``).

One :class:`ServiceClient` wraps one persistent HTTP/1.1 connection to a
``repro serve`` instance; it reconnects transparently when the server
closes the socket.  The client is deliberately synchronous — benchmark
worker processes, tests, and notebook users all drive it directly, and
concurrency comes from running many clients, exactly like production
traffic.  A client instance is not thread-safe: give each thread or
process its own.

When a trace id is bound in the calling context (``trace_context``),
every request carries it in the ``X-Repro-Trace`` header — so the
server (or the router, and through it every backend and pool worker)
joins the caller's trace tree instead of minting an unrelated id.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import urllib.parse

from ..obs.tracing import TRACE_HEADER, format_trace_header

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
        self._conn: http.client.HTTPConnection | None = None

    @classmethod
    def from_url(cls, url: str, timeout: float = 120.0,
                 connect_timeout: float | None = None,
                 retries: int = 2) -> "ServiceClient":
        """``ServiceClient.from_url("http://127.0.0.1:8731")``."""
        hostport = url.split("//", 1)[-1].rstrip("/")
        host, _, port = hostport.partition(":")
        return cls(host=host, port=int(port or 80), timeout=timeout,
                   connect_timeout=connect_timeout, retries=retries)

    # -- transport ---------------------------------------------------------

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def request(self, method: str, path: str,
                body: dict | None = None) -> dict:
        """One round-trip; raises :class:`ServiceError` on non-2xx.

        A stale keep-alive socket is retried once — but only when the
        failure happened while *sending* (the server cannot have acted
        on a half-written request) or on an idempotent GET (which gets
        the full *retries* allowance).  A POST whose response was lost
        is NOT resent: ``/batch``/``/explore`` would create a duplicate
        job.  An expired time budget raises :class:`ServiceError` with
        a synthesized 504 naming the budget.
        """
        try:
            status, data = self._roundtrip(method, path, body)
        except _BudgetTimeout as exc:
            raise ServiceError(504, {"error": str(exc)}) from exc
        try:
            decoded = json.loads(data.decode()) if data else {}
        except ValueError:
            decoded = {"error": data.decode(errors="replace")}
        if status >= 400:
            raise ServiceError(status, decoded)
        return decoded

    def request_text(self, method: str, path: str) -> str:
        """Like :meth:`request`, but return the raw response body as
        text — for non-JSON endpoints (the Prometheus exposition of
        ``GET /metrics``)."""
        try:
            status, data = self._roundtrip(method, path, None)
        except _BudgetTimeout as exc:
            raise ServiceError(504, {"error": str(exc)}) from exc
        text = data.decode(errors="replace")
        if status >= 400:
            raise ServiceError(status, {"error": text})
        return text

    def _new_connection(self) -> http.client.HTTPConnection:
        """Dial under *connect_timeout*, then rebind the socket to the
        read *timeout* — so a refused/blackholed backend fails fast
        without shrinking the budget for slow-but-working responses."""
        connect = (self.connect_timeout if self.connect_timeout is not None
                   else self.timeout)
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=connect)
        try:
            conn.connect()
        except TimeoutError:
            conn.close()
            raise _BudgetTimeout(
                f"connect to {self.host}:{self.port} exceeded the "
                f"connect budget (connect_timeout={connect:g}s)") from None
        except OSError:
            conn.close()
            raise
        if conn.sock is not None:
            conn.sock.settimeout(self.timeout)
        return conn

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
        payload = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"}
        trace = format_trace_header()  # bound trace id, if any
        if trace is not None:
            headers[TRACE_HEADER] = trace
        # Non-GETs keep the historical two attempts (the second only
        # replaces a stale keep-alive socket); idempotent GETs add the
        # transport retry allowance on top.
        attempts = 2 + (self.retries if method == "GET" else 0)
        last_exc: BaseException | None = None
        for attempt in range(attempts):
            try:
                if self._conn is None:
                    self._conn = self._new_connection()
                self._conn.request(method, path, body=payload,
                                   headers=headers)
            except (ConnectionError, http.client.HTTPException,
                    OSError) as exc:
                self.close()
                if isinstance(exc, TimeoutError):
                    raise self._read_timeout(exc) from exc
                last_exc = exc
                if attempt == attempts - 1:
                    raise
                self._retry_pause(attempt)
                continue
            try:
                response = self._conn.getresponse()
                return response.status, response.read()
            except (ConnectionError, http.client.HTTPException,
                    OSError) as exc:
                self.close()
                if isinstance(exc, TimeoutError):
                    raise self._read_timeout(exc) from exc
                if method != "GET" or attempt == attempts - 1:
                    raise
                last_exc = exc
                self._retry_pause(attempt)
        raise ConnectionError(  # pragma: no cover — loop always raises
            f"could not reach {self.host}:{self.port}: {last_exc}")

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

    def metrics_history(self, samples: int | None = None) -> dict:
        """The server's metrics time series — ``GET /metrics/history``
        (``samples`` trims to the most recent N)."""
        path = "/metrics/history"
        if samples is not None:
            path += f"?samples={int(samples)}"
        return self.request("GET", path)

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
        """A CPU profile — ``GET /debug/profile``.  With *seconds*, a
        one-shot capture of that length; without, a snapshot of the
        server's always-on profiler (``repro serve --profile``)."""
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

    def explore(self, models: list[str] | None = None,
                checkpoint: dict | None = None, **params) -> str:
        """Start (or, with *checkpoint*, resume) an exploration job;
        returns the job id.  *params* pass through: ``strategy``,
        ``objective``, ``max_evals``, ``seed``, ``step_evals``,
        ``area_budget_mm2``, ``space``."""
        body = dict(params)
        if models is not None:
            body["models"] = list(models)
        if checkpoint is not None:
            body["checkpoint"] = checkpoint
        return self.request("POST", "/explore", body)["job"]

    def jobs(self) -> list[dict]:
        return self.request("GET", "/jobs")["jobs"]

    def job(self, job_id: str, checkpoint: bool = True) -> dict:
        path = f"/jobs/{job_id}" + ("" if checkpoint else "?checkpoint=0")
        return self.request("GET", path)

    def pause(self, job_id: str) -> dict:
        return self.request("POST", f"/jobs/{job_id}/pause")

    def resume(self, job_id: str) -> dict:
        return self.request("POST", f"/jobs/{job_id}/resume")

    def wait(self, job_id: str, timeout: float = 300.0,
             poll_s: float = 0.05,
             until: tuple[str, ...] = ("done", "failed", "paused"),
             ) -> dict:
        """Poll ``GET /jobs/<id>`` until the job settles; returns the
        final job dict (raises :class:`TimeoutError` on timeout).

        Polls exclude the checkpoint (which grows with an exploration's
        evaluated rows); only the final fetch carries it.
        """
        deadline = time.monotonic() + timeout
        while True:
            state = self.job(job_id, checkpoint=False)
            if state["status"] in until:
                return self.job(job_id)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still {state['status']} after "
                    f"{timeout:.0f}s")
            # Cap the sleep to the remaining budget: a full poll_s past
            # the deadline would overshoot timeout=1.0, poll_s=0.5 to
            # ~1.5s.
            time.sleep(min(poll_s, remaining))

    def stream(self, job_id: str, checkpoint: bool = True):
        """Follow ``GET /jobs/<id>/stream``: yield each NDJSON event
        (per-result dicts for batches, per-step checkpoints for
        explorations, then one ``{"event": "end", "job": ...}``) as the
        server produces it — replacing a :meth:`wait` poll loop.

        Runs on its own connection (the server closes a stream's
        connection when it ends), so the client's persistent connection
        stays usable; abandoning the generator early closes the stream.
        """
        path = (f"/jobs/{job_id}/stream"
                + ("" if checkpoint else "?checkpoint=0"))
        # Resume state: the server replays a job's buffered events from
        # the start of every stream, so after a mid-stream connection
        # reset we reconnect and skip the `seen` events already yielded
        # (replay-then-follow).  `failures` resets on progress, so a
        # long stream tolerates `retries` *consecutive* drops, not
        # `retries` total.
        seen = 0
        failures = 0
        while True:
            try:
                conn = self._new_connection()
            except (ConnectionError, OSError) as exc:
                if isinstance(exc, TimeoutError):
                    raise  # already budget-named by _new_connection
                failures += 1
                if failures > self.retries:
                    raise
                self._retry_pause(failures)
                continue
            try:
                try:
                    conn.request("GET", path)
                    response = conn.getresponse()
                except (ConnectionError, http.client.HTTPException,
                        OSError) as exc:
                    if isinstance(exc, TimeoutError):
                        raise self._read_timeout(exc) from exc
                    failures += 1
                    if failures > self.retries:
                        raise
                    self._retry_pause(failures)
                    continue
                if response.status >= 400:
                    data = response.read()
                    try:
                        decoded = (json.loads(data.decode())
                                   if data else {})
                    except ValueError:
                        decoded = {"error": data.decode(errors="replace")}
                    raise ServiceError(response.status, decoded)
                # http.client undoes the chunked framing; each line is
                # one JSON event.
                skip = seen
                try:
                    for raw in response:
                        line = raw.strip()
                        if not line:
                            continue
                        if skip:
                            skip -= 1
                            continue
                        event = json.loads(line.decode())
                        seen += 1
                        failures = 0
                        yield event
                        if (isinstance(event, dict)
                                and event.get("event") == "end"):
                            return  # the protocol's terminal event
                except (ConnectionError, http.client.HTTPException,
                        OSError) as exc:
                    if isinstance(exc, TimeoutError):
                        raise self._read_timeout(exc) from exc
                    failures += 1
                    if failures > self.retries:
                        raise
                    self._retry_pause(failures)
                else:
                    # EOF before the "end" event: the server died
                    # mid-stream.  A truncated chunked response reads
                    # as a clean EOF here (http.client's line iteration
                    # swallows the IncompleteRead), so only the "end"
                    # event above is trusted as a real ending — resume
                    # this like any other mid-stream drop.
                    failures += 1
                    if failures > self.retries:
                        raise ConnectionError(
                            "stream ended before the terminal event "
                            f"({seen} events seen)")
                    self._retry_pause(failures)
            finally:
                conn.close()
