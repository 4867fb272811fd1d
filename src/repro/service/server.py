"""Asyncio HTTP front end: design requests stream in, results stream out.

``repro serve`` turns the batch engine into a long-lived service.  The
server is stdlib-only (``asyncio.start_server`` plus a small HTTP/1.1
reader/writer — no web framework): connections are multiplexed on the
event loop, blocking work (generation, DSE steps) runs on executor
threads against the shared :class:`~repro.service.engine.BatchEngine`,
and long-running work lives in a :class:`~repro.service.jobs.JobRegistry`
polled across requests.  Job bodies run on a **dedicated bounded
executor** (sized with ``max_jobs``, capped at 32 threads) while
synchronous ``/generate`` work keeps asyncio's default executor, so a
registry full of long-lived jobs cannot starve interactive requests.

The HTTP layer itself (connection handling, request parsing, dispatch
telemetry, JSON/text/chunked-stream responses) lives in
:class:`HttpServerBase`, shared with the fleet router
(:mod:`repro.service.router`), which speaks the same protocol in front
of N of these servers.

The HTTP surface is declared once, in the module-level :data:`ROUTES`
table below — dispatch, the 404/405 answers, metric labels, chaos-fault
sites and the router's forwarding policy all derive from it, and
``docs/serving.md`` documents each row.

When the engine has a cache, the job table is **journaled** under the
cache root (``<root>/jobs/``, see
:mod:`repro.service.persist`): every transition and every exploration
step's checkpoint hits disk, and a server rebooted on the same root
reloads the table — interrupted explorations park as ``paused``
(resumable via ``POST /jobs/<id>/resume``), interrupted batches fail
with an error explaining the restart.

Every ``POST /generate`` / ``/batch`` / ``/explore`` response carries a
``trace_id``: the request-scoped id stitched through every span the
request produces (pipeline phases, pool workers, job bodies), so one
grep over an exported Chrome trace reconstructs one request's story.
Telemetry lives in :mod:`repro.obs`; ``GET /metrics`` renders the
process-wide registry (per-route latency histograms, cache tier
hits/misses, phase timings, job-status gauges) in Prometheus text
format.

``POST /generate`` and each entry of ``POST /batch`` accept a
``"backend"`` request field naming the emitter family (``verilog`` by
default); designs emitted by different families are cached under
distinct content hashes, so a warm hit for one family is never served
for another.

`/explore` jobs advance in checkpointed steps
(:func:`repro.dse.checkpoint.run_checkpointed`): after every
``step_evals`` worth of evaluations the job's resumable checkpoint is
refreshed in the job table, so a poll always sees a snapshot that
survives a killed server — POST the checkpoint back to ``/explore`` on a
fresh server and the search resumes bit-for-bit.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import threading
import time
import traceback
import urllib.parse
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

from ..dse.checkpoint import run_checkpointed, space_from_dict
from ..obs import (DEFAULT_HZ, current_span_id, current_trace_id,
                   get_logger, get_registry, get_tracer, new_trace_id,
                   parse_trace_header, profile_for, refresh_trace_metrics,
                   setup_logging, trace_context, trace_span)
from .engine import BatchEngine
from .faults import FaultDrop, FaultError, get_faults
from .jobs import JobRegistry, RegistryFull
from .persist import JobJournal
from .spec import DesignRequest, DesignResult

__all__ = ["DesignServer", "HttpServerBase", "ROUTES", "Route",
           "ServerOnThread", "ServerThread", "StreamPayload", "serve"]

_STATUS_TEXT = {200: "OK", 202: "Accepted", 400: "Bad Request",
                404: "Not Found", 405: "Method Not Allowed",
                500: "Internal Server Error", 502: "Bad Gateway",
                503: "Service Unavailable"}
_MAX_BODY = 64 * 1024 * 1024
#: ``GET /debug/profile`` capture window without ``seconds=`` — the
#: ``repro profile --seconds`` default
_PROFILE_SECONDS = 2.0

_HTTP_REQUESTS = get_registry().counter(
    "repro_http_requests_total",
    "HTTP requests served, by normalized route and status",
    ("route", "method", "status"))
_HTTP_SECONDS = get_registry().histogram(
    "repro_http_request_seconds",
    "HTTP request handling latency by normalized route", ("route",))
_GENERATE_PATH = get_registry().counter(
    "repro_generate_path_total",
    "how /generate answers were produced: memory-tier hits stay on the "
    "event loop, everything else pays two executor handoffs", ("path",))
_JOBS_GAUGE = get_registry().gauge(
    "repro_jobs", "jobs in the registry by status", ("status",))


class Route(NamedTuple):
    """One endpoint of the HTTP surface — a row of :data:`ROUTES`."""

    #: allowed methods; anything else is the derived 405
    methods: tuple[str, ...]
    #: the path, ``<id>`` standing for a job id
    pattern: str
    #: endpoint name: ``_ep_<name>`` handles it, and (``faults`` aside)
    #: ``ServiceClient.<name>`` requests it
    name: str
    #: how ``repro route`` answers it — ``local``: the router process
    #: itself; ``any``: any live backend (round-robin, with failover);
    #: ``owner``: the backend(s) owning the spec-hash prefix;
    #: ``tagged``: the backend named by the job id's ``s<i>.`` tag;
    #: ``merged``: fanned to every backend and folded into one answer
    fleet: str

    @property
    def label(self) -> str:
        """The bounded ``route=`` metric label and chaos-fault site."""
        return self.pattern.replace("<id>", "{id}")

    @property
    def faultable(self) -> bool:
        """Chaos faults fire on every route but the chaos-control
        endpoint itself, so a latency/error fault can always be
        cleared remotely."""
        return self.name != "faults"


#: The HTTP surface, declared once (mirrored row for row by the
#: "Endpoints" table of ``docs/serving.md``).
ROUTES = (
    Route(("GET",), "/healthz", "health", "merged"),
    Route(("GET",), "/metrics", "metrics", "merged"),
    Route(("GET",), "/trace", "trace", "merged"),
    Route(("GET",), "/debug/profile", "profile", "merged"),
    Route(("GET", "POST"), "/debug/faults", "faults", "local"),
    Route(("GET",), "/backends", "backends", "any"),
    Route(("POST",), "/generate", "generate", "owner"),
    Route(("POST",), "/batch", "batch", "owner"),
    Route(("POST",), "/explore", "explore", "any"),
    Route(("GET",), "/jobs", "jobs", "merged"),
    Route(("GET",), "/jobs/<id>", "job", "tagged"),
    Route(("GET",), "/jobs/<id>/stream", "stream", "tagged"),
    Route(("POST",), "/jobs/<id>/pause", "pause", "tagged"),
    Route(("POST",), "/jobs/<id>/resume", "resume", "tagged"),
)
_STATIC_ROUTES = {r.pattern: r for r in ROUTES if "<id>" not in r.pattern}
#: per-job routes by what follows the id ("" for ``/jobs/<id>`` itself)
_JOB_ROUTES = {r.pattern.partition("<id>")[2].lstrip("/"): r
               for r in ROUTES if "<id>" in r.pattern}
#: the one metric label / fault site of every path the table lacks, so
#: junk traffic cannot mint a time series per path
UNMATCHED = "unmatched"


def match_route(path: str) -> tuple[Route | None, str | None]:
    """``path`` → ``(route, job id)``: a dict hit for the static paths,
    one prefix test for ``/jobs/<id>[/<action>]``, else no route."""
    route = _STATIC_ROUTES.get(path)
    if route is None and path.startswith("/jobs/"):
        job_id, _, action = path[6:].rstrip("/").partition("/")
        if job_id:
            return _JOB_ROUTES.get(action), job_id
    return route, None


class Request(NamedTuple):
    """What a matched route's handler receives."""

    route: Route
    method: str
    query: str          # raw (the router passes it through to backends)
    params: dict        # the query, parsed once (first value per key)
    data: object        # the decoded JSON body ({} when there is none)
    job_id: str | None


class _BadRequest(ValueError):
    """Client error: reported as a 400 with the message as payload."""

    status = 400


class _NotFound(_BadRequest):
    status = 404


def _parse_query(query: str) -> dict:
    """The query string as ``{key: first value}`` — parsed here, once
    per request; handlers compare values, never substrings."""
    if not query:
        return {}
    return {k: v[0] for k, v in urllib.parse.parse_qs(query).items()}


def _parse_body(body: bytes):
    try:
        return json.loads(body.decode()) if body else {}
    except (ValueError, UnicodeDecodeError) as exc:
        raise _BadRequest(f"malformed JSON body: {exc}") from None


def _check_number(data: dict, key: str, kind=(int, float),
                  minimum=None) -> None:
    """400 on a wrongly-typed optional numeric field instead of a
    failed job with an internal traceback."""
    value = data.get(key)
    if value is None:
        return
    if isinstance(value, bool) or not isinstance(value, kind):
        raise _BadRequest(f'"{key}" must be a number, got {value!r}')
    if minimum is not None and value < minimum:
        raise _BadRequest(f'"{key}" must be >= {minimum}, got {value!r}')


def _request_from_body(data: dict) -> DesignRequest:
    """A full :class:`DesignRequest` from a (possibly partial) dict,
    with unknown keys rejected rather than silently ignored."""
    if not isinstance(data, dict):
        raise _BadRequest("design request must be a JSON object")
    base = DesignRequest().to_dict()
    unknown = set(data) - set(base)
    if unknown:
        raise _BadRequest(f"unknown design request fields: "
                          f"{sorted(unknown)}")
    base.update(data)
    try:
        return DesignRequest.from_dict(base)
    except (ValueError, TypeError, KeyError) as exc:
        raise _BadRequest(f"invalid design request: {exc}") from None


class StreamPayload:
    """Marker payload: a handler that returns one of these switches
    the response to chunked ``application/x-ndjson`` streaming — one
    JSON document per line, one chunk per event, connection closed when
    the stream ends.  Subclasses implement :meth:`events`."""

    async def events(self, closing: threading.Event):
        """Async-iterate the stream's events (dicts are JSON-encoded,
        strings pass through verbatim as one line)."""
        raise NotImplementedError
        yield  # pragma: no cover — makes this an async generator

    def close(self) -> None:
        """Release what the stream holds.  Called once its response
        ends, whether or not :meth:`events` ever ran."""


class _JobStream(StreamPayload):
    """Live NDJSON view of one job: replays the buffered events, then
    follows new ones at a small poll cadence *on the event loop* (no
    executor thread is held), and terminates with an ``end`` event
    carrying the full job dict once the job settles (done / failed /
    paused) or the server starts closing."""

    poll_s = 0.05

    def __init__(self, job, include_checkpoint: bool = True):
        self.job = job
        self.include_checkpoint = include_checkpoint

    def _strip(self, event: dict) -> dict:
        if self.include_checkpoint or "checkpoint" not in event:
            return event
        return {k: v for k, v in event.items() if k != "checkpoint"}

    async def events(self, closing: threading.Event):
        cursor = 0
        while True:
            fresh, cursor = self.job.events_since(cursor)
            for event in fresh:
                yield self._strip(event)
            if self.job.settled() or closing.is_set():
                break
            await asyncio.sleep(self.poll_s)
        fresh, cursor = self.job.events_since(cursor)
        for event in fresh:
            yield self._strip(event)
        yield {"event": "end",
               "job": self.job.to_dict(
                   include_checkpoint=self.include_checkpoint)}


class HttpServerBase:
    """Shared asyncio HTTP/1.1 front end of the serving tier.

    Owns the socket lifecycle and the protocol plumbing — connection
    handling with keep-alive, request parsing, table-driven dispatch
    (:data:`ROUTES`) with per-route telemetry and slow-request logging,
    JSON/text responses plus chunked NDJSON streams
    (:class:`StreamPayload`) — and the endpoints that only concern the
    process itself: ``/debug/faults`` and the local halves of
    ``/trace`` and ``/debug/profile``.  The design server and
    the fleet router are both thin layers over this: subclasses supply
    the remaining ``_ep_<name>`` handlers and may override
    :meth:`_route_raw` to answer before the JSON body is even parsed
    (the router's warm proxy path).
    """

    log_name = "serve"
    #: prefix of this process's chaos-fault sites (the router overrides
    #: it): each request fires ``<scope>:<route label>``
    fault_scope = "server"

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 slow_request_ms: float = 1000.0):
        self.host = host
        self.port = port
        #: requests slower than this are logged at WARNING with their
        #: route and trace id (0 disables the check)
        self.slow_request_ms = slow_request_ms
        self._log = get_logger(self.log_name)
        self._server: asyncio.AbstractServer | None = None
        self._closing = threading.Event()
        self._tasks: set = set()
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "HttpServerBase":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=_MAX_BODY)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        self._closing.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge idle keep-alive connections so their handler coroutines
        # finish cleanly instead of being cancelled at loop teardown.
        for writer in list(self._writers):
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        await asyncio.sleep(0.05)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- routing hooks (subclass responsibility) ---------------------------

    def banner(self) -> str:
        """The one-line startup announcement (must contain ``url``)."""
        raise NotImplementedError

    def _handler(self, route: Route):
        """The coroutine function answering *route* on this tier."""
        return getattr(self, "_ep_" + route.name)

    async def _route_raw(self, route: Route, body: bytes):
        """Pre-parse fast path: return ``(status, payload)`` to answer
        without JSON-decoding *body*, or ``None`` to fall through to
        the route's handler."""
        return None

    def _refresh_gauges(self) -> None:
        """Bring gauges that describe current state up to date (before
        every ``/metrics`` scrape)."""
        refresh_trace_metrics()

    # -- HTTP plumbing -----------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._writers.add(writer)
        try:
            while not self._closing.is_set():
                request = await self._read_request(reader, writer)
                if request is None:
                    break
                method, path, headers, body = request
                try:
                    status, payload = await self._dispatch(
                        method, path, body, headers)
                except FaultDrop:
                    # injected connection drop: abort without writing a
                    # response — the peer sees a reset, exactly as if
                    # the process died mid-request
                    writer.transport.abort()
                    break
                keep_alive = (headers.get("connection", "").lower()
                              != "close")
                if isinstance(payload, StreamPayload):
                    # Streams close the connection when they end: the
                    # terminating zero-chunk plus Connection: close is
                    # simpler and safer than re-synchronizing
                    # keep-alive framing after an aborted stream.
                    await self._respond_stream(writer, status, payload)
                    break
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader, writer):
        """One HTTP/1.1 request -> (method, path, headers, body), or
        None when the peer closed the connection cleanly."""
        line = await reader.readline()
        if not line:
            return None
        try:
            method, path, _version = line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError):
            await self._respond(writer, 400,
                                {"error": "malformed request line"}, False)
            return None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > _MAX_BODY:
            await self._respond(writer, 400,
                                {"error": "bad Content-Length"}, False)
            return None
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, headers, body

    async def _respond(self, writer, status: int, payload,
                       keep_alive: bool) -> None:
        # A ``str`` payload is served verbatim as text (the Prometheus
        # exposition of /metrics); ``bytes`` pass through as
        # already-encoded JSON (the router's proxy path); everything
        # else is JSON-encoded here.
        if isinstance(payload, str):
            data = payload.encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif isinstance(payload, bytes):
            data = payload
            ctype = "application/json"
        else:
            data = json.dumps(payload).encode()
            ctype = "application/json"
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(data)}\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                f"\r\n\r\n")
        writer.write(head.encode("ascii") + data)
        await writer.drain()

    async def _respond_stream(self, writer, status: int,
                              stream: StreamPayload) -> None:
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n")
        try:
            writer.write(head.encode("ascii"))
            await writer.drain()
            async for event in stream.events(self._closing):
                try:
                    delay = get_faults().fire(
                        f"{self.fault_scope}:stream-event")
                except (FaultDrop, FaultError):
                    # mid-stream chaos: the response status is already
                    # on the wire, so both kinds truncate the chunked
                    # stream exactly like a crash between events —
                    # resume clients must replay-then-follow
                    writer.transport.abort()
                    return
                if delay:
                    await asyncio.sleep(delay)
                line = event if isinstance(event, str) else json.dumps(event)
                data = line.encode() + b"\n"
                writer.write(b"%x\r\n" % len(data) + data + b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        finally:
            stream.close()

    # -- dispatch ----------------------------------------------------------

    async def _dispatch(self, method: str, target: str, body: bytes,
                        headers: dict | None = None) -> tuple[int, dict]:
        t0 = time.perf_counter()
        # An incoming X-Repro-Trace header joins this request to the
        # caller's trace tree: the id pair is bound for the whole
        # dispatch, so handler spans parent under the upstream span and
        # handlers reuse the caller's trace id instead of minting one.
        trace_id, parent_id = parse_trace_header(
            (headers or {}).get("x-repro-trace"))
        if trace_id is None:
            return await self._dispatch_traced(method, target, body, t0)
        with trace_context(trace_id, parent_id):
            return await self._dispatch_traced(method, target, body, t0)

    async def _dispatch_traced(self, method, target, body,
                               t0) -> tuple[int, dict]:
        path, _, query = target.partition("?")
        route, job_id = match_route(path)
        label = route.label if route is not None else UNMATCHED
        try:
            if route is None or route.faultable:
                delay = get_faults().fire(f"{self.fault_scope}:{label}")
                if delay:
                    await asyncio.sleep(delay)
            if route is None:
                status, payload = 404, {
                    "error": f"no such endpoint: {path}"}
            elif method not in route.methods:
                status, payload = 405, {
                    "error": f"use {' or '.join(route.methods)} "
                             f"{route.pattern}"}
            else:
                answer = await self._route_raw(route, body)
                if answer is None:
                    answer = await self._handler(route)(Request(
                        route, method, query, _parse_query(query),
                        _parse_body(body), job_id))
                status, payload = answer
        except FaultError as exc:
            status, payload = 500, {"error": str(exc), "injected": True}
        except _BadRequest as exc:
            status, payload = exc.status, {"error": str(exc)}
        except RegistryFull as exc:
            status, payload = 503, {"error": str(exc)}
        except Exception as exc:  # noqa: BLE001 — must not die
            status = 500
            payload = {"error": f"{type(exc).__name__}: {exc}",
                       "traceback": traceback.format_exc()}
            self._log.error("500 on %s %s: %s", method, path, exc)
        elapsed = time.perf_counter() - t0
        _HTTP_SECONDS.labels(route=label).observe(elapsed)
        _HTTP_REQUESTS.labels(route=label, method=method,
                              status=str(status)).inc()
        if (self.slow_request_ms
                and elapsed * 1000.0 >= self.slow_request_ms):
            trace_id = (payload.get("trace_id", "-")
                        if isinstance(payload, dict) else "-")
            self._log.warning(
                "slow request: %s %s took %.1f ms (>= %.0f ms) "
                "trace_id=%s", method, label, elapsed * 1000.0,
                self.slow_request_ms, trace_id)
        else:
            self._log.debug("%s %s -> %d in %.1f ms", method, label,
                            status, elapsed * 1000.0)
        return status, payload

    # -- endpoints every tier answers about its own process ----------------

    async def _ep_faults(self, req: Request) -> tuple[int, dict]:
        """``/debug/faults``: the chaos-harness control surface.

        ``GET`` lists armed faults.  ``POST {"site", "kind", "rate"?,
        "param"?, "count"?}`` arms one; ``POST {"clear": true|"site"}``
        disarms.  Shared by server and router — either tier of a fleet
        can be broken (and healed) remotely.
        """
        registry = get_faults()
        data = req.data
        if req.method == "GET":
            return 200, {"faults": registry.active()}
        if not isinstance(data, dict):
            raise _BadRequest("body must be a JSON object")
        if "clear" in data:
            target = data["clear"]
            if target is True:
                cleared = registry.clear()
            elif isinstance(target, str):
                cleared = registry.clear(target)
            else:
                raise _BadRequest('"clear" must be true or a site name')
            return 200, {"cleared": cleared, "faults": registry.active()}
        try:
            fault = registry.arm(
                site=data.get("site"), kind=data.get("kind"),
                rate=data.get("rate", 1.0), param=data.get("param"),
                count=data.get("count"))
        except (TypeError, ValueError) as exc:
            raise _BadRequest(str(exc)) from None
        return 200, {"armed": fault.to_dict(),
                     "faults": registry.active()}

    async def _ep_trace(self, req: Request) -> tuple[int, dict]:
        """``GET /trace``: this process's span buffer as Chrome-trace
        JSON.  ``?drain=1`` drains it (the scrape-and-reset pattern);
        ``?trace_id=<id>`` filters to one request's tree."""
        tracer = get_tracer()
        drain = req.params.get("drain", "0") in ("1", "true")
        events = tracer.take() if drain else tracer.events()
        wanted = req.params.get("trace_id")
        if wanted:
            events = [e for e in events
                      if e.get("args", {}).get("trace_id") == wanted]
        return 200, {"traceEvents": events, "displayTimeUnit": "ms",
                     "pid": os.getpid(), "dropped": tracer.dropped}

    async def _capture_profile(self, params: dict):
        """This process's CPU profile for ``GET /debug/profile``: a
        blocking capture of ``seconds=N`` (default 2, clamped to 30) at
        ``hz=H`` on an executor thread."""
        try:
            secs = min(30.0, max(0.05, float(
                params.get("seconds", _PROFILE_SECONDS))))
            hz = float(params.get("hz", DEFAULT_HZ))
        except ValueError:
            raise _BadRequest('"seconds" and "hz" must be numbers') \
                from None
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, profile_for, secs, hz)

    async def _ep_profile(self, req: Request) -> tuple[int, dict]:
        profile = await self._capture_profile(req.params)
        return 200, profile.to_dict()


class DesignServer(HttpServerBase):
    """The serving front end around one shared :class:`BatchEngine`.

    With a cached engine and ``persist_jobs=True`` (the default) the
    job table is journaled under ``<cache root>/jobs/`` and
    reloaded on construction — see the module docstring's recovery
    matrix.  ``job_workers`` overrides the job-body executor width
    (defaults to ``min(max_jobs, 32)``).  Remaining keyword arguments
    (``host``, ``port``, ``slow_request_ms``) are
    :class:`HttpServerBase`'s.
    """

    def __init__(self, engine: BatchEngine | None = None,
                 step_evals: float = 1.0, max_jobs: int = 1024,
                 persist_jobs: bool = True,
                 job_workers: int | None = None, **http):
        super().__init__(**http)
        self.engine = engine if engine is not None else BatchEngine()
        #: default checkpoint step of `/explore` jobs, in
        #: full-model-equivalents (smaller = finer pause granularity)
        self.step_evals = step_evals
        journal = None
        if persist_jobs and self.engine.cache is not None:
            journal = JobJournal(self.engine.cache.root / "jobs")
        self.journal = journal
        self.jobs = JobRegistry(max_jobs=max_jobs, journal=journal)
        #: boot-recovery summary ({"jobs": n, "resumable": n,
        #: "failed": n}; all zero on a fresh root or without a journal)
        self.recovered = self.jobs.restore()
        if self.recovered.get("jobs"):
            self._log.info(
                "restored %d journaled job(s): %d exploration(s) parked "
                "paused (resumable), %d interrupted batch(es) failed",
                self.recovered["jobs"], self.recovered["resumable"],
                self.recovered["failed"])
        # Long-lived /batch and /explore job bodies get their own
        # bounded pool, sized consistently with the job registry: the
        # asyncio *default* executor (~32 threads) stays reserved for
        # synchronous /generate work, so a registry full of long jobs
        # can no longer starve interactive requests.
        self._job_executor = ThreadPoolExecutor(
            max_workers=(job_workers if job_workers
                         else max(1, min(max_jobs, 32))),
            thread_name_prefix="repro-job")

    async def stop(self) -> None:
        self._closing.set()
        # Queued-but-unstarted job bodies are dropped; running ones see
        # _closing at their next checkpoint and park themselves.
        self._job_executor.shutdown(wait=False, cancel_futures=True)
        # The dropped queued jobs would otherwise sit "queued" forever
        # and hang every wait() on them: transition them now — explore
        # parks paused (resumable, and journaled for the next boot),
        # batch fails with an explanation.
        swept = self.jobs.sweep_shutdown()
        if any(swept.values()):
            self._log.info("shutdown swept queued jobs: %s", swept)
        await super().stop()

    def banner(self) -> str:
        cache = self.engine.cache
        where = cache.root if cache is not None else "disabled"
        return (f"repro design service on {self.url} "
                f"(cache: {where}, workers: {self.engine.workers})")

    # -- read endpoints ----------------------------------------------------

    async def _ep_health(self, req: Request) -> tuple[int, dict]:
        from ..backends import backend_names

        cache = self.engine.cache
        return 200, {"ok": True,
                     "jobs": self.jobs.counts(),
                     "workers": self.engine.workers,
                     "backends": list(backend_names()),
                     "persist": self.journal is not None,
                     "recovered": self.recovered,
                     "trace": refresh_trace_metrics(),
                     "cache": (dict(cache.stats.as_dict(),
                                    root=str(cache.root),
                                    tiers=cache.stats.tiers())
                               if cache is not None else None)}

    def _refresh_gauges(self) -> None:
        for status, count in self.jobs.counts().items():
            _JOBS_GAUGE.labels(status=status).set(count)
        super()._refresh_gauges()

    async def _ep_metrics(self, req: Request) -> tuple[int, dict | str]:
        """``GET /metrics``: the Prometheus text exposition of the
        process-wide registry, or with ``?format=json`` its mergeable
        snapshot — what the fleet router folds across backends with
        :meth:`MetricsRegistry.merge`.  Gauges that describe current
        state are refreshed first."""
        self._refresh_gauges()
        if req.params.get("format") == "json":
            return 200, get_registry().snapshot()
        return 200, get_registry().render()

    async def _ep_backends(self, req: Request) -> tuple[int, dict]:
        from ..backends import backends_info

        return 200, {"backends": backends_info()}

    async def _ep_jobs(self, req: Request) -> tuple[int, dict]:
        return 200, {"jobs": self.jobs.list()}

    # -- write endpoints ---------------------------------------------------

    async def _ep_generate(self, req: Request) -> tuple[int, dict]:
        data = req.data
        if not isinstance(data, dict):
            raise _BadRequest("body must be a JSON object")
        include_rtl = bool(data.get("include_rtl", False))
        payload = data.get("request")
        if payload is None:
            payload = {k: v for k, v in data.items() if k != "include_rtl"}
        request = _request_from_body(payload)
        # Reuse the trace id an upstream hop sent in X-Repro-Trace (the
        # router's proxy span, or a traced client) so the whole request
        # is one tree; mint only for untraced callers.
        trace_id = current_trace_id() or new_trace_id()
        parent_id = current_span_id()
        # Warm fast path: answer *memory-tier* hits directly on the
        # event loop — such a hit is a dict lookup plus JSON, and
        # skipping the two executor-thread handoffs roughly halves warm
        # latency.  Disk-tier hits still go through the executor: their
        # open()+json.load() must not stall every other connection.
        if self.engine.cache is not None:
            key = request.spec_hash()
            record = self.engine.cache.get_memory(key)
            if record is not None:
                _GENERATE_PATH.labels(path="event_loop").inc()
                result = DesignResult.from_record(key, record)
                return 200, dict(result.to_json(include_rtl),
                                 trace_id=trace_id)
        _GENERATE_PATH.labels(path="executor").inc()
        loop = asyncio.get_running_loop()
        # contextvars do not follow work into executor threads, so the
        # trace id rides along explicitly and is re-bound over there.
        result = await loop.run_in_executor(
            None, self._submit_traced, request, trace_id, parent_id)
        return 200, dict(result.to_json(include_rtl), trace_id=trace_id)

    def _submit_traced(self, request: DesignRequest, trace_id: str,
                       parent_id: str | None = None) -> DesignResult:
        with trace_context(trace_id, parent_id):
            return self.engine.submit(request)

    async def _ep_batch(self, req: Request) -> tuple[int, dict]:
        data = req.data
        if not isinstance(data, dict) or "requests" not in data:
            raise _BadRequest('body must be {"requests": [...]}')
        specs = data["requests"]
        if not isinstance(specs, list) or not specs:
            raise _BadRequest('"requests" must be a non-empty list')
        _check_number(data, "workers", kind=int, minimum=1)
        requests = [_request_from_body(spec) for spec in specs]
        job = self.jobs.create("batch", {
            "include_rtl": bool(data.get("include_rtl", False)),
            "workers": data.get("workers"),
            "n_requests": len(requests),
        })
        job.trace_id = current_trace_id() or new_trace_id()
        job.trace_parent = current_span_id()
        self._submit(self._run_batch_job, job, requests)
        return 202, {"job": job.id, "status": job.status,
                     "requests": len(requests), "trace_id": job.trace_id}

    async def _ep_explore(self, req: Request) -> tuple[int, dict]:
        from ..models import zoo

        data = req.data
        if not isinstance(data, dict):
            raise _BadRequest("body must be a JSON object")
        checkpoint = data.get("checkpoint")
        if checkpoint is not None and not isinstance(checkpoint, dict):
            raise _BadRequest('"checkpoint" must be a checkpoint object')
        if checkpoint is not None:
            model_names = checkpoint.get("model_names", [])
        else:
            model_names = data.get("models", ["ResNet50"])
        if (not isinstance(model_names, list) or not model_names
                or not all(isinstance(m, str) for m in model_names)):
            raise _BadRequest('"models" must be a list of model names')
        unknown = [m for m in model_names if m not in zoo.MODEL_BUILDERS]
        if unknown:
            raise _BadRequest(f"unknown models {unknown}; choose from "
                              f"{sorted(zoo.MODEL_BUILDERS)}")
        step = data.get("step_evals", self.step_evals)
        if step is not None and (isinstance(step, bool)
                                 or not isinstance(step, (int, float))
                                 or step <= 0):
            raise _BadRequest('"step_evals" must be a positive number '
                              "(or null to run without pausing)")
        _check_number(data, "max_evals", minimum=1)
        _check_number(data, "seed", kind=int)
        _check_number(data, "area_budget_mm2")
        strategy = data.get("strategy", "exhaustive")
        params = {
            "models": model_names,
            "strategy": strategy,
            "objective": data.get("objective", "edp"),
            "max_evals": data.get("max_evals"),
            "seed": data.get("seed", 0),
            "area_budget_mm2": data.get("area_budget_mm2"),
            "space": data.get("space"),
            "step_evals": step,
            "checkpoint": checkpoint,
        }
        # Fail fast on bad strategy/space/objective before queueing.
        from ..dse.strategies import OBJECTIVES, get_strategy
        if (params["space"] is not None
                and not isinstance(params["space"], dict)):
            raise _BadRequest('"space" must be an object of DesignSpace '
                              "axes (see repro.dse.space_to_dict)")
        try:
            if checkpoint is None:
                get_strategy(strategy)
            if params["space"] is not None:
                space_from_dict(params["space"])
        except (ValueError, TypeError, KeyError) as exc:
            raise _BadRequest(str(exc)) from None
        if params["objective"] not in OBJECTIVES:
            raise _BadRequest(f"unknown objective "
                              f"{params['objective']!r}; expected "
                              f"{sorted(OBJECTIVES)}")
        job = self.jobs.create("explore", params)
        job.set_checkpoint(checkpoint)
        job.trace_id = current_trace_id() or new_trace_id()
        job.trace_parent = current_span_id()
        self._submit(self._run_explore_job, job)
        return 202, {"job": job.id, "status": job.status,
                     "resumed": checkpoint is not None,
                     "trace_id": job.trace_id}

    # -- per-job endpoints -------------------------------------------------

    def _job(self, req: Request):
        job = self.jobs.get(req.job_id)
        if job is None:
            raise _NotFound(f"no such job: {req.job_id}")
        return job

    async def _ep_job(self, req: Request) -> tuple[int, dict]:
        return 200, self._job(req).to_dict(
            include_checkpoint=req.params.get("checkpoint") != "0")

    async def _ep_stream(self, req: Request):
        return 200, _JobStream(
            self._job(req),
            include_checkpoint=req.params.get("checkpoint") != "0")

    async def _ep_pause(self, req: Request) -> tuple[int, dict]:
        job = self._job(req)
        if job.kind != "explore":
            raise _BadRequest("only explore jobs can be paused")
        if job.params.get("step_evals") is None:
            raise _BadRequest(
                "this job runs without a step_evals budget and cannot "
                "pause; submit with a step_evals to make an exploration "
                "pausable")
        accepted = job.pause()
        return (202 if accepted else 400,
                {"job": job.id, "status": job.status,
                 "accepted": accepted})

    async def _ep_resume(self, req: Request) -> tuple[int, dict]:
        job = self._job(req)
        if not job.resume():
            raise _BadRequest(f"job {job.id} is not paused "
                              f"(status {job.status})")
        self._submit(self._run_explore_job, job)
        return 202, {"job": job.id, "status": job.status}

    # -- background work (executor threads) --------------------------------

    def _submit(self, fn, *args) -> None:
        loop = asyncio.get_running_loop()
        task = loop.run_in_executor(self._job_executor, fn, *args)
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def _run_batch_job(self, job, requests) -> None:
        try:
            job.start()
            include_rtl = job.params.get("include_rtl", False)

            def progress(done, total, result):
                job.update_progress(done=done, total=total)
                # One stream event per finished request, so
                # /jobs/<id>/stream readers see results as they land
                # instead of waiting for the terminal summary.
                job.emit({"event": "result", "done": done, "total": total,
                          "result": result.to_json(include_rtl)})

            # Job bodies run on executor threads, which never inherit
            # the submitting request's context — re-bind the job's
            # trace id (and upstream parent span) so engine/pipeline
            # spans land under it.
            with trace_context(job.trace_id, job.trace_parent), \
                    trace_span("job:batch", job=job.id,
                               n_requests=len(requests)):
                # Record the planner's dry run before executing, so a
                # poller sees how the batch collapses (duplicates,
                # cache hits, schedule groups) while it is running.
                job.plan = self.engine.plan(requests).to_dict()
                results = self.engine.generate_many(
                    requests, workers=job.params.get("workers"),
                    progress=progress)
            job.finish({
                "results": [r.to_json(include_rtl) for r in results],
                "ok": sum(r.ok for r in results),
                "from_cache": sum(r.from_cache for r in results),
                "plan": job.plan,
                "failed": [{"spec_hash": r.spec_hash, "error": r.error,
                            "traceback": r.traceback}
                           for r in results if not r.ok],
            })
        except Exception as exc:  # noqa: BLE001 — job table captures it
            job.fail(f"{type(exc).__name__}: {exc}",
                     traceback.format_exc())

    def _run_explore_job(self, job) -> None:
        with trace_context(job.trace_id, job.trace_parent), \
                trace_span("job:explore", job=job.id):
            self._explore_body(job)

    def _explore_body(self, job) -> None:
        from ..models import zoo

        try:
            job.start()
            p = job.params
            models = [zoo.MODEL_BUILDERS[name]() for name in p["models"]]
            space = (space_from_dict(p["space"])
                     if p.get("space") is not None else None)
            ckpt = job.checkpoint
            step = p.get("step_evals")
            while True:
                if ckpt is None:
                    result, snapshot = run_checkpointed(
                        models, space, strategy=p["strategy"],
                        objective=p["objective"],
                        area_budget_mm2=p["area_budget_mm2"],
                        workers=self.engine.workers,
                        cache=self.engine.cache,
                        max_evals=p["max_evals"], seed=p["seed"],
                        model_names=p["models"], step_evals=step)
                else:
                    result, snapshot = run_checkpointed(
                        models=models, checkpoint=ckpt,
                        workers=self.engine.workers,
                        cache=self.engine.cache, step_evals=step)
                stalled = (job.checkpoint is not None
                           and snapshot.evals_used
                           <= job.checkpoint.get("evals_used", -1.0))
                ckpt = snapshot.to_dict()
                # set_checkpoint (vs plain assignment) journals the
                # snapshot, so a SIGKILL between steps loses at most
                # the step in flight.
                job.set_checkpoint(ckpt)
                job.update_progress(**snapshot.progress())
                job.emit({"event": "checkpoint",
                          "progress": snapshot.progress(),
                          "checkpoint": ckpt})
                if result is not None:
                    job.finish(result.to_json())
                    return
                if job.pause_requested or self._closing.is_set():
                    job.mark_paused()
                    return
                if stalled:
                    # Defense in depth: a step that charges nothing can
                    # never finish — fail loudly instead of spinning.
                    job.fail("exploration step made no progress "
                             f"(evals_used stuck at "
                             f"{snapshot.evals_used})")
                    return
        except Exception as exc:  # noqa: BLE001 — job table captures it
            job.fail(f"{type(exc).__name__}: {exc}",
                     traceback.format_exc())


# ---------------------------------------------------------------------------
# Entry points: blocking serve() for the CLI, ServerThread for embedding.
# ---------------------------------------------------------------------------

def _run_blocking(server: HttpServerBase, quiet: bool = False) -> None:
    """Run *server* until ctrl-C or SIGTERM — the body of both ``repro
    serve`` and ``repro route``.  Unless *quiet*, ``server.banner()``
    is printed once the socket is bound (so ``--port 0`` shows the
    real port)."""

    async def main() -> None:
        # `kill <pid>` (SIGTERM) must shut down as cleanly as ctrl-C:
        # queued jobs swept and journaled, the prober stopped.  Both
        # cancel this task on the loop (asyncio.run does it for SIGINT),
        # which ends serve_forever and runs stop() below.  The handler
        # goes in before the banner, which tells a caller it may signal.
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, asyncio.current_task().cancel)
        try:
            await server.start()
            if not quiet:
                print(server.banner(), flush=True)
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            # a second SIGTERM must not cancel stop() half way
            loop.add_signal_handler(signal.SIGTERM, lambda: None)
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover — ctrl-C path
        pass


def serve(port: int = 8731, quiet: bool = False,
          log_level: str = "warning", **server) -> None:
    """Run the server until interrupted (the ``repro serve`` command).

    One process, one event loop; to scale out, run N of these behind
    ``repro route`` (see ``docs/serving.md``).

    *log_level* configures the ``repro.*`` stdlib loggers (see
    :func:`repro.obs.setup_logging`); every other keyword argument is
    :class:`DesignServer`'s (``engine``, ``host``, ``persist_jobs``,
    ...).
    """
    setup_logging(log_level)
    _run_blocking(DesignServer(port=port, **server), quiet=quiet)


class ServerOnThread:
    """Run any :class:`HttpServerBase` on a background thread (tests,
    benchmarks, notebooks).  Context-manager friendly; subclasses
    construct ``self.server`` and call ``super().__init__(server)``."""

    thread_name = "repro-serve"

    def __init__(self, server: HttpServerBase):
        self.server = server
        self._ready = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._error: BaseException | None = None

    @property
    def url(self) -> str:
        return self.server.url

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerOnThread":
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name=self.thread_name)
        self._thread.start()
        if not self._ready.wait(timeout=30) or self._error is not None:
            raise RuntimeError(f"server failed to start: {self._error}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> str:
        self.start()
        return self.url

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 — surfaced in start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop_event.wait()
        await self.server.stop()


class ServerThread(ServerOnThread):
    """A :class:`DesignServer` (same arguments) on a background thread.

    ``with ServerThread(engine) as url: ...``
    """

    def __init__(self, engine: BatchEngine | None = None, **server):
        super().__init__(DesignServer(engine, **server))
