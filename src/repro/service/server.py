"""Asyncio HTTP front end: design requests stream in, results stream out.

``repro serve`` turns the batch engine into a long-lived service.  The
server is stdlib-only (``asyncio.start_server`` plus a small HTTP/1.1
reader/writer — no web framework) and runs on **one event loop**: it
parses requests, answers memory-tier hits inline, and sends the rest
of the work — a ``/generate`` miss, each design group of a ``/batch``,
each batch of DSE rows an ``/explore`` search asks for — to **one
process pool** of ``--workers`` processes, forked on first use; a task
waits on the loop for a free worker.  The loop keeps one in-flight
compile per ``design_key``: a request for a design being compiled waits
for it and re-reads the memory tier, so concurrent clients share one
schedule.  Long-running work lives in a
:class:`~repro.service.jobs.JobRegistry` polled across requests; a job
is a coroutine that keeps at most ``workers`` of its tasks waiting for
or in a worker, so an interactive request queues behind a few tasks of
each job, never behind a job's backlog.

The HTTP layer itself (connections, dispatch telemetry, JSON/text and
chunked-stream responses) lives in :class:`HttpServerBase`, shared with
the fleet router (:mod:`repro.service.router`), which speaks the same
protocol in front of N of these servers; the bytes on the wire are
framed by :mod:`repro.service.wire`.

The HTTP surface is declared once, in the module-level :data:`ROUTES`
table below — dispatch, the 404/405 answers, metric labels, chaos-fault
sites and the router's forwarding policy all derive from it, and
``docs/serving.md`` documents each row.

When the engine has a cache, the job table is **journaled** under the
cache root (``<root>/jobs/``, see
:mod:`repro.service.persist`): every transition hits disk, and a server
rebooted on the same root reloads the table — interrupted explorations
are re-queued and replayed from their request, interrupted batches fail
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

An `/explore` job is one :func:`repro.dse.strategies.search` (the
generator form of :func:`repro.dse.run_search`) driven by the loop.  A
search is a deterministic function of its request, and every row it
evaluates is stored in the design cache as soon as it is computed, so
replaying the request after a crash is its resume path: the rows the
dead run finished come back as cache hits, and the result is
bit-for-bit the uninterrupted one.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import json
import os
import signal
import threading
import time
import traceback
import urllib.parse
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import NamedTuple

from ..obs import (DEFAULT_HZ, current_span_id, current_trace_id,
                   get_logger, get_registry, get_tracer, merge_telemetry,
                   new_trace_id, parse_trace_header, profile_for,
                   refresh_trace_metrics, setup_logging, trace_context,
                   trace_span)
from ..options import backend_names, backends_info
from . import wire
from .engine import (BatchEngine, PlanGroup, _cache_spec,
                     _evaluate_rows, _init_request_worker, _pool_context,
                     _pool_task, _run_group, remember_built)
from .faults import FaultDrop, FaultError, get_faults
from .jobs import JobRegistry, RegistryFull
from .persist import JobJournal
from .spec import DesignRequest, DesignResult

__all__ = ["DesignServer", "HttpServerBase", "ROUTES", "Route",
           "ServerOnThread", "ServerThread", "StreamPayload", "serve"]

#: the most DSE rows one ``/explore`` pool task evaluates, which bounds
#: how long a request can queue behind it (8 rows of every zoo model
#: take about 0.2 s on one core)
_ROWS_PER_TASK = 8
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
    "how /generate answers were produced: event_loop = a memory-tier "
    "hit, executor = a trip through the process pool", ("path",))
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
)
_STATIC_ROUTES = {r.pattern: r for r in ROUTES if "<id>" not in r.pattern}
#: per-job routes by what follows the id ("" for ``/jobs/<id>`` itself)
_JOB_ROUTES = {r.pattern.partition("<id>")[2].lstrip("/"): r
               for r in ROUTES if "<id>" in r.pattern}
#: the one metric label / fault site of every path the table lacks, and
#: the ``method`` label of every method it lacks, so junk traffic cannot
#: mint a time series per path or method
UNMATCHED = "unmatched"
_METHODS = frozenset(method for route in ROUTES for method in route.methods)


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


async def read_head(reader: asyncio.StreamReader) -> bytes:
    """One head off *reader*, opened with ``limit=wire.STREAM_LIMIT``;
    an overrun or EOF is the codec's error."""
    try:
        return await reader.readuntil(wire.HEAD_END)
    except asyncio.LimitOverrunError:
        raise wire.head_too_long() from None
    except asyncio.IncompleteReadError as exc:
        raise wire.eof_error(bool(exc.partial)) from None


async def _discard(reader: asyncio.StreamReader) -> None:
    while await reader.read(65536):
        pass


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
        what = "an integer" if kind is int else "a number"
        raise _BadRequest(f'"{key}" must be {what}, got {value!r}')
    if minimum is not None and value < minimum:
        raise _BadRequest(f'"{key}" must be >= {minimum}, got {value!r}')


#: every ``POST /explore`` field with its default; a job's params are
#: this dict filled from the request, and they are what its journal
#: record replays
_EXPLORE_FIELDS = {"models": ["ResNet50"], "strategy": "exhaustive",
                   "objective": "edp", "max_evals": None, "seed": 0,
                   "area_budget_mm2": None, "space": None}


@functools.cache
def _request_defaults() -> dict:  # shared: callers only read it
    return DesignRequest().to_dict()


def _request_from_body(data: dict) -> DesignRequest:
    """A full :class:`DesignRequest` from a (possibly partial) dict,
    with unknown keys rejected rather than silently ignored."""
    if not isinstance(data, dict):
        raise _BadRequest("design request must be a JSON object")
    defaults = _request_defaults()
    if unknown := data.keys() - defaults.keys():
        raise _BadRequest(f"unknown design request fields: "
                          f"{sorted(unknown)}")
    try:
        return DesignRequest.from_dict({**defaults, **data})
    except (ValueError, TypeError, KeyError) as exc:
        raise _BadRequest(f"invalid design request: {exc}") from None


def _generate_request(data) -> DesignRequest:
    """The ``"request"`` of a ``/generate`` body, else the body."""
    if not isinstance(data, dict):
        raise _BadRequest("body must be a JSON object")
    spec = data.get("request")
    if spec is None:
        spec = {k: v for k, v in data.items() if k != "include_rtl"}
    return _request_from_body(spec)


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
    follows new ones at a small poll cadence on the event loop, and
    terminates with an ``end`` event carrying the full job dict once
    the job settles (done / failed) or the server starts closing."""

    poll_s = 0.05

    def __init__(self, job):
        self.job = job

    async def events(self, closing: threading.Event):
        cursor = 0
        while True:
            fresh, cursor = self.job.events_since(cursor)
            for event in fresh:
                yield event
            if self.job.settled() or closing.is_set():
                break
            await asyncio.sleep(self.poll_s)
        fresh, cursor = self.job.events_since(cursor)
        for event in fresh:
            yield event
        yield {"event": "end", "job": self.job.to_dict()}


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
        self._writers: set[asyncio.StreamWriter] = set()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> "HttpServerBase":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            limit=wire.STREAM_LIMIT)
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
                try:
                    method, path, headers, length, keep_alive = (
                        wire.parse_request(await read_head(reader)))
                    body = await reader.readexactly(length)
                    status, payload = await self._dispatch(
                        method, path, body, headers)
                except wire.ProtocolError as exc:
                    # Bytes that break the framing: answer, half-close,
                    # and drop what the peer still sends for a while, as
                    # a close on unread bytes would reset the connection
                    # before the peer reads the answer.
                    writer.write(wire.encode_response(
                        exc.status, {"error": str(exc)}))
                    writer.write_eof()
                    with contextlib.suppress(asyncio.TimeoutError):
                        await asyncio.wait_for(_discard(reader), 1.0)
                    break
                except FaultDrop:
                    # injected connection drop: abort without writing a
                    # response — the peer sees a reset, exactly as if
                    # the process died mid-request
                    writer.transport.abort()
                    break
                if isinstance(payload, StreamPayload):
                    # Streams close the connection when they end: the
                    # terminating zero-chunk plus Connection: close is
                    # simpler and safer than re-synchronizing
                    # keep-alive framing after an aborted stream.
                    await self._respond_stream(writer, status, payload)
                    break
                writer.write(wire.encode_response(status, payload,
                                                  keep_alive))
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._writers.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond_stream(self, writer, status: int,
                              stream: StreamPayload) -> None:
        try:
            writer.write(wire.encode_response(status, None))
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
                writer.write(wire.encode_chunk(line.encode() + b"\n"))
                await writer.drain()
            writer.write(wire.encode_chunk(b""))
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
        _HTTP_REQUESTS.labels(
            route=label, method=method if method in _METHODS else UNMATCHED,
            status=status).inc()
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
        ``hz=H`` on an executor thread (it samples the event loop)."""
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

    Every compile runs in one process pool of ``engine.workers``
    processes, forked on first use and shut down by :meth:`stop`.  With
    a cached engine and ``persist_jobs=True`` (the default) the job
    table is journaled under ``<cache root>/jobs/`` and reloaded on
    construction — see :meth:`JobRegistry.restore`'s recovery matrix.
    Remaining keyword arguments (``host``, ``port``,
    ``slow_request_ms``) are :class:`HttpServerBase`'s.
    """

    def __init__(self, engine: BatchEngine | None = None,
                 max_jobs: int = 1024, persist_jobs: bool = True, **http):
        super().__init__(**http)
        self.engine = engine if engine is not None else BatchEngine()
        journal = None
        if persist_jobs and self.engine.cache is not None:
            journal = JobJournal(self.engine.cache.root / "jobs")
        self.journal = journal
        self.jobs = JobRegistry(max_jobs=max_jobs, journal=journal)
        #: boot-recovery summary ({"jobs": n, "requeued": n,
        #: "failed": n}; all zero on a fresh root or without a journal)
        self.recovered = self.jobs.restore()
        if self.recovered.get("jobs"):
            self._log.info(
                "restored %d journaled job(s): %d exploration(s) "
                "re-queued, %d interrupted batch(es) failed",
                self.recovered["jobs"], self.recovered["requeued"],
                self.recovered["failed"])
        self._pool: ProcessPoolExecutor | None = None
        #: one per pool worker: a task holds one from submission until
        #: its result is back, so the pool never holds a backlog and a
        #: job is queued until one of its tasks gets here
        self._slots = asyncio.Semaphore(self.engine.workers)
        #: design_key -> the one compile of that design in flight
        self._flights: dict[str, asyncio.Task] = {}
        #: running job coroutines
        self._job_tasks: set[asyncio.Task] = set()

    async def start(self) -> "DesignServer":
        # The explorations the journal re-queued replay now.
        for job in self.jobs.queued():
            self._spawn_job(job, self._explore_job(job))
        return await super().start()

    async def stop(self) -> None:
        await super().stop()
        # Every job stops at its next pool task; the tasks already in a
        # worker finish (and cache what they built) before the workers
        # are joined.  (This blocks the loop, which serves nothing now.)
        for task in self._job_tasks:
            task.cancel()
        await asyncio.gather(*self._job_tasks)
        if self._pool is not None:
            self._pool.shutdown()
        # A batch that stopped short would otherwise stay live and hang
        # every wait() on it; an exploration stays journaled live, and
        # the next boot on this root replays it from the cached rows.
        failed = self.jobs.sweep_shutdown()
        if failed:
            self._log.info("shutdown failed %d unfinished batch job(s)",
                           failed)

    def banner(self) -> str:
        cache = self.engine.cache
        where = cache.root if cache is not None else "disabled"
        return (f"repro design service on {self.url} "
                f"(cache: {where}, workers: {self.engine.workers})")

    # -- read endpoints ----------------------------------------------------

    async def _ep_health(self, req: Request) -> tuple[int, dict]:
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
        return 200, {"backends": backends_info()}

    async def _ep_jobs(self, req: Request) -> tuple[int, dict]:
        return 200, {"jobs": self.jobs.list()}

    # -- write endpoints ---------------------------------------------------

    async def _ep_generate(self, req: Request) -> tuple[int, dict]:
        request = _generate_request(req.data)
        include_rtl = bool(req.data.get("include_rtl", False))
        # Reuse the trace id an upstream hop sent in X-Repro-Trace (the
        # router's proxy span, or a traced client) so the whole request
        # is one tree; mint only for untraced callers.
        trace_id = current_trace_id() or new_trace_id()
        cache = self.engine.cache
        key = request.spec_hash()
        # A memory-tier hit is a dict lookup plus JSON: answer it here.
        # While this design is being compiled, wait for that compile and
        # look again — it may have produced this very record, and if not
        # (another backend) the phase record it left saves a schedule.
        while True:
            record = cache.get_memory(key) if cache is not None else None
            if record is not None:
                _GENERATE_PATH.labels(path="event_loop").inc()
                result = DesignResult.from_record(key, record,
                                                  request=request)
                return 200, dict(result.to_json(include_rtl),
                                 trace_id=trace_id)
            flight = self._flights.get(request.design_key())
            if flight is None:
                break
            await asyncio.wait((flight,))
        _GENERATE_PATH.labels(path="executor").inc()
        with trace_context(trace_id, current_span_id()):
            [result] = await self._compile(
                PlanGroup(request.design_key(), request))
        return 200, dict(result.to_json(include_rtl), trace_id=trace_id)

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
        self._spawn_job(job, self._batch_job(job, requests))
        return 202, {"job": job.id, "status": job.status,
                     "requests": len(requests), "trace_id": job.trace_id}

    async def _ep_explore(self, req: Request) -> tuple[int, dict]:
        from ..dse.explorer import space_from_dict
        from ..dse.strategies import OBJECTIVES, get_strategy
        from ..models import zoo

        data = req.data
        if not isinstance(data, dict):
            raise _BadRequest("body must be a JSON object")
        unknown = set(data) - set(_EXPLORE_FIELDS)
        if unknown:
            raise _BadRequest(f"unknown explore fields: {sorted(unknown)}")
        params = dict(_EXPLORE_FIELDS, **data)
        model_names = params["models"]
        if (not isinstance(model_names, list) or not model_names
                or not all(isinstance(m, str) for m in model_names)):
            raise _BadRequest('"models" must be a list of model names')
        unknown = [m for m in model_names if m not in zoo.MODEL_BUILDERS]
        if unknown:
            raise _BadRequest(f"unknown models {unknown}; choose from "
                              f"{sorted(zoo.MODEL_BUILDERS)}")
        _check_number(data, "max_evals", kind=int, minimum=1)
        _check_number(data, "seed", kind=int)
        _check_number(data, "area_budget_mm2")
        # Fail fast on bad strategy/space/objective before queueing.
        if (params["space"] is not None
                and not isinstance(params["space"], dict)):
            raise _BadRequest('"space" must be an object of DesignSpace '
                              "axes (see repro.dse.space_to_dict)")
        try:
            get_strategy(params["strategy"])
            if params["space"] is not None:
                space_from_dict(params["space"])
        except (ValueError, TypeError, KeyError) as exc:
            raise _BadRequest(str(exc)) from None
        if params["objective"] not in OBJECTIVES:
            raise _BadRequest(f"unknown objective "
                              f"{params['objective']!r}; expected "
                              f"{sorted(OBJECTIVES)}")
        job = self.jobs.create("explore", params)
        job.trace_id = current_trace_id() or new_trace_id()
        job.trace_parent = current_span_id()
        self._spawn_job(job, self._explore_job(job))
        return 202, {"job": job.id, "status": job.status,
                     "trace_id": job.trace_id}

    # -- per-job endpoints -------------------------------------------------

    def _job(self, req: Request):
        job = self.jobs.get(req.job_id)
        if job is None:
            raise _NotFound(f"no such job: {req.job_id}")
        return job

    async def _ep_job(self, req: Request) -> tuple[int, dict]:
        return 200, self._job(req).to_dict()

    async def _ep_stream(self, req: Request):
        return 200, _JobStream(self._job(req))

    # -- the process pool ------------------------------------------------

    async def _in_pool(self, fn, *args, job=None):
        """``fn(worker cache, *args)`` in the pool, under the current
        trace context, once a worker slot is free (*job*, whose task
        this is, starts running then); the worker's telemetry and
        cache-stats deltas are folded into this process."""
        task = (fn, args, current_trace_id(), current_span_id())
        async with self._slots:
            if self._closing.is_set():
                raise asyncio.CancelledError("server is stopping")
            if job is not None and job.status == "queued":
                job.start()
            for retry in (True, False):
                if self._pool is None:
                    self._pool = ProcessPoolExecutor(
                        max_workers=self.engine.workers,
                        mp_context=_pool_context(),
                        initializer=_init_request_worker,
                        initargs=(_cache_spec(self.engine.cache),))
                pool = self._pool
                try:
                    value, telemetry, stats = await asyncio.wrap_future(
                        pool.submit(_pool_task, task))
                    break
                except BrokenProcessPool:
                    # A worker died (killed, out of memory) and took the
                    # pool down with every task in it: start a fresh
                    # pool, and run this task once more.
                    if self._pool is pool:
                        self._pool = None
                        pool.shutdown(wait=False)
                    if not retry:
                        raise
        merge_telemetry(telemetry)
        if stats is not None:
            self.engine.cache.merge_stats(stats)
        return value

    async def _compile(self, group: PlanGroup, job=None) -> list:
        """One design group (of *job*, if any) through the pool, with at
        most one compile per ``design_key`` in flight: a compile of the
        same design already running is waited for first, and the
        worker then finds what it left in the cache tiers."""
        key = group.design_key
        while (flight := self._flights.get(key)) is not None:
            await asyncio.wait((flight,))
        flight = self._flights[key] = asyncio.ensure_future(
            self._flight(group, job))
        # shielded: a caller that goes away must not cancel a compile
        # other requests are waiting on
        return await asyncio.shield(flight)

    async def _flight(self, group: PlanGroup, job) -> list:
        try:
            results = await self._in_pool(_run_group, group, True, job=job)
        finally:
            del self._flights[group.design_key]
        # before the flight completes, so its waiters find these warm
        remember_built(self.engine.cache, results)
        return results

    # -- jobs (coroutines on the loop) -------------------------------------

    def _spawn_job(self, job, body) -> None:
        """Run *body*, a coroutine returning *job*'s result, as that job
        under its trace ids.  The job stays queued until one of its
        tasks gets a pool slot.  A body that :meth:`stop` cancels leaves
        the job unsettled: the shutdown sweep fails a batch, and an
        exploration stays journaled for the next boot."""
        async def run():
            try:
                with trace_context(job.trace_id, job.trace_parent):
                    result = await body
                if job.status == "queued":  # it needed no pool task
                    job.start()
                job.finish(result)
            except asyncio.CancelledError:
                pass
            except Exception as exc:  # noqa: BLE001 — job table captures it
                job.fail(f"{type(exc).__name__}: {exc}",
                         traceback.format_exc())

        task = asyncio.ensure_future(run())
        self._job_tasks.add(task)
        task.add_done_callback(self._job_tasks.discard)

    async def _batch_job(self, job, requests) -> dict:
        include_rtl = job.params.get("include_rtl", False)
        workers = job.params.get("workers") or self.engine.workers

        def progress(done, total, result):
            job.update_progress(done=done, total=total)
            # One stream event per finished request, so
            # /jobs/<id>/stream readers see results as they land
            # instead of waiting for the terminal summary.
            job.emit({"event": "result", "done": done, "total": total,
                      "result": result.to_json(include_rtl)})

        # At most `workers` of this job's groups are in the pool at once:
        # other requests queue behind those, not behind its backlog.
        slots = asyncio.Semaphore(workers)

        async def run(group):
            async with slots:
                batch.collect(await self._compile(group, job))

        with trace_span("job:batch", job=job.id, n_requests=len(requests)):
            with trace_span("batch", n_requests=len(requests),
                            workers=workers):
                batch = self.engine.begin(requests, progress,
                                          memory_only=True)
                # The plan goes up before the compiles, so a poller sees
                # how the batch collapses (duplicates, cache hits,
                # schedule groups) while it is running.
                job.plan = batch.plan.to_dict()
                # the cache pass was one long step: let the requests it
                # held up in before this job takes another
                await asyncio.sleep(0)
                await asyncio.gather(*map(run, batch.groups))
        results = batch.results()
        return {"results": [r.to_json(include_rtl) for r in results],
                "ok": sum(r.ok for r in results),
                "from_cache": sum(r.from_cache for r in results),
                "plan": job.plan,
                "failed": [{"spec_hash": r.spec_hash, "error": r.error,
                            "traceback": r.traceback}
                           for r in results if not r.ok]}

    async def _explore_job(self, job) -> dict:
        """One :func:`~repro.dse.strategies.search` driven from the loop:
        the search's bookkeeping runs here, the rows of each evaluation
        it asks for in the pool."""
        from ..dse.explorer import space_from_dict
        from ..dse.strategies import search
        from ..models import zoo

        params = job.params
        steps = search(
            [zoo.MODEL_BUILDERS[name]() for name in params["models"]],
            (space_from_dict(params["space"])
             if params["space"] is not None else None),
            strategy=params["strategy"], objective=params["objective"],
            area_budget_mm2=params["area_budget_mm2"],
            max_evals=params["max_evals"], seed=params["seed"])
        rows = None
        with trace_span("job:explore", job=job.id):
            try:
                while True:
                    try:
                        request = steps.send(rows)
                    except StopIteration as stop:
                        return stop.value.to_json()
                    rows = await self._rows(job, *request)
            finally:
                steps.close()

    async def _rows(self, job, models, archs, tech) -> list[dict]:
        """*models* evaluated on every arch in *archs*, in order: split
        into one pool task per worker, at most ``_ROWS_PER_TASK`` rows
        each, and at most ``workers`` of them in the pool at once."""
        workers = self.engine.workers
        size = min(_ROWS_PER_TASK, -(-len(archs) // workers))
        slots = asyncio.Semaphore(workers)

        async def run(part):
            async with slots:
                return await self._in_pool(_evaluate_rows, models, part,
                                           tech, job=job)

        parts = [archs[i:i + size] for i in range(0, len(archs), size)]
        return [row for rows in await asyncio.gather(*map(run, parts))
                for row in rows]


# ---------------------------------------------------------------------------
# Entry points: blocking serve() for the CLI, ServerThread for embedding.
# ---------------------------------------------------------------------------

def _steady_heap() -> None:
    """Pin glibc's malloc thresholds for a serving process.  asyncio
    reads each request into a fresh 256 KiB buffer and shrinks it; with
    glibc's sliding thresholds, whether the freed tail then trims the
    heap depends on what else sits at its top, and when it does every
    read grows the heap again: ~1 page fault per request and +30 % on a
    warm ``/generate``, toggled by unrelated code or environment
    changes.  Fixed thresholds take such buffers from the heap and
    return memory only above 16 MiB free.  (No glibc, no change.)"""
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(-3, 1 << 20)    # M_MMAP_THRESHOLD
    mallopt(-1, 16 << 20)   # M_TRIM_THRESHOLD


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
        _steady_heap()
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
