"""Fleet router: one HTTP front for N design-service shards.

``repro route --backend URL --backend URL ...`` runs a thin
:class:`DesignRouter` process that speaks the same protocol as
:class:`~repro.service.server.DesignServer` (it shares the
:class:`~repro.service.server.HttpServerBase` plumbing) but owns no
engine: every request is forwarded to a backend server.

How each endpoint is answered is the ``fleet`` column of the route
table (:data:`repro.service.server.ROUTES`; the policies are spelled
out under "The router" in ``docs/serving.md``): ``owner`` rows go to
the backend owning the spec-hash prefix, ``any`` rows round-robin over
the live backends, ``tagged`` rows follow a job id's ``s<shard>.`` tag,
``merged`` rows fan a ``GET`` to every backend and fold the answers
with the router's own, ``local`` rows concern the router process
itself.  The router is one event loop: forwards, relayed job streams
and health probes all run on it over pooled keep-alive connections; a
warm ``/generate`` costs a raw-body → shard LRU hit plus a
byte-for-byte forward, with no JSON work; and every write-path forward
runs under a ``proxy:<path>`` span whose id rides to the backend in
``X-Repro-Trace``, so the merged ``/trace`` links the hops.

Fault tolerance (``--replicas N``): each hash-prefix range gets a
**replica group** of N consecutive backends (a static map; the cache
being content-addressed means any owner computes the same bytes, so
read-your-writes holds across failover).  Write-path forwards run
through a failover loop — live owners in order, then (whole group
down) any live backend as *graceful degradation* (a cache miss, not an
outage) — with deadline-budgeted jittered-backoff retries, safe
because ``/generate``/``/batch`` are idempotent.  Per-backend health
is one :class:`~repro.service.health.BackendHealth` tracker each: a
circuit breaker trips after K consecutive transport failures and the
prober task re-probes ``GET /healthz`` (exponential backoff capped at
the probe interval) so a revived backend is back ``up`` within one
interval.  The merged ``/healthz`` reports the fleet verdict
(``up``/``degraded``/``down``) plus per-backend breaker state, and
``repro_backend_state`` / ``repro_router_retries_total`` /
``repro_breaker_transitions_total`` chart it all in ``repro top``.
A backend that drops a relayed job stream ends it without its ``end``
event; the client's replay-then-follow resumes it through the router.

The router holds no job state beyond the composite-fan table, so
router restarts only forget fan ids — the underlying per-shard jobs
(journaled by their backends) survive.  Chaos faults
(:mod:`repro.service.faults`) can be armed in the router process too
(``router:/generate``, ``router:forward`` sites) via its own
``POST /debug/faults``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import re
import secrets
import time
from collections import OrderedDict
from urllib.parse import urlsplit

from ..obs import (MetricsRegistry, Profile, current_span_id,
                   current_trace_id, format_trace_header, get_registry,
                   new_trace_id, refresh_trace_metrics, setup_logging,
                   trace_context, trace_span)
from . import wire
from .faults import get_faults
from .health import (BackendHealth, backoff_delays, classify_error,
                     probe_forever)
from .server import (HttpServerBase, Request, Route, ServerOnThread,
                     StreamPayload, _BadRequest, _NotFound,
                     _generate_request, _parse_body, _request_from_body,
                     _run_blocking, read_head)

__all__ = ["DesignRouter", "RouterThread", "route"]

#: router-namespaced backend job ids: ``s<shard>.<backend job id>``
_SHARD_ID = re.compile(r"^s(\d+)\.(.+)$")

_LIVE = ("queued", "running")

_ROUTER_RETRIES = get_registry().counter(
    "repro_router_retries_total",
    "write-path forwards retried or failed over, by what failed the "
    "previous attempt", ("reason",))


class _ProxyStream(StreamPayload):
    """One backend job stream relayed on the loop: the rest of the
    backend's chunked NDJSON answer, event by event, with the terminal
    ``end`` event's job id re-tagged ``s<i>.``.  A backend that drops
    or stalls (``--timeout`` between chunks) ends the stream without
    ``end``, so the client's replay-then-follow resumes it."""

    def __init__(self, router: "DesignRouter", index: int, reader, writer):
        self.router = router
        self.index = index
        self.reader = reader
        self.writer = writer

    async def events(self, closing):
        decoder = wire.ChunkedLines()
        try:
            while not (closing.is_set() or decoder.done):
                data = await asyncio.wait_for(self.reader.read(65536),
                                              self.router.timeout)
                if not data:
                    return
                for line in decoder.feed(data):
                    event = json.loads(line)
                    job = (event.get("job") if event.get("event") == "end"
                           else None)
                    if isinstance(job, dict) and isinstance(job.get("id"),
                                                            str):
                        job["id"] = self.router._tag(self.index, job["id"])
                    yield event
        except (OSError, ValueError, asyncio.TimeoutError):
            pass  # the backend dropped: no ``end``, so the client resumes

    def close(self) -> None:
        self.writer.close()


class DesignRouter(HttpServerBase):
    """Fan requests across design-service shards (see module doc).

    Everything here runs on the router's event loop — forwards, relayed
    streams, the prober task, the route LRU, the fan table and the
    health trackers — so nothing takes a lock.  The one thread besides
    the loop's is a ``/debug/profile`` capture on the default executor.
    """

    log_name = "route"
    fault_scope = "router"

    def __init__(self, backends, timeout: float = 300.0,
                 replicas: int = 1, probe_interval_s: float = 1.0,
                 breaker_threshold: int = 3,
                 retry_budget_s: float = 15.0, **http):
        super().__init__(**http)
        urls = [str(u).rstrip("/") for u in backends]
        if not urls:
            raise ValueError("a router needs at least one --backend URL")
        self.backends = urls
        self.timeout = timeout
        if replicas < 1:
            raise ValueError(f"--replicas must be >= 1, got {replicas}")
        #: owners per hash-prefix range: shard i is owned by backends
        #: i, i+1, ... i+replicas-1 (mod N) — a static replica map, so
        #: a down primary fails over to the next owner instead of
        #: blackholing its range
        self.replicas = min(int(replicas), len(urls))
        #: per-request deadline for the write-path failover/retry loop
        self.retry_budget_s = min(retry_budget_s, timeout)
        #: ``GET /healthz`` period per backend (0: no prober); breaker
        #: cooldowns derive from it even when probing is off
        self.probe_interval_s = probe_interval_s
        self._interval = max(probe_interval_s or 1.0, 0.05)
        #: breaker + probe verdict per backend (the request path, the
        #: prober and ``/healthz`` fans all feed it)
        self.health = [BackendHealth(url, breaker_threshold, self._interval)
                       for url in urls]
        self._prober: asyncio.Task | None = None
        self._addrs = [(u.hostname, u.port or 80) for u in map(urlsplit, urls)]
        for url, (host, _port) in zip(urls, self._addrs):
            if host is None:
                raise ValueError(f"bad --backend {url!r}: expected "
                                 "http://host:port")
        #: idle keep-alive ``(reader, writer)`` pairs per backend
        self._idle: list[list] = [[] for _ in urls]
        #: raw /generate body -> shard index (bounded LRU)
        self._route_cache: OrderedDict[bytes, int] = OrderedDict()
        self.route_cache_entries = 4096
        self._rr = itertools.count()
        self._fans: dict[str, dict] = {}
        self._fan_seq = itertools.count(1)

    def banner(self) -> str:
        return (f"repro fleet router on {self.url} -> "
                f"{len(self.backends)} backend(s), "
                f"{self.replicas} replica(s) per range: "
                + ", ".join(self.backends))

    async def start(self) -> "DesignRouter":
        await super().start()
        if self.probe_interval_s:
            self._prober = asyncio.create_task(probe_forever(
                self._probe, len(self.backends), self._interval))
        return self

    async def stop(self) -> None:
        if self._prober is not None:
            self._prober.cancel()
            await asyncio.gather(self._prober, return_exceptions=True)
            self._prober = None
        # super().stop() sets _closing before it first yields, so a
        # forward still in flight closes its connection, not pools it
        for _reader, writer in itertools.chain(*self._idle):
            writer.close()
        await super().stop()

    # -- forwarding --------------------------------------------------------

    async def _connect(self, index: int):
        """``(reader, writer)`` to backend *index*: a pooled one the
        backend has not closed, else a dial under ``min(5 s, timeout)``
        (a blackholed backend fails fast)."""
        idle = self._idle[index]
        while idle:
            reader, writer = idle.pop()
            if not (reader.at_eof() or writer.is_closing()):
                return reader, writer
            writer.close()
        host, port = self._addrs[index]
        budget = min(5.0, self.timeout)
        try:
            return await asyncio.wait_for(asyncio.open_connection(
                host, port, limit=wire.STREAM_LIMIT), budget)
        except asyncio.TimeoutError:
            raise TimeoutError(f"connect to {host}:{port} exceeded the "
                               f"connect budget ({budget:g}s)") from None

    async def _exchange(self, index: int, method: str, path: str,
                        body: bytes | None = None, trace: str | None = None,
                        stream: bool = False):
        """One request to backend *index*: ``(status, body)``, or with
        *stream* a successful answer's unread body as a
        :class:`_ProxyStream`.  A failed exchange is resent once on a
        fresh connection when :func:`wire.may_resend` allows it.  A
        *timeout* deadline aborts the transport; the read it ends is a
        ``timeout``.  A transport failure raises :class:`OSError`."""
        host, port = self._addrs[index]
        data = wire.encode_request(method, path, host, port, body, trace)
        loop = asyncio.get_running_loop()
        for attempt in (0, 1):
            writer = deadline = None
            sent = False
            try:
                reader, writer = await self._connect(index)
                deadline = loop.call_later(self.timeout,
                                           writer.transport.abort)
                writer.write(data)
                await writer.drain()
                sent = True
                status, length, keep = wire.parse_response(
                    await read_head(reader))
                if stream and status < 400:
                    return status, _ProxyStream(self, index, reader, writer)
                try:
                    raw = await (reader.read() if length is None
                                 else reader.readexactly(length))
                except asyncio.IncompleteReadError:
                    raise wire.eof_error(True) from None
            except BaseException as exc:
                if writer is not None:
                    writer.close()
                # a backend speaking non-HTTP or truncating its answer
                # is as dead to the router as a refused connect
                if not isinstance(exc, OSError):
                    raise
                if deadline is not None and deadline.when() <= loop.time():
                    raise TimeoutError(
                        f"read from {host}:{port} exceeded the total "
                        f"budget (timeout={self.timeout:g}s)") from None
                if (attempt or isinstance(exc, TimeoutError)
                        or not wire.may_resend(method, sent)):
                    raise
                continue
            finally:
                if deadline is not None:
                    deadline.cancel()
            if keep and not self._closing.is_set():
                self._idle[index].append((reader, writer))
            else:
                writer.close()
            return status, raw

    async def _forward(self, index: int, method: str, path: str,
                       body: bytes | None = None, trace: str | None = None,
                       stream: bool = False):
        """One attempt at backend *index* (the ``router:forward`` fault
        site): its answer, or a structured 502 for a transport failure —
        the only kind the breaker counts."""
        delay = get_faults().fire("router:forward")
        if delay:
            await asyncio.sleep(delay)
        try:
            answer = await self._exchange(index, method, path, body, trace,
                                          stream)
        except OSError as exc:
            self.health[index].record(False, f"{type(exc).__name__}: {exc}")
            return 502, json.dumps(
                {"error": f"backend {self.backends[index]} "
                          f"unreachable: {type(exc).__name__}: {exc}",
                 "backend": self.backends[index],
                 "backend_index": index,
                 "reason": classify_error(exc)}).encode()
        self.health[index].record(True)
        return answer

    async def _probe(self, index: int) -> bool:
        """One ``GET /healthz`` at backend *index* under its own budget
        (the interval, within 0.25–5 s), recorded in its tracker.  Not a
        ``router:forward`` site: chaos there hits client traffic only."""
        budget = max(0.25, min(self._interval, 5.0))
        try:
            status, raw = await asyncio.wait_for(
                self._exchange(index, "GET", "/healthz"), budget)
        except (OSError, asyncio.TimeoutError) as exc:
            error = (f"probe: {type(exc).__name__}: "
                     f"{str(exc) or f'no answer within {budget:g}s'}")
        else:
            error = (None if status < 400 else f"probe: HTTP {status}: "
                     f"{wire.decode_json(raw).get('error')}")
        self.health[index].record(error is None, error)
        return error is None

    # -- failover ----------------------------------------------------------

    def owners_of(self, shard: int) -> list[int]:
        """The replica group owning *shard*'s hash-prefix range:
        ``replicas`` consecutive backends starting at the primary."""
        count = len(self.backends)
        return [(shard + offset) % count for offset in
                range(self.replicas)]

    def _candidates(self, owners: list[int]):
        """Backends to try this round, in preference order: live owners
        first; with the whole replica group down, one live non-owner
        (a cache miss beats an outage — graceful degradation); as a
        last resort the owners anyway (breakers can be stale).  Lazy:
        the owners' breakers are read again after the live ones were
        tried, so a round that opened the last of them goes on to a
        live non-owner before the caller backs off — a backoff that
        outlasts the cooldown would re-admit a dead owner instead."""
        live = [index for index in owners if self.health[index].allows()]
        yield from live
        if live and any(self.health[index].breaker != "open"
                        for index in owners):
            return
        others = [index for index in range(len(self.backends))
                  if index not in owners and self.health[index].allows()]
        if others:
            _ROUTER_RETRIES.labels(reason="degraded_reroute").inc()
            yield others[next(self._rr) % len(others)]
        elif not live:
            yield from owners

    @staticmethod
    def _failure_reason(status: int, raw: bytes) -> str:
        if status == 502:
            reason = wire.decode_json(raw).get("reason")
            if isinstance(reason, str):
                return reason
        return f"http_{status}"

    async def _proxy(self, shard: int, method: str, path: str,
                     body=None) -> tuple[int, bytes, int]:
        """Forward one write-path request with failover, under a router
        **proxy span**: the shard's live replica group in order (then
        degraded rerouting), transport failures retried with jittered
        exponential backoff inside the retry budget — safe because
        ``/generate``/``/batch`` are content-addressed and idempotent.
        *body* is a JSON-able value or already-encoded bytes (the warm
        ``/generate`` path forwards the client's bytes verbatim).

        The span joins the incoming trace (or mints a fresh id for
        untraced clients) and its span id rides to the backend in
        ``X-Repro-Trace`` — so in the merged fleet trace the backend's
        spans hang under ``proxy:<path>``, which hangs under whatever
        the client had open.  Returns ``(status, body, serving backend
        index)`` so callers can tag job ids with the backend that
        actually answered."""
        if body is not None and not isinstance(body, bytes):
            body = json.dumps(body).encode()
        trace_id = current_trace_id() or new_trace_id()
        deadline = time.monotonic() + self.retry_budget_s
        owners = self.owners_of(shard)
        delays = backoff_delays()
        last: tuple[int, bytes, int] | None = None
        reason: str | None = None
        with trace_context(trace_id, current_span_id()), trace_span(
                f"proxy:{path}", shard=shard,
                backend=self.backends[shard]) as span:
            trace = format_trace_header(trace_id, span.span_id)
            while True:
                for index in self._candidates(owners):
                    if reason is not None:
                        _ROUTER_RETRIES.labels(reason=reason).inc()
                    status, raw = await self._forward(index, method, path,
                                                      body, trace)
                    last = (status, raw, index)
                    if status < 500:
                        break
                    reason = self._failure_reason(status, raw)
                # done on success, or when every candidate answered an
                # application-level 5xx: the fleet is reachable and
                # deterministic — waiting won't change the answer
                if last is not None and (last[0] < 500
                                         or reason.startswith("http_")):
                    break
                delay = next(delays)
                if time.monotonic() + delay >= deadline:
                    last = last or (502, json.dumps(
                        {"error": "no backend reachable within the retry "
                                  f"budget ({self.retry_budget_s:g}s)",
                         "reason": "budget_exhausted"}).encode(), owners[0])
                    break
                await asyncio.sleep(delay)
            span.set(status=last[0], served_by=self.backends[last[2]])
        return last

    def _tag(self, index: int, job_id: str) -> str:
        return f"s{index}.{job_id}"

    # -- shard selection ---------------------------------------------------

    def shard_for(self, spec_hash: str) -> int:
        """``spec_hash`` prefix → backend index.  The mapping is stable
        for a fixed backend list, so a repeated request lands on the
        backend whose cache already holds its design."""
        return int(spec_hash[:2], 16) % len(self.backends)

    # -- routing -----------------------------------------------------------

    async def _route_raw(self, route: Route, body: bytes):
        """The /generate proxy path.  Warm repeats (the DSE loop's
        traffic) hit the raw-body routing LRU and forward byte-for-byte
        without any JSON work on the event loop; a first-seen body pays
        one parse + spec hash to learn its shard."""
        if route.name != "generate" or not body:
            return None
        index = self._route_cache.get(body)
        if index is None:
            # both may raise _BadRequest
            index = self.shard_for(
                _generate_request(_parse_body(body)).spec_hash())
            self._route_cache[body] = index
            if len(self._route_cache) > self.route_cache_entries:
                self._route_cache.popitem(last=False)
        else:
            self._route_cache.move_to_end(body)
        status, raw, _served = await self._proxy(index, "POST",
                                                 "/generate", body)
        return status, raw

    def _handler(self, route: Route):
        """The table's ``fleet`` column picks the answer: the two pure
        forwarding policies share one forwarder each; ``local`` rows
        inherit the base handler, and ``owner``/``merged`` rows have
        their own ``_ep_<name>`` below."""
        if route.fleet == "tagged":
            return self._forward_tagged
        if route.fleet == "any":
            return self._forward_any
        return super()._handler(route)

    async def _ep_generate(self, req: Request):
        # _route_raw answers every non-empty body; reaching here means
        # there was none.
        raise _BadRequest("body must be a JSON object")

    # -- fan-out endpoints -------------------------------------------------

    async def _ep_batch(self, req: Request) -> tuple[int, dict]:
        data = req.data
        if not isinstance(data, dict) or "requests" not in data:
            raise _BadRequest('body must be {"requests": [...]}')
        specs = data["requests"]
        if not isinstance(specs, list) or not specs:
            raise _BadRequest('"requests" must be a non-empty list')
        shards: dict[int, list[int]] = {}
        for position, spec in enumerate(specs):
            index = self.shard_for(_request_from_body(spec).spec_hash())
            shards.setdefault(index, []).append(position)
        if len(shards) == 1:
            # Single-shard batches forward wholesale: no fan bookkeeping,
            # the composite id machinery, or merged polling needed.
            index = next(iter(shards))
            # The job must be tagged with the backend that actually
            # accepted it — under failover that can be a replica, not
            # the primary the shard map names.
            status, raw, served = await self._proxy(index, "POST",
                                                    "/batch", data)
            payload = wire.decode_json(raw)
            if status < 400 and isinstance(payload.get("job"), str):
                payload["job"] = self._tag(served, payload["job"])
                payload["shards"] = [self.backends[served]]
            return status, payload

        async def submit(index: int, positions: list[int]):
            body = dict(data, requests=[specs[p] for p in positions])
            status, raw, served = await self._proxy(index, "POST",
                                                    "/batch", body)
            return served, positions, status, wire.decode_json(raw)

        outcomes = await asyncio.gather(
            *(submit(i, ps) for i, ps in sorted(shards.items())))
        for index, _positions, status, payload in outcomes:
            if status >= 400 or not isinstance(payload.get("job"), str):
                payload.setdefault("error", "batch submission failed")
                payload["backend"] = self.backends[index]
                return (status if status >= 400 else 502), payload
        fan_id = f"fan-{next(self._fan_seq)}-{secrets.token_hex(3)}"
        self._fans[fan_id] = {
            "n_requests": len(specs),
            "parts": [{"shard": index, "job": payload["job"],
                       "positions": positions}
                      for index, positions, _status, payload in outcomes]}
        return 202, {"job": fan_id, "status": "queued",
                     "requests": len(specs),
                     "shards": [self.backends[i] for i, *_ in outcomes]}

    async def _forward_any(self, req: Request) -> tuple[int, dict]:
        """``any`` rows (``/explore``, ``/backends``): any backend can
        answer (an exploration's shared work is its cache tier, which
        is already shard-routed per evaluation), so round-robin — via
        the write path's failover, so a dead backend costs a retry,
        not a 502."""
        index = next(self._rr) % len(self.backends)
        status, raw, served = await self._proxy(
            index, req.method, req.route.pattern,
            req.data if req.method == "POST" else None)
        payload = wire.decode_json(raw)
        if status < 400 and isinstance(payload.get("job"), str):
            payload["job"] = self._tag(served, payload["job"])
            payload["backend"] = self.backends[served]
        return status, payload

    # -- job forwarding ----------------------------------------------------

    async def _forward_tagged(self, req: Request) -> tuple[int, dict]:
        """``tagged`` rows: ``/jobs/<id>[/<action>]`` goes to the
        backend the id's ``s<i>.`` tag names (``fan-`` ids are the
        router's own composites)."""
        job_id = req.job_id
        fan = self._fans.get(job_id)
        if fan is not None:
            if req.route.name != "job":
                raise _BadRequest("fanned batch jobs support "
                                  "GET /jobs/<id> only")
            return await self._fan_status(job_id, fan)
        match = _SHARD_ID.match(job_id)
        if match is None:
            raise _NotFound(f"no such job: {job_id} (router job "
                            "ids look like s<shard>.<job> or fan-<n>-<id>)")
        index = int(match.group(1))
        if index >= len(self.backends):
            raise _NotFound(f"no such shard s{index}")
        status, raw = await self._forward(
            index, req.method, _with_query(
                req.route.pattern.replace("<id>", match.group(2)),
                req.query), stream=req.route.name == "stream")
        if isinstance(raw, _ProxyStream):
            return status, raw
        payload = wire.decode_json(raw)
        for key in ("job", "id"):
            if isinstance(payload.get(key), str):
                payload[key] = self._tag(index, payload[key])
        return status, payload

    async def _fan_status(self, fan_id: str, fan: dict) -> tuple[int,
                                                                 dict]:
        parts = fan["parts"]
        polls = await asyncio.gather(
            *(self._forward(p["shard"], "GET", f"/jobs/{p['job']}")
              for p in parts))
        payloads = [wire.decode_json(raw) for _status, raw in polls]
        for part, (status, _raw), payload in zip(parts, polls, payloads):
            if status >= 400:
                return status, {
                    "id": fan_id,
                    "error": f"backend {self.backends[part['shard']]} "
                             f"lost job {part['job']}: "
                             f"{payload.get('error')}"}
        statuses = [p.get("status") for p in payloads]
        if any(s in _LIVE for s in statuses):
            status = ("queued" if all(s == "queued" for s in statuses)
                      else "running")
        elif any(s == "failed" for s in statuses):
            status = "failed"
        else:
            status = "done"
        done = sum((p.get("progress") or {}).get("done", 0)
                   for p in payloads)
        out: dict = {
            "id": fan_id, "kind": "batch", "status": status,
            "progress": {"done": done, "total": fan["n_requests"]},
            "parts": [{"backend": self.backends[part["shard"]],
                       "job": part["job"],
                       "status": payload.get("status")}
                      for part, payload in zip(parts, payloads)],
            "result": None, "error": None}
        if status == "done":
            merged: list = [None] * fan["n_requests"]
            ok = from_cache = 0
            failures: list = []
            for part, payload in zip(parts, payloads):
                result = payload.get("result") or {}
                for position, record in zip(part["positions"],
                                            result.get("results") or []):
                    merged[position] = record
                ok += result.get("ok", 0)
                from_cache += result.get("from_cache", 0)
                failures.extend(result.get("failed") or [])
            out["result"] = {"results": merged, "ok": ok,
                             "from_cache": from_cache,
                             "failed": failures}
        elif status == "failed":
            errors = [p.get("error") for p in payloads
                      if p.get("status") == "failed"]
            out["error"] = ("; ".join(e for e in errors if e)
                            or "a batch part failed")
        return 200, out

    # -- merged read endpoints ---------------------------------------------

    async def _fan(self, target: str) -> list[tuple[int, int, dict]]:
        """``GET target`` on every backend at once: one decoded
        ``(backend index, status, payload)`` per backend, in order."""
        polls = await asyncio.gather(
            *(self._forward(index, "GET", target)
              for index in range(len(self.backends))))
        return [(index, status, wire.decode_json(raw))
                for index, (status, raw) in enumerate(polls)]

    async def _ep_jobs(self, req: Request) -> tuple[int, dict]:
        jobs: list[dict] = []
        for index, status, payload in await self._fan("/jobs"):
            if status >= 400:
                continue
            for job in payload.get("jobs", []):
                if isinstance(job, dict) and isinstance(job.get("id"),
                                                        str):
                    job = dict(job, id=self._tag(index, job["id"]),
                               backend=self.backends[index])
                jobs.append(job)
        fans = [{"id": fan_id, "kind": "batch", "fanned": True,
                 "parts": [{"backend": self.backends[p["shard"]],
                            "job": p["job"]} for p in fan["parts"]]}
                for fan_id, fan in self._fans.items()]
        return 200, {"jobs": jobs + fans}

    async def _ep_health(self, req: Request) -> tuple[int, dict]:
        ok = True
        jobs: dict[str, int] = {}
        backends = []
        for index, status, payload in await self._fan("/healthz"):
            up = status == 200 and bool(payload.get("ok"))
            ok = ok and up
            for key, value in (payload.get("jobs") or {}).items():
                if isinstance(value, (int, float)):
                    jobs[key] = jobs.get(key, 0) + value
            entry: dict = {"url": self.backends[index], "ok": up}
            # tracker verdict (breaker + prober); the live poll above
            # already fed it through _forward's recording
            entry.update(self.health[index].to_dict())
            if not up:
                entry["error"] = payload.get("error")
            backends.append(entry)
        # "ok" keeps its strict meaning (every backend answering); the
        # fleet "status" adds the degradation verdict: any live backend
        # still serves the whole keyspace via failover/rerouting.
        if ok:
            status_word = "up"
        elif any(entry["ok"] for entry in backends):
            status_word = "degraded"
        else:
            status_word = "down"
        return 200, {"ok": ok, "status": status_word, "router": True,
                     "shards": len(self.backends),
                     "replicas": self.replicas,
                     "jobs": jobs, "backends": backends,
                     "trace": refresh_trace_metrics()}

    async def _ep_metrics(self, req: Request) -> tuple[int, dict | str]:
        merged = MetricsRegistry()
        # The router's own registry first: its http route counters tell
        # the fleet story (gauges merge last-writer-wins, so backend
        # job gauges below overwrite the router's empty ones).
        merged.merge(get_registry().snapshot())
        for _index, status, payload in await self._fan(
                "/metrics?format=json"):
            if status >= 400:
                continue
            try:
                merged.merge(payload)
            except (KeyError, TypeError, ValueError):
                continue
        if req.params.get("format") == "json":
            return 200, merged.snapshot()
        return 200, merged.render()

    async def _ep_trace(self, req: Request) -> tuple[int, dict]:
        """``GET /trace``: fan to every backend (query passes through,
        so ``drain``/``trace_id`` behave fleet-wide) and merge their
        Chrome-trace events with the router's own proxy spans into one
        tree — span ids stitch the hops together, and epoch-µs
        timestamps mean the hops align on one Perfetto timeline."""
        polls = await self._fan(_with_query("/trace", req.query))
        _status, merged = await super()._ep_trace(req)
        merged["merged_from"] = 1
        for _index, status, payload in polls:
            if status >= 400:
                continue
            tail = payload.get("traceEvents")
            if isinstance(tail, list):
                merged["traceEvents"].extend(
                    e for e in tail if isinstance(e, dict))
                merged["merged_from"] += 1
            try:
                merged["dropped"] += int(payload.get("dropped") or 0)
            except (TypeError, ValueError):
                pass
        return 200, merged

    async def _ep_profile(self, req: Request) -> tuple[int, dict]:
        """``GET /debug/profile``: fan the capture across backends and
        fold the profiles into one fleet flamegraph.  The query passes
        through, and the router samples itself concurrently with the
        backends (the captures overlap, so one wall-clock wait covers
        the fleet)."""
        merged, polls = await asyncio.gather(
            self._capture_profile(req.params),
            self._fan(_with_query("/debug/profile", req.query)))
        reached = 1
        backends = []
        for index, status, payload in polls:
            entry: dict = {"url": self.backends[index],
                           "ok": status < 400}
            if status < 400:
                try:
                    part = Profile.from_dict(payload)
                except (TypeError, ValueError):
                    entry["ok"] = False
                    entry["error"] = "unparseable profile payload"
                else:
                    merged.merge(part)
                    entry["samples"] = part.samples
                    reached += 1
            else:
                entry["error"] = payload.get("error")
            backends.append(entry)
        return 200, dict(merged.to_dict(), merged_from=reached,
                         backends=backends)


def _with_query(path: str, query: str) -> str:
    return f"{path}?{query}" if query else path


# ---------------------------------------------------------------------------
# Entry points: blocking route() for the CLI, RouterThread for embedding.
# ---------------------------------------------------------------------------

def route(backends, port: int = 8730, quiet: bool = False,
          log_level: str = "warning", **router) -> None:
    """Run the fleet router until interrupted (``repro route``); keyword
    arguments beyond these are :class:`DesignRouter`'s."""
    setup_logging(log_level)
    _run_blocking(DesignRouter(backends, port=port, **router), quiet=quiet)


class RouterThread(ServerOnThread):
    """A :class:`DesignRouter` (same arguments) on a background thread.

    ``with RouterThread([backend_url, ...]) as url: ...``
    """

    thread_name = "repro-route"

    def __init__(self, backends, **router):
        super().__init__(DesignRouter(backends, **router))
