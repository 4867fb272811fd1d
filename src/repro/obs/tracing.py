"""Span-based tracing with Chrome-trace-event export (Perfetto-ready).

A *span* is one timed region of work — an HTTP request, a staged
pipeline phase, an emitter family run — recorded as a Chrome trace
"complete" event (``ph: "X"``): wall-clock start in epoch microseconds,
duration from ``perf_counter``, the recording pid/tid, and free-form
``args``.  Events from many processes merge cleanly because the
timestamps share the epoch clock; load the exported JSON at
https://ui.perfetto.dev (or ``chrome://tracing``) and spans nest by
timing per thread track.

Request-scoped **trace IDs** ride a :mod:`contextvars` variable: the
server (or the CLI) mints one per request (:func:`new_trace_id`), binds
it with :func:`trace_context`, and every span recorded inside — on the
event loop, on an executor thread that re-binds it, or in a pool worker
that received it inside a pickled payload — carries it in ``args``, so
one request's work can be filtered out of a fleet-wide trace.

Spans additionally form a **tree**: every span mints a ``span_id`` and
records the enclosing span's id as ``parent_id``.  The pair travels
across process hops in the ``X-Repro-Trace`` header
(:data:`TRACE_HEADER`, traceparent-style ``trace_id-span_id``), so a
request proxied client → router → backend → pool worker yields one
connected trace tree: the backend's spans parent under the router's
proxy span, and a worker's spans parent under the engine's batch span.

Spans land in the process-global :class:`Tracer` ring buffer (bounded,
so a long-lived server cannot leak memory through its own telemetry).
Drops and occupancy are exported as ``repro_trace_dropped_total`` /
``repro_trace_buffer_events`` (see :func:`refresh_trace_metrics`).

>>> get_tracer().clear()
>>> with trace_span("demo", kind="doc"):
...     pass
>>> event = get_tracer().events()[-1]
>>> event["name"], event["ph"], event["args"]["kind"]
('demo', 'X', 'doc')
>>> len(event["args"]["span_id"])
16
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import json
import os
import re
import secrets
import threading
import time

from .metrics import get_registry

__all__ = ["Tracer", "Span", "get_tracer", "trace_span", "new_trace_id",
           "new_span_id", "current_trace_id", "current_span_id",
           "trace_context", "export_chrome_trace", "load_chrome_trace",
           "TRACE_HEADER", "format_trace_header", "parse_trace_header",
           "active_spans", "refresh_trace_metrics"]

_TRACE_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_trace_id", default=None)
#: id of the innermost open span — the parent for spans opened next.
_SPAN_ID: contextvars.ContextVar[str | None] = contextvars.ContextVar(
    "repro_span_id", default=None)

#: HTTP header carrying ``trace_id-span_id`` across process hops.
TRACE_HEADER = "X-Repro-Trace"

_ID_RE = re.compile(r"^[0-9a-f]{16}$")

_TRACE_DROPPED = get_registry().counter(
    "repro_trace_dropped_total",
    "spans dropped because a tracer ring buffer was full")
_TRACE_BUFFER = get_registry().gauge(
    "repro_trace_buffer_events",
    "spans currently held in the process tracer ring buffer")


def new_trace_id() -> str:
    """A fresh 16-hex-char request-scoped trace id."""
    return secrets.token_hex(8)


def new_span_id() -> str:
    """A fresh 16-hex-char span id."""
    return secrets.token_hex(8)


def current_trace_id() -> str | None:
    """The trace id bound in this context, or None outside a request."""
    return _TRACE_ID.get()


def current_span_id() -> str | None:
    """The innermost open span's id in this context (the id a child
    span — or a downstream process — should record as ``parent_id``),
    or None outside any span."""
    return _SPAN_ID.get()


@contextlib.contextmanager
def trace_context(trace_id: str | None, parent_id: str | None = None):
    """Bind *trace_id* (and optionally an upstream *parent_id*) for the
    duration of the block.  Executor threads and pool workers do not
    inherit the caller's contextvars, so thread and worker entry points
    re-bind explicitly with this; servers bind the pair parsed from an
    incoming ``X-Repro-Trace`` header so their spans join the caller's
    trace tree."""
    token = _TRACE_ID.set(trace_id)
    stoken = _SPAN_ID.set(parent_id)
    try:
        yield trace_id
    finally:
        _SPAN_ID.reset(stoken)
        _TRACE_ID.reset(token)


def format_trace_header(trace_id: str | None = None,
                        span_id: str | None = None) -> str | None:
    """The ``X-Repro-Trace`` value for the current context (or explicit
    ids): ``trace_id-span_id``, bare ``trace_id`` when no span is open,
    None when no trace is bound — callers skip the header entirely."""
    tid = trace_id if trace_id is not None else _TRACE_ID.get()
    if tid is None:
        return None
    sid = span_id if span_id is not None else _SPAN_ID.get()
    return f"{tid}-{sid}" if sid else tid


def parse_trace_header(value: str | None) -> tuple[str | None, str | None]:
    """Parse an ``X-Repro-Trace`` value into ``(trace_id, parent_id)``.
    Malformed or missing headers parse as ``(None, None)`` — a garbage
    header must never fail a request, it just starts a fresh trace."""
    if not value:
        return None, None
    parts = value.strip().split("-")
    if not _ID_RE.match(parts[0]):
        return None, None
    if len(parts) == 1:
        return parts[0], None
    if len(parts) == 2 and _ID_RE.match(parts[1]):
        return parts[0], parts[1]
    return None, None


class Span:
    """Mutable handle yielded by :func:`trace_span`; ``set(**attrs)``
    attaches attributes after the fact (e.g. a result status).  The
    minted ``span_id`` is readable during the block — it is what a
    downstream hop must record as its ``parent_id``."""

    __slots__ = ("name", "attrs", "span_id", "parent_id")

    def __init__(self, name: str, attrs: dict,
                 span_id: str | None = None, parent_id: str | None = None):
        self.name = name
        self.attrs = attrs
        self.span_id = span_id
        self.parent_id = parent_id

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)


class Tracer:
    """Bounded, thread-safe buffer of finished span events."""

    def __init__(self, max_events: int = 100_000):
        self._lock = threading.Lock()
        self._events: collections.deque = collections.deque(
            maxlen=max_events)
        self.enabled = True
        #: spans dropped because the ring buffer was full
        self.dropped = 0

    def record(self, event: dict) -> None:
        with self._lock:
            if len(self._events) == self._events.maxlen:
                self.dropped += 1
                _TRACE_DROPPED.inc()
            self._events.append(event)

    def extend(self, events) -> None:
        """Merge spans recorded elsewhere (pool workers, siblings)."""
        with self._lock:
            for event in events:
                if len(self._events) == self._events.maxlen:
                    self.dropped += 1
                    _TRACE_DROPPED.inc()
                self._events.append(event)

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def take(self) -> list[dict]:
        """Drain: return the buffered spans and clear the buffer."""
        with self._lock:
            out = list(self._events)
            self._events.clear()
            return out

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
            self.dropped = 0

    def buffer_stats(self) -> dict:
        """Occupancy / capacity / drop count — the ``trace`` section of
        ``GET /healthz``."""
        with self._lock:
            return {"buffered": len(self._events),
                    "capacity": self._events.maxlen,
                    "dropped": self.dropped}


_TRACER = Tracer()

# Innermost open span *name* per OS thread — read by the sampling
# profiler (obs.profiler) to attribute CPU samples to pipeline phases.
# Mutated only by the owning thread; dict/list ops are GIL-atomic.
_THREAD_SPANS: dict[int, list] = {}


def get_tracer() -> Tracer:
    """The process-global span buffer."""
    return _TRACER


def active_spans() -> dict[int, str]:
    """Snapshot of ``{thread_ident: innermost open span name}`` across
    all threads — how profiler samples get their phase labels."""
    out = {}
    for ident, stack in list(_THREAD_SPANS.items()):
        try:
            out[ident] = stack[-1]
        except IndexError:  # raced with the owning thread's pop
            pass
    return out


def refresh_trace_metrics() -> dict:
    """Push the global tracer's occupancy into the
    ``repro_trace_buffer_events`` gauge (drops already count into
    ``repro_trace_dropped_total`` as they happen) and return
    :meth:`Tracer.buffer_stats` for ``/healthz``."""
    stats = _TRACER.buffer_stats()
    _TRACE_BUFFER.set(stats["buffered"])
    return stats


@contextlib.contextmanager
def trace_span(name: str, **attrs):
    """Record the enclosed block as one complete ("X") trace event.

    Attributes plus the current trace id land in the event's ``args``,
    alongside a fresh ``span_id`` and — when another span (or a bound
    upstream context) encloses this one — its ``parent_id``.  Yields a
    :class:`Span`; ``span.set(...)`` adds attributes before the event
    is finalized, and ``span.span_id`` is the id downstream hops parent
    under.
    """
    tracer = _TRACER
    if not tracer.enabled:
        yield Span(name, attrs)
        return
    span_id = secrets.token_hex(8)
    parent_id = _SPAN_ID.get()
    span = Span(name, attrs, span_id=span_id, parent_id=parent_id)
    token = _SPAN_ID.set(span_id)
    ident = threading.get_ident()
    stack = _THREAD_SPANS.setdefault(ident, [])
    stack.append(name)
    ts_us = time.time_ns() // 1000  # epoch clock: aligns across processes
    t0 = time.perf_counter()
    try:
        yield span
    finally:
        dur_us = (time.perf_counter() - t0) * 1e6
        stack.pop()
        if not stack:
            _THREAD_SPANS.pop(ident, None)
        _SPAN_ID.reset(token)
        args = dict(span.attrs)
        trace_id = _TRACE_ID.get()
        if trace_id is not None:
            args["trace_id"] = trace_id
        args["span_id"] = span_id
        if parent_id is not None:
            args["parent_id"] = parent_id
        tracer.record({"name": span.name, "ph": "X", "ts": ts_us,
                       "dur": dur_us, "pid": os.getpid(),
                       "tid": ident, "args": args})


def export_chrome_trace(path, events: list[dict] | None = None) -> int:
    """Write the tracer buffer (or *events*) as Chrome-trace JSON at
    *path*; returns the number of events written.  The file loads
    directly in Perfetto (https://ui.perfetto.dev)."""
    if events is None:
        events = _TRACER.events()
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(events)


def load_chrome_trace(path) -> list[dict]:
    """Read a Chrome-trace JSON file (object or bare array form) back
    into a list of events — the ``repro trace`` CLI's loader."""
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = data.get("traceEvents", [])
    if not isinstance(data, list):
        raise ValueError(f"{path}: not a Chrome trace event file")
    return [e for e in data if isinstance(e, dict)]
