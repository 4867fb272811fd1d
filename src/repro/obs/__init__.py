"""Telemetry subsystem: metrics, tracing, profiling, phase vocabulary,
logging.

Dependency-free observability for the whole stack — the substrate the
serving front end, the batch engine, the cache tiers, the DSE
strategies, and (eventually) a per-pass pipeline all instrument into:

:mod:`repro.obs.metrics`
    process-wide :class:`MetricsRegistry` (counters, gauges, fixed-
    bucket histograms; thread-safe; picklable snapshots that merge
    across pool workers) rendered as Prometheus text by ``GET
    /metrics`` and ``repro metrics``.
:mod:`repro.obs.tracing`
    ``trace_span(name, **attrs)`` spans with request-scoped trace IDs,
    buffered process-wide and exportable as Chrome-trace-event JSON
    (loadable at https://ui.perfetto.dev) — ``repro trace <file>``
    summarizes one.
:mod:`repro.obs.profiler`
    :func:`profile_for`, a timed stack-sampling capture behind ``GET
    /debug/profile`` and ``repro profile``.
:mod:`repro.obs.dashboard`
    the ``repro top`` frame renderer and the snapshot readers it
    shares with tests (:func:`snapshot_value`,
    :func:`histogram_quantile`, …).
:mod:`repro.obs.phases`
    the staged pipeline's phase-name constants (``adg``, ``schedule``,
    ``emit``, …) shared by ``DesignResult.phases``, the cache's phase
    tiers, metric labels, and span names.
:mod:`repro.obs.logs`
    stdlib-``logging`` setup (``repro serve --log-level``).

:func:`timed_phase` is the one-liner the pipeline uses: one context
manager that times a region, records a trace span, observes the
``repro_phase_seconds`` histogram, and (optionally) writes the duration
into a caller-owned dict such as ``DesignResult.phases``.
"""

from __future__ import annotations

import contextlib
import time

from .dashboard import (histogram_quantile, histogram_totals,
                        render_dashboard, snapshot_children, snapshot_value)
from .logs import LOG_LEVELS, get_logger, setup_logging
from .metrics import (DEFAULT_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, get_registry, reset_registry)
from .phases import (CACHE_PHASE_TIERS, PHASE_ADG, PHASE_DESIGN,
                     PHASE_DESIGN_LOAD, PHASE_EMIT, PHASE_FLIGHT_WAIT,
                     PHASE_REQUEST, PHASE_SCHEDULE, PHASE_SIM,
                     PIPELINE_PHASES)
from .profiler import DEFAULT_HZ, Profile, SamplingProfiler, profile_for
from .tracing import (TRACE_HEADER, Span, Tracer, active_spans,
                      current_span_id, current_trace_id,
                      export_chrome_trace, format_trace_header, get_tracer,
                      load_chrome_trace, new_span_id, new_trace_id,
                      parse_trace_header, refresh_trace_metrics,
                      trace_context, trace_span)

__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_BUCKETS", "get_registry", "reset_registry",
    "Tracer", "Span", "get_tracer", "trace_span", "new_trace_id",
    "new_span_id", "current_trace_id", "current_span_id",
    "trace_context", "export_chrome_trace", "load_chrome_trace",
    "TRACE_HEADER", "format_trace_header", "parse_trace_header",
    "active_spans", "refresh_trace_metrics",
    "Profile", "SamplingProfiler", "profile_for", "DEFAULT_HZ",
    "snapshot_value", "snapshot_children",
    "histogram_totals", "histogram_quantile", "render_dashboard",
    "PHASE_ADG", "PHASE_SCHEDULE", "PHASE_EMIT", "PHASE_DESIGN_LOAD",
    "PHASE_FLIGHT_WAIT", "PHASE_REQUEST", "PHASE_DESIGN", "PHASE_SIM",
    "PIPELINE_PHASES", "CACHE_PHASE_TIERS",
    "setup_logging", "get_logger", "LOG_LEVELS",
    "timed_phase", "telemetry_snapshot", "merge_telemetry",
]

_PHASE_SECONDS = get_registry().histogram(
    "repro_phase_seconds",
    "wall-clock seconds per staged-pipeline phase", ("phase",))


@contextlib.contextmanager
def timed_phase(phase: str, sink: dict | None = None, **attrs):
    """Time one staged-pipeline phase into every telemetry sink at once:
    a trace span named *phase*, the ``repro_phase_seconds{phase=...}``
    histogram, and (when *sink* is given) ``sink[phase] = seconds`` —
    the shape ``DesignResult.phases`` expects."""
    t0 = time.perf_counter()
    with trace_span(phase, **attrs) as span:
        yield span
    elapsed = time.perf_counter() - t0
    if sink is not None:
        sink[phase] = elapsed
    _PHASE_SECONDS.labels(phase=phase).observe(elapsed)


def telemetry_snapshot() -> dict:
    """Picklable bundle of this process's telemetry delta — the payload
    a :class:`~repro.service.engine.BatchEngine` pool worker returns
    beside each result (see :func:`merge_telemetry`)."""
    return {"metrics": get_registry().snapshot(),
            "spans": get_tracer().take()}


def merge_telemetry(bundle: dict | None) -> None:
    """Fold a worker's :func:`telemetry_snapshot` into this process:
    metrics merge into the global registry, spans append to the global
    tracer (keeping their original worker pid)."""
    if not bundle:
        return
    get_registry().merge(bundle.get("metrics"))
    get_tracer().extend(bundle.get("spans", ()))
