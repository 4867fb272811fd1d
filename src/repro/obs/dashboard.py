"""The ``repro top`` renderer: one terminal frame of fleet state.

Pure functions from telemetry payloads to text — the CLI loop fetches
``/healthz`` and ``/metrics?format=json`` (both a single server and the
router serve the same shapes; the router's are fleet-merged), holds the
previous snapshot, and calls :func:`render_dashboard` each refresh.
Rates and latency quantiles come from *deltas* between the two
snapshots, so the numbers are "over the last refresh interval", not
since process start; the first frame (no previous snapshot) falls back
to lifetime totals.

Keeping the renderer import-light and side-effect-free makes it
testable without sockets: build two registry snapshots, render, assert
on the text.

The module also carries the snapshot *readers* the renderer and tests
share: :func:`snapshot_value` pulls one scalar out of a snapshot,
:func:`snapshot_children` iterates a family's labeled children, and
:func:`histogram_quantile` interpolates p50/p99 from bucket-count
deltas between two snapshots (the standard Prometheus
``histogram_quantile`` estimate).

>>> from repro.obs import MetricsRegistry
>>> reg = MetricsRegistry()
>>> reg.counter("repro_http_requests_total", "", ("route", "method",
...     "status")).labels(route="/generate", method="POST",
...     status="200").inc(4)
>>> snapshot_value(reg.snapshot(), "repro_http_requests_total",
...                route="/generate", method="POST", status="200")
4.0
>>> frame = render_dashboard("http://x", {"ok": True}, None,
...                          reg.snapshot(), 2.0)
>>> "/generate" in frame
True
"""

from __future__ import annotations

import time

__all__ = ["render_dashboard", "snapshot_value", "snapshot_children",
           "histogram_totals", "histogram_quantile"]

_CACHE_TIERS = ("memory", "disk", "phase", "live")


def _family(snapshot: dict, name: str) -> dict | None:
    for entry in (snapshot or {}).get("metrics", []):
        if entry.get("name") == name:
            return entry
    return None


def snapshot_children(snapshot: dict, name: str):
    """Yield ``(labels_dict, data)`` for every child of family *name*
    in a ``MetricsRegistry.snapshot()``; ``data`` is a float for
    counters/gauges and the bucket dict for histograms."""
    family = _family(snapshot, name)
    if not family:
        return
    labelnames = family.get("labelnames", [])
    for child in family.get("children", []):
        labels = dict(zip(labelnames, child.get("labels", [])))
        yield labels, child.get("value")


def snapshot_value(snapshot: dict, name: str, **labels) -> float | None:
    """One scalar out of a snapshot: counter/gauge value, or a
    histogram child's observation count.  None when absent."""
    for child_labels, data in snapshot_children(snapshot, name):
        if child_labels == labels:
            if isinstance(data, dict):
                return float(data.get("count", 0))
            return float(data)
    return None


def histogram_totals(snapshot: dict, name: str,
                     **labels) -> tuple[list, list, float, float] | None:
    """A histogram child as ``(bounds, bucket_counts, sum, count)``
    (non-cumulative per-bucket counts; bounds exclude +Inf)."""
    family = _family(snapshot, name)
    if not family:
        return None
    for child_labels, data in snapshot_children(snapshot, name):
        if child_labels == labels and isinstance(data, dict):
            return (list(family.get("buckets", [])),
                    list(data.get("bucket_counts", [])),
                    float(data.get("sum", 0.0)),
                    float(data.get("count", 0)))
    return None


def histogram_quantile(bounds: list, bucket_counts: list,
                       q: float) -> float | None:
    """Prometheus-style quantile estimate from per-bucket counts:
    linear interpolation inside the bucket holding the q-th
    observation; the overflow bucket clamps to the top bound."""
    total = sum(bucket_counts)
    if total <= 0:
        return None
    rank = q * total
    seen = 0.0
    for i, count in enumerate(bucket_counts):
        if count <= 0:
            continue
        if seen + count >= rank:
            hi = bounds[i] if i < len(bounds) else bounds[-1]
            lo = bounds[i - 1] if 0 < i <= len(bounds) else 0.0
            frac = (rank - seen) / count
            return lo + (hi - lo) * min(1.0, max(0.0, frac))
        seen += count
    return bounds[-1] if bounds else None


def _rate(curr: float | None, prev: float | None, dt: float) -> float:
    if curr is None:
        return 0.0
    base = prev if prev is not None else 0.0
    return max(0.0, curr - base) / max(dt, 1e-9)


def _counter_children(snapshot, name):
    return list(snapshot_children(snapshot, name)) if snapshot else []


def _fmt_ms(seconds: float | None) -> str:
    return "-" if seconds is None else f"{seconds * 1e3:.1f}"


def _health_line(health: dict | None) -> str:
    if not health:
        return "health: (unreachable)"
    if health.get("router"):
        backends = health.get("backends") or []
        up = sum(1 for b in backends if b.get("ok"))

        def mark(b: dict) -> str:
            # per-backend tracker state when the router reports one
            # (breaker + prober verdict); plain ok/DOWN otherwise
            state = b.get("state")
            if state is None:
                state = "up" if b.get("ok") else "down"
            word = state if state == "up" else state.upper()
            return f"{word}:{b.get('url', '?')}"

        status = health.get("status")
        verdict = f" [{status}]" if status else ""
        return (f"fleet: {up}/{health.get('shards', len(backends))} "
                f"backends ok{verdict}   "
                + " ".join(mark(b) for b in backends))
    return (f"server: ok={health.get('ok')} "
            f"workers={health.get('workers', '?')} "
            f"persist={health.get('persist', False)}")


def _jobs_line(health: dict | None) -> str:
    jobs = (health or {}).get("jobs") or {}
    if not jobs:
        return "jobs: (none)"
    parts = " ".join(f"{k}={v}" for k, v in sorted(jobs.items()))
    return f"jobs: {parts}"


def _trace_line(health: dict | None, curr: dict) -> str:
    trace = (health or {}).get("trace") or {}
    buffered = trace.get("buffered",
                         snapshot_value(curr, "repro_trace_buffer_events"))
    dropped = trace.get("dropped",
                        snapshot_value(curr, "repro_trace_dropped_total"))
    return (f"trace: {int(buffered or 0)} spans buffered / "
            f"{int(dropped or 0)} dropped")


def _routes_section(prev, curr, dt) -> list[str]:
    lines = [f"{'ROUTE':<22}{'REQ/S':>8}{'P50 ms':>9}{'P99 ms':>9}"
             f"{'TOTAL':>9}"]
    routes = sorted({labels.get("route")
                     for labels, _ in _counter_children(
                         curr, "repro_http_requests_total")
                     if labels.get("route")})
    for route in routes:
        total = 0.0
        prev_total = 0.0
        for labels, value in _counter_children(curr,
                                               "repro_http_requests_total"):
            if labels.get("route") == route:
                total += value
                prev_value = snapshot_value(
                    prev, "repro_http_requests_total", **labels) \
                    if prev else None
                prev_total += prev_value or 0.0
        hist = histogram_totals(curr, "repro_http_request_seconds",
                                route=route)
        p50 = p99 = None
        if hist:
            bounds, counts, _, _ = hist
            prev_hist = histogram_totals(
                prev, "repro_http_request_seconds", route=route) \
                if prev else None
            if prev_hist:
                counts = [c - p for c, p in zip(counts, prev_hist[1])]
                if sum(counts) <= 0:  # idle interval: show lifetime
                    counts = hist[1]
            p50 = histogram_quantile(bounds, counts, 0.50)
            p99 = histogram_quantile(bounds, counts, 0.99)
        lines.append(f"{route:<22}{_rate(total, prev_total, dt):>8.1f}"
                     f"{_fmt_ms(p50):>9}{_fmt_ms(p99):>9}{int(total):>9}")
    if len(lines) == 1:
        lines.append("(no http traffic yet)")
    return lines


def _cache_section(prev, curr, dt) -> list[str]:
    lines = [f"{'CACHE TIER':<22}{'HIT/S':>8}{'MISS/S':>9}{'HIT%':>9}"
             f"{'HITS':>9}"]
    seen = False
    for tier in _CACHE_TIERS:
        hits = snapshot_value(curr, "repro_cache_lookups_total",
                              tier=tier, outcome="hit")
        misses = snapshot_value(curr, "repro_cache_lookups_total",
                                tier=tier, outcome="miss")
        if hits is None and misses is None:
            continue
        seen = True
        hits = hits or 0.0
        misses = misses or 0.0
        p_hits = snapshot_value(prev, "repro_cache_lookups_total",
                                tier=tier, outcome="hit") if prev else None
        p_miss = snapshot_value(prev, "repro_cache_lookups_total",
                                tier=tier, outcome="miss") if prev else None
        total = hits + misses
        pct = f"{100.0 * hits / total:.1f}" if total else "-"
        lines.append(f"{tier:<22}{_rate(hits, p_hits, dt):>8.1f}"
                     f"{_rate(misses, p_miss, dt):>9.1f}{pct:>9}"
                     f"{int(hits):>9}")
    if not seen:
        lines.append("(no cache traffic yet)")
    return lines


def _engine_section(prev, curr, dt) -> list[str]:
    def pair(name, **labels):
        value = snapshot_value(curr, name, **labels) or 0.0
        prev_value = snapshot_value(prev, name, **labels) \
            if prev else None
        return value, _rate(value, prev_value, dt)

    def summed(name, **match):
        total = prev_total = 0.0
        for labels, value in _counter_children(curr, name):
            if all(labels.get(k) == v for k, v in match.items()):
                total += value
                if prev:
                    prev_total += snapshot_value(prev, name,
                                                 **labels) or 0.0
        return total, _rate(total, prev_total if prev else None, dt)

    groups, groups_s = pair("repro_planner_groups_total")
    leader, _ = pair("repro_planner_requests_total", role="leader")
    variant, _ = pair("repro_planner_requests_total", role="variant")
    lead, lead_s = summed("repro_singleflight_total", outcome="lead")
    wait, wait_s = summed("repro_singleflight_total", outcome="wait")
    mem, _ = pair("repro_generate_path_total", path="event_loop")
    exe, _ = pair("repro_generate_path_total", path="executor")
    return [
        f"planner: groups={int(groups)} ({groups_s:.1f}/s) "
        f"leader={int(leader)} variant={int(variant)}   "
        f"single-flight: lead={int(lead)} ({lead_s:.1f}/s) "
        f"wait={int(wait)} ({wait_s:.1f}/s)",
        f"generate path: memory-tier={int(mem)} executor={int(exe)}",
    ]


def _fleet_section(prev, curr, dt) -> list[str]:
    """Self-healing activity: failover retries by reason, breaker
    transitions, chaos faults fired.  Empty when none of the fleet
    metric families have data (single plain server)."""
    retries = _counter_children(curr, "repro_router_retries_total")
    flips = _counter_children(curr, "repro_breaker_transitions_total")
    faults = _counter_children(curr, "repro_faults_injected_total")
    if not (retries or flips or faults):
        return []
    total = sum(value for _, value in retries)
    prev_total = sum(value for _, value in _counter_children(
        prev, "repro_router_retries_total")) if prev else None
    reasons = " ".join(
        f"{labels.get('reason', '?')}={int(value)}"
        for labels, value in sorted(retries, key=lambda kv: -kv[1])) \
        or "-"
    opened = sum(value for labels, value in flips
                 if labels.get("to") == "open")
    fired = sum(value for _, value in faults)
    return [
        f"failover: retries={int(total)} "
        f"({_rate(total, prev_total, dt):.1f}/s)   by reason: {reasons}",
        f"breakers: transitions={int(sum(v for _, v in flips))} "
        f"(opened {int(opened)})   chaos faults fired={int(fired)}",
    ]


def render_dashboard(url: str, health: dict | None, prev: dict | None,
                     curr: dict, dt: float, now: float | None = None,
                     interval: float | None = None) -> str:
    """One ``repro top`` frame as a multi-line string.

    *prev*/*curr* are ``MetricsRegistry.snapshot()`` payloads *dt*
    seconds apart (*prev* may be None on the first frame); *health* is
    the ``/healthz`` payload (router or single-server shape)."""
    stamp = time.strftime("%H:%M:%S", time.localtime(now))
    head = f"repro top — {url} — {stamp}"
    if interval:
        head += f" (refresh {interval:g}s)"
    lines = [head, _health_line(health), _jobs_line(health),
             _trace_line(health, curr), ""]
    lines += _routes_section(prev, curr, dt)
    lines.append("")
    lines += _cache_section(prev, curr, dt)
    lines.append("")
    lines += _engine_section(prev, curr, dt)
    fleet = _fleet_section(prev, curr, dt)
    if fleet:
        lines.append("")
        lines += fleet
    return "\n".join(lines)
