"""Process-wide metrics registry: counters, gauges, histograms.

Dependency-free (stdlib only) and deliberately small: a
:class:`MetricsRegistry` owns named metric *families*; a family plus one
set of label values is a *child* holding the actual number(s).  All
mutation happens under one registry lock, so threads (a profile
capture beside the server's event loop, say) can share the
process-global registry (:func:`get_registry`) without coordination.

Two properties matter beyond the basics:

**Mergeable snapshots.**  :meth:`MetricsRegistry.snapshot` returns a
plain picklable dict and :meth:`MetricsRegistry.merge` folds one into a
registry (counters and histograms add, gauges overwrite).  This is how
``BatchEngine`` pool workers report: each pooled task resets its worker
registry, runs, and ships the delta back beside the design record.

**Prometheus exposition.**  :meth:`MetricsRegistry.render` produces the
text format ``GET /metrics`` serves (``# HELP``/``# TYPE`` headers,
escaped label values, ``_bucket``/``_sum``/``_count`` histogram series).

>>> r = MetricsRegistry()
>>> c = r.counter("demo_total", "demo counter", ("kind",))
>>> c.labels(kind="a").inc()
>>> c.labels(kind="a").value
1.0
>>> "demo_total{kind=\\"a\\"} 1" in r.render()
True
"""

from __future__ import annotations

import bisect
import math
import os
import re
import threading

__all__ = ["MetricsRegistry", "Counter", "Gauge", "Histogram",
           "DEFAULT_BUCKETS", "get_registry", "reset_registry"]

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"[a-zA-Z_][a-zA-Z0-9_]*$")

#: default latency buckets (seconds): 0.5 ms .. 10 s, then +Inf
DEFAULT_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_SNAPSHOT_FORMAT = "repro-metrics-v1"


def _escape_label(value: str) -> str:
    return (str(value).replace("\\", r"\\").replace("\n", r"\n")
            .replace('"', r'\"'))


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class Counter:
    """Monotonically increasing value (one family child)."""

    __slots__ = ("_family", "value")

    def __init__(self, family: "_Family"):
        self._family = family
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up (inc({amount}))")
        with self._family._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (one family child)."""

    __slots__ = ("_family", "value")

    def __init__(self, family: "_Family"):
        self._family = family
        self.value = 0.0

    def set(self, value: float) -> None:
        with self._family._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._family._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)


class Histogram:
    """Fixed-boundary cumulative histogram (one family child)."""

    __slots__ = ("_family", "bucket_counts", "sum", "count")

    def __init__(self, family: "_Family"):
        self._family = family
        self.bucket_counts = [0] * (len(family.buckets) + 1)  # + Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        i = bisect.bisect_left(self._family.buckets, value)  # first >=
        with self._family._lock:
            self.bucket_counts[i] += 1
            self.sum += value
            self.count += 1


_CHILD_TYPES = {"counter": Counter, "gauge": Gauge,
                "histogram": Histogram}


class _Family:
    """One named metric plus its labelled children."""

    def __init__(self, kind: str, name: str, help_text: str,
                 labelnames: tuple[str, ...],
                 buckets: tuple[float, ...],
                 lock: threading.RLock):
        self.kind = kind
        self.name = name
        self.help = help_text
        self.labelnames = labelnames
        self.buckets = buckets
        self._lock = lock
        self._children: dict[tuple, object] = {}
        #: ``labels()`` keywords as passed -> child (valid sets only)
        self._by_items: dict[tuple, object] = {}

    def labels(self, **labelvalues):
        """The child at these label values (created on first use)."""
        child = self._by_items.get(items := tuple(labelvalues.items()))
        if child is not None:
            return child
        if labelvalues.keys() != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = _CHILD_TYPES[self.kind](self)
            self._by_items[items] = child
            return child

    # Label-less families act as their own single child.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """Thread-safe, name -> metric-family table."""

    def __init__(self):
        self._lock = threading.RLock()
        self._families: dict[str, _Family] = {}

    # -- declaration -------------------------------------------------------

    def _family(self, kind: str, name: str, help_text: str,
                labelnames, buckets=()) -> _Family:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        labelnames = tuple(labelnames)
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if family.kind != kind or family.labelnames != labelnames:
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{family.kind}{family.labelnames}")
                return family
            family = _Family(kind, name, help_text, labelnames,
                             tuple(buckets), self._lock)
            self._families[name] = family
            return family

    def counter(self, name: str, help_text: str = "",
                labelnames=()) -> _Family:
        """Declare (or fetch) a counter family."""
        return self._family("counter", name, help_text, labelnames)

    def gauge(self, name: str, help_text: str = "",
              labelnames=()) -> _Family:
        """Declare (or fetch) a gauge family."""
        return self._family("gauge", name, help_text, labelnames)

    def histogram(self, name: str, help_text: str = "", labelnames=(),
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> _Family:
        """Declare (or fetch) a histogram family with fixed buckets."""
        buckets = tuple(sorted(float(b) for b in buckets))
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        return self._family("histogram", name, help_text, labelnames,
                            buckets)

    # -- point reads (tests, benchmarks, planner assertions) ---------------

    def value(self, name: str, **labels) -> float:
        """One sample, by family name and exact label values: a
        counter's or gauge's current value, a histogram's observation
        *count*.  Unregistered families and never-touched children read
        as ``0.0`` — callers diff before/after around a region instead
        of special-casing first use."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            key = tuple(str(labels.get(k, "")) for k in family.labelnames)
            child = family._children.get(key)
            if child is None:
                return 0.0
            if family.kind == "histogram":
                return float(child.count)
            return float(child.value)

    # -- snapshots (picklable; the pool-worker merge protocol) -------------

    def snapshot(self) -> dict:
        """Plain-dict copy of every value — picklable, mergeable."""
        out: dict = {"format": _SNAPSHOT_FORMAT, "metrics": []}
        with self._lock:
            for family in self._families.values():
                entry = {"name": family.name, "kind": family.kind,
                         "help": family.help,
                         "labelnames": list(family.labelnames),
                         "buckets": list(family.buckets),
                         "children": []}
                for key, child in family._children.items():
                    if family.kind == "histogram":
                        value = {"bucket_counts": list(child.bucket_counts),
                                 "sum": child.sum, "count": child.count}
                    else:
                        value = child.value
                    entry["children"].append({"labels": list(key),
                                              "value": value})
                out["metrics"].append(entry)
        return out

    def merge(self, snapshot: dict | None) -> None:
        """Fold a :meth:`snapshot` into this registry: counters and
        histograms add, gauges take the incoming value.  Unknown
        families are declared on the fly, so a worker process can report
        metrics the parent never touched."""
        if not snapshot or snapshot.get("format") != _SNAPSHOT_FORMAT:
            return
        for entry in snapshot.get("metrics", []):
            family = self._family(
                entry["kind"], entry["name"], entry.get("help", ""),
                tuple(entry.get("labelnames", ())),
                tuple(entry.get("buckets", ())))
            for item in entry.get("children", []):
                child = family.labels(**dict(zip(family.labelnames,
                                                 item["labels"])))
                value = item["value"]
                with self._lock:
                    if family.kind == "histogram":
                        counts = value.get("bucket_counts", [])
                        for i, n in enumerate(counts):
                            if i < len(child.bucket_counts):
                                child.bucket_counts[i] += n
                        child.sum += value.get("sum", 0.0)
                        child.count += value.get("count", 0)
                    elif family.kind == "counter":
                        child.value += value
                    else:  # gauge: last writer wins
                        child.value = value

    def reset(self) -> None:
        """Zero every child *in place*.  Families (and module-level
        handles to them) stay registered — pool workers reset at task
        start so each task ships a clean delta back to the parent."""
        with self._lock:
            for family in self._families.values():
                for child in family._children.values():
                    if family.kind == "histogram":
                        child.bucket_counts = [0] * len(child.bucket_counts)
                        child.sum = 0.0
                        child.count = 0
                    else:
                        child.value = 0.0

    # -- exposition --------------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                if family.help:
                    lines.append(f"# HELP {name} {family.help}")
                lines.append(f"# TYPE {name} {family.kind}")
                for key in sorted(family._children):
                    child = family._children[key]
                    labels = dict(zip(family.labelnames, key))
                    if family.kind == "histogram":
                        lines.extend(self._render_histogram(
                            name, labels, family.buckets, child))
                    else:
                        lines.append(f"{name}{self._labelset(labels)} "
                                     f"{_format_value(child.value)}")
        return "\n".join(lines) + "\n" if lines else ""

    @staticmethod
    def _labelset(labels: dict) -> str:
        if not labels:
            return ""
        inner = ",".join(f'{k}="{_escape_label(v)}"'
                         for k, v in labels.items())
        return "{" + inner + "}"

    @classmethod
    def _render_histogram(cls, name, labels, buckets, child) -> list[str]:
        lines = []
        cumulative = 0
        for bound, count in zip((*buckets, math.inf),
                                child.bucket_counts):
            cumulative += count
            le = dict(labels, le=_format_value(bound))
            lines.append(f"{name}_bucket{cls._labelset(le)} {cumulative}")
        base = cls._labelset(labels)
        lines.append(f"{name}_sum{base} {_format_value(child.sum)}")
        lines.append(f"{name}_count{base} {child.count}")
        return lines


# -- the process-wide registry ----------------------------------------------

_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry every subsystem instruments into."""
    return _REGISTRY


def _free_lock_in_child() -> None:
    # A fork copies the registry lock in whatever state another thread
    # of the parent left it, and that thread does not exist in the
    # child: a pool worker forked beside a busy thread would block on
    # its first metric.  Start it with a free one (every family shares
    # the registry's lock).
    _REGISTRY._lock = threading.RLock()
    for family in _REGISTRY._families.values():
        family._lock = _REGISTRY._lock


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_free_lock_in_child)


def reset_registry() -> None:
    """Zero the global registry in place (tests; pool-worker task
    boundaries).  Module-level family handles stay valid."""
    _REGISTRY.reset()
