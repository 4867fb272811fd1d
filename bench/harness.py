"""Workload-process side of the benchmark: the rep loop, op timing, the
statistics every workload shares, and the ``python bench/harness.py``
entry point that ``run.py`` spawns once per workload.

One workload = one process (imports, caches and peak memory must not
leak between workloads).  The process sets up, prints ``READY``, runs
the workload's fixed op list as many times as fit in ``--seconds``
(closed loop: every caller here waits for its reply), checks outputs
outside the timed section, and prints one JSON document.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import statistics
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def tail(samples: list[float]) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least ten
    samples beyond it; with under 100 samples there is no such
    percentile worth the name, so the slowest sample (p100) is used."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 100:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------------
# calibration: the machine's speed, sampled beside the work
# ---------------------------------------------------------------------------
#
# The reference host is a 2-vCPU microVM whose speed drifts by +-30% over
# minutes (a fixed pure-Python loop reads 0.105 to 0.30 s), so a wall-clock
# median over any window the driver allows moves by more than any bound it
# accepts.  A fixed reference computation is therefore timed at op
# boundaries — at most every CAL_INTERVAL_S, for about CAL_SHARE of the
# time since the last boundary — and each rep's times are rescaled by
# CAL_REFERENCE_S / (the rep's median calibration): "seconds on a machine
# on which calibrate() takes CAL_REFERENCE_S".  The raw wall-clock
# readings are kept beside the calibrated ones.

CAL_REFERENCE_S = 0.006
CAL_INTERVAL_S = 0.25
CAL_SHARE = 0.05        # of the time since the last calibration point
CAL_MAX_SAMPLES = 5
_CAL_VECTOR = None


def calibrate() -> float:
    """Seconds of a fixed computation in the mix of the code under test:
    interpreter loop, allocation, one NumPy kernel.  Cache resident and
    single threaded on purpose.  A walk over a large object pool was
    tried as a fourth part and swung three times as far as any workload
    (it over-corrected); a BLAS call would wake the second vCPU, and that
    wake-up is the noisiest thing on the host."""
    global _CAL_VECTOR
    if _CAL_VECTOR is None:
        import numpy

        _CAL_VECTOR = numpy.arange(100_000, dtype=numpy.int64)
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    table = {}
    for i in range(10_000):
        table[i] = str(i)
    (_CAL_VECTOR * _CAL_VECTOR + _CAL_VECTOR).sum()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# context shared by a workload's set-up, reps and checks
# ---------------------------------------------------------------------------

class Op:
    """One timed operation; the body sets ``n``/``bad`` for ops that
    stand for many requests (a batch) and ``ok`` for single ones."""

    __slots__ = ("kind", "seconds", "n", "bad", "ok")

    def __init__(self, kind: str, seconds: float = 0.0, ok: bool = True):
        self.kind = kind
        self.seconds = seconds
        self.n = 1
        self.bad = 0 if ok else 1
        self.ok = ok


class Context:
    def __init__(self, seed: int, quick: bool, tmp: str):
        self.seed = seed
        self.quick = quick
        self.tmp = tmp
        self.rng = random.Random(seed)
        self.recorder = None          # spans.Recorder while tracing
        self.ops: list[Op] = []       # ops of the rep in progress
        self.children: list = []      # long-lived subprocess.Popen objects
        self.info: dict = {}          # free-form facts for the result file
        self.cal: list[float] = []    # calibration samples of this rep
        self.cal_spent = 0.0          # seconds they took
        self._cal_at = time.perf_counter()
        self._dirs = 0

    def calibrate(self, force: bool = False) -> None:
        """Sample the machine's speed if the last sample is stale: more
        samples after a long op, so the share of time spent calibrating
        stays about CAL_SHARE."""
        gap = time.perf_counter() - self._cal_at
        if not force and gap < CAL_INTERVAL_S:
            return
        wanted = int(gap * CAL_SHARE / CAL_REFERENCE_S)
        for _ in range(max(1, min(CAL_MAX_SAMPLES, wanted))):
            sample = calibrate()
            self.cal.append(sample)
            self.cal_spent += sample
        self._cal_at = time.perf_counter()

    def fresh_dir(self, label: str) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp, f"{label}-{self._dirs}")
        os.makedirs(path, exist_ok=True)
        return path

    @contextlib.contextmanager
    def op(self, kind: str):
        """Time one op; any exception is a failed op, not a crash."""
        op = Op(kind)
        self.calibrate()
        index = (self.recorder.begin("op", op=kind)
                 if self.recorder is not None else None)
        start = time.perf_counter()
        try:
            yield op
        except Exception as exc:  # noqa: BLE001 — a failed op is a result
            op.ok = False
            self.info.setdefault("op_errors", []).append(
                f"{kind}: {type(exc).__name__}: {exc}"[:300])
        finally:
            op.seconds = time.perf_counter() - start
            if index is not None:
                self.recorder.end(index)
            if not op.ok and op.bad == 0:
                op.bad = op.n
            self.ops.append(op)

    def record(self, kind: str, seconds: float, ok: bool) -> None:
        """Append a sample timed by the caller (tight request loops)."""
        self.ops.append(Op(kind, seconds, ok))


class Workload:
    """Interface the five workloads implement."""

    name = ""
    #: op kind -> per-layer metric that is simply that kind's median
    #: latency (a batch, a search): the op *is* the layer's busy time
    op_layers: dict[str, str] = {}

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def setup(self) -> None:
        """Everything before the first timed op."""

    def rep(self, index: int) -> None:
        """One pass over the fixed op list, through ``ctx.op``."""
        raise NotImplementedError

    def check(self) -> tuple[int, int, dict]:
        """Output checks outside the timed section:
        ``(attempted, failed, details)``."""
        return 0, 0, {}

    def outcomes(self) -> dict:
        """Exact workload-specific outcome metrics."""
        return {}

    def layers(self, traced_reps: list[dict], e2e: dict) -> dict:
        """Per-layer metrics beyond the span self-times (probes, counts);
        *e2e* is the untraced summary."""
        return {}

    def teardown(self) -> None:
        """Stop children; must be safe to call twice."""


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def _proc_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb(children) -> float:
    """Load generator + live server children + largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    live = sum(_proc_hwm_kb(p.pid) for p in children if p.poll() is None)
    return (own + reaped + live) / 1024.0


# ---------------------------------------------------------------------------
# the measurement loop
# ---------------------------------------------------------------------------

def _run_rep(wl: Workload, index: int) -> dict:
    ctx = wl.ctx
    gc.collect()
    ctx.ops = []
    if ctx.recorder is not None:
        ctx.recorder.reset()
    ctx.cal = []
    ctx.calibrate(force=True)
    ctx.cal_spent = 0.0
    start = time.perf_counter()
    wl.rep(index)
    # the samples taken inside the rep are not the workload's time
    wall = time.perf_counter() - start - ctx.cal_spent
    ctx.calibrate(force=True)
    cal_s = statistics.median(ctx.cal)
    rep = {"wall_s": wall, "ops": ctx.ops, "cal_s": cal_s,
           "scale": CAL_REFERENCE_S / cal_s}
    if ctx.recorder is not None:
        rep["self_ms"], rep["calls"] = ctx.recorder.self_times_ms()
        rep["op_span_ms"] = sum(s[2] - s[1] for s in ctx.recorder.spans
                                if s[0] == "op") / 1e6
    return rep


def _reps_until(wl: Workload, budget_s: float, reps: list[dict],
                min_reps: int) -> None:
    """Repeat the op list while the next rep is more likely than not to
    end inside the budget (so a run overshoots by at most half a rep)."""
    start = time.perf_counter()
    while True:
        reps.append(_run_rep(wl, len(reps)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= min_reps and elapsed + 0.5 * typical >= budget_s:
            return


def summarize(reps: list[dict]) -> dict:
    """End-to-end timing metrics of a list of untraced reps: calibrated
    (``run_s``, ``op_ms``) and, beside them, as read off the clock
    (``run_wall_s``, ``op_wall_ms``)."""
    wall_by_kind: dict[str, list[float]] = {}
    by_kind: dict[str, list[float]] = {}
    for rep in reps:
        for op in rep["ops"]:
            wall_by_kind.setdefault(op.kind, []).append(op.seconds * 1e3)
            by_kind.setdefault(op.kind, []).append(
                op.seconds * 1e3 * rep["scale"])
    kind_ms = {k: statistics.median(v) for k, v in by_kind.items()}
    kind_wall_ms = {k: statistics.median(v) for k, v in wall_by_kind.items()}
    tails = [tail([op.seconds * 1e3 for op in rep["ops"]]) for rep in reps]
    walls = [rep["wall_s"] for rep in reps]
    return {
        "run_s": statistics.median(rep["wall_s"] * rep["scale"]
                                   for rep in reps),
        "op_ms": geomean(kind_ms.values()),
        "op_kind_ms": kind_ms,
        "run_wall_s": statistics.median(walls),
        "run_wall_s_quartiles": quartiles(walls),
        "op_wall_ms": geomean(kind_wall_ms.values()),
        "op_kind_wall_ms": kind_wall_ms,
        "op_tail_ms": statistics.median(t[0] for t in tails),
        "tail_percentile": statistics.median(t[1] for t in tails),
        "calibration_ms": statistics.median(rep["cal_s"]
                                            for rep in reps) * 1e3,
        "op_kind_samples": {k: len(v) for k, v in by_kind.items()},
        "reps": len(reps),
        "rep_wall_s": walls,
        "rep_calibration_ms": [rep["cal_s"] * 1e3 for rep in reps],
        "ops_per_rep": len(reps[0]["ops"]),
        "requests_per_rep": sum(op.n for op in reps[0]["ops"]),
    }


def measure(wl: Workload, seconds: float, trace: bool) -> dict:
    ctx = wl.ctx
    untraced: list[dict] = []
    traced: list[dict] = []
    discarded: list[dict] = []
    absent: list[str] = []
    trace_file = None
    if not trace:
        _reps_until(wl, seconds, untraced, min_reps=2)
    else:
        # One discarded warm-up rep (first-touch costs would otherwise
        # land on whichever side runs first), then untraced and traced
        # reps in alternation so both sides see the same machine state.
        import probes
        from spans import Recorder, Tracing

        recorder = Recorder()
        tracing = Tracing(recorder)
        start = time.perf_counter()
        discarded.append(_run_rep(wl, 0))
        try:
            while True:
                untraced.append(_run_rep(wl, len(untraced)))
                ctx.recorder = recorder
                tracing.install()
                traced.append(_run_rep(wl, len(traced)))
                tracing.remove()
                ctx.recorder = None
                pair = untraced[-1]["wall_s"] + traced[-1]["wall_s"]
                if time.perf_counter() - start + 0.5 * pair >= seconds:
                    break
            out_dir = os.path.join(BENCH_DIR, "out")
            os.makedirs(out_dir, exist_ok=True)
            trace_file = os.path.join(out_dir, f"trace-{wl.name}.json")
            recorder.write_chrome_trace(trace_file)
        finally:
            tracing.remove()
            ctx.recorder = None
        absent = tracing.absent

    e2e = summarize(untraced)
    every = discarded + untraced + traced
    attempted = sum(op.n for rep in every for op in rep["ops"])
    failed = sum(op.bad for rep in every for op in rep["ops"])
    checks_attempted, checks_failed, check_details = wl.check()
    attempted += checks_attempted
    failed += checks_failed

    result = {
        "workload": wl.name,
        "seed": ctx.seed,
        "quick": ctx.quick,
        "ops_attempted": attempted,
        "ops_failed": failed,
        "end_to_end": e2e,
        "outcomes": wl.outcomes(),
        "checks": check_details,
        "info": ctx.info,
    }
    if trace:
        layers = {}
        names = sorted({n for rep in traced for n in rep["self_ms"]})
        for name in names:
            layers[name + "_ms"] = statistics.median(
                rep["self_ms"].get(name, 0.0) for rep in traced)
        calls = sorted({n for rep in traced for n in rep["calls"]})
        for name in calls:
            layers[name + "_calls"] = statistics.median(
                rep["calls"].get(name, 0) for rep in traced)
        traced_run_s = statistics.median(r["wall_s"] * r["scale"]
                                         for r in traced)
        layers["bench.trace_overhead_pct"] = 100.0 * (
            traced_run_s / e2e["run_s"] - 1.0)
        layers["bench.calibration_ms"] = e2e["calibration_ms"]
        for kind, metric in wl.op_layers.items():
            layers[metric] = e2e["op_kind_wall_ms"][kind]
        layers.update(wl.layers(traced, e2e))
        layers["cli.import_ms"] = probes.cli_import_ms()
        result["layers"] = layers
        result["absent"] = absent
        result["trace_file"] = os.path.relpath(trace_file, ROOT)
        result["traced_reps"] = len(traced)
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb(ctx.children)
    return result


# ---------------------------------------------------------------------------
# entry point of the per-workload process
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    t0 = float(os.environ["BENCH_T0"])   # wall clock at spawn
    tmp = os.environ["BENCH_TMP"]        # created and removed by run.py
    sys.path.insert(0, BENCH_DIR)
    from workloads import load

    ctx = Context(args.seed, bool(args.quick), tmp)
    wl = load(args.workload, ctx)
    try:
        wl.setup()
        setup_s = time.time() - t0
        print(f"READY {setup_s!r}", flush=True)
        if args.setup_only:
            return 0
        calibrate()     # untimed: the first call builds its vector
        result = measure(wl, args.seconds, bool(args.trace))
        import numpy
        import scipy

        result["info"]["versions"] = {"numpy": numpy.__version__,
                                      "scipy": scipy.__version__}
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        wl.teardown()


if __name__ == "__main__":
    sys.exit(main())
