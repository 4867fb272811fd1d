#!/usr/bin/env python3
"""Compare two benchmark result sets: ``python3 bench/compare.py A B``.

``A`` (the base) and ``B`` are result files written by ``bench/run.py``;
each may be a comma-separated list of files, in which case the runs on
that side form the sample whose median and quartiles are compared.

One row per (workload, end-to-end metric) — the timed metrics with the
bounds of ``BENCHMARK.json`` and the exact outcome metrics with a bound
of 0 — giving both medians and quartiles, the ratio B/A, and a verdict:

``better``        B is better than A by more than the run-to-run spread
                  (by more than the bound, with one run per side)
``within-bound``  B is no worse than A by more than the metric's bound
``regressed``     B is worse than A by more than the bound
``unresolved``    the run-to-run spread exceeds the bound, so neither can
                  be said (needs several runs per side to be detected)

followed by the per-layer rows that moved most.  Exits non-zero on any
``regressed`` row or when B failed a higher share of its ops.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import catalog  # noqa: E402


def load_side(spec: str) -> list[dict]:
    documents = []
    for path in spec.split(","):
        with open(path) as fh:
            document = json.load(fh)
        if document.get("format") != "lego-bench-v1":
            raise SystemExit(f"{path}: not a bench/run.py result file")
        documents.append(document)
    return documents


def samples(documents: list[dict], workload: str, section: str,
            metric: str) -> list[float]:
    values = []
    for document in documents:
        result = document["workloads"].get(workload)
        if result is not None and metric in result.get(section, {}):
            values.append(float(result[section][metric]))
    return values


def summary(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)`` over the runs of one side; a side of one run
    has no spread to report."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        return statistics.median(values), q1, q3
    return values[0], values[0], values[0]


def verdict(a: list[float], b: list[float], sa, sb, better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` — worsening is the share of A's median by
    which B is worse (negative when B is better)."""
    med_a, med_b = sa[0], sb[0]
    if med_a == 0:
        worse = 0.0 if med_b == 0 else math.inf
    else:
        worse = (med_b / med_a - 1.0) * (1.0 if better == "lower" else -1.0)
    if bound == 0:      # exact metric: any change is a verdict
        if worse == 0:
            return "within-bound", worse
        return ("regressed" if worse > 0 else "better"), worse
    spread = max((sa[2] - sa[1]) / med_a if med_a else 0.0,
                 (sb[2] - sb[1]) / med_b if med_b else 0.0)
    sign = 1.0 if better == "lower" else -1.0
    all_worse = min(sign * v for v in b) > max(sign * v for v in a)
    all_better = max(sign * v for v in b) < min(sign * v for v in a)
    if worse > bound:
        if spread <= bound or all_worse:
            return "regressed", worse
        return "unresolved", worse
    if spread > bound and not all_better:
        return "unresolved", worse
    # one run per side has no spread to clear: ask for the bound instead
    clear = spread if len(a) > 1 and len(b) > 1 else bound
    if -worse > clear:
        return "better", worse
    return "within-bound", worse


def compare(side_a: list[dict], side_b: list[dict], top: int) -> int:
    for label, side in (("A", side_a), ("B", side_b)):
        for document in side:
            env = document["environment"]
            if not env.get("comparable", True):
                print(f"note: a {label} file is a --quick run; its numbers "
                      "are not comparable")
            if env.get("loadavg_high"):
                print(f"note: a {label} file started under load "
                      f"({env['loadavg_start']:.2f} > nproc)")
    seeds = {d["environment"]["seed"] for d in side_a + side_b}
    if len(seeds) > 1:
        print(f"note: seeds differ ({sorted(seeds)}); exact metrics are "
              "only comparable at equal seeds")

    workloads = [n for n, _w in catalog.WORKLOADS
                 if any(n in d["workloads"] for d in side_a)
                 and any(n in d["workloads"] for d in side_b)]
    rows = [(n, "end_to_end", metric, better, bound)
            for n in workloads
            for metric, _u, better, bound, _m in catalog.END_TO_END]
    rows += [(n, "end_to_end", metric, better, None)
             for n in workloads
             for metric, _u, better, _m in catalog.UNBOUNDED]
    rows += [(w, "outcomes", metric, better, 0.0)
             for metric, _u, better, w, _m in catalog.OUTCOMES
             if w in workloads]
    status = 0
    print(f"{'workload':13s}{'metric':22s}{'A median [q1,q3]':>34s}"
          f"{'B median [q1,q3]':>34s}{'B/A':>8s}{'bound':>7s}  verdict")
    for workload, section, metric, better, bound in rows:
        a = samples(side_a, workload, section, metric)
        b = samples(side_b, workload, section, metric)
        if not a or not b:
            continue
        sa, sb = summary(a), summary(b)
        if bound is None:   # recorded, too noisy to hold to a bound
            word, shown = "(unbounded)", "-"
        else:
            word, _worse = verdict(a, b, sa, sb, better, bound)
            shown = f"{bound:.2f}"
        ratio = sb[0] / sa[0] if sa[0] else math.nan
        cell = "{:.5g} [{:.5g},{:.5g}]".format
        print(f"{workload:13s}{metric:22s}{cell(*sa):>34s}{cell(*sb):>34s}"
              f"{ratio:8.3f}{shown:>7s}  {word}")
        if word == "regressed":
            status = 1

    for workload in workloads:
        def failed_share(side):
            attempted = sum(d["workloads"][workload]["ops_attempted"]
                            for d in side if workload in d["workloads"])
            failed = sum(d["workloads"][workload]["ops_failed"]
                         for d in side if workload in d["workloads"])
            return failed / attempted if attempted else 0.0
        share_a, share_b = failed_share(side_a), failed_share(side_b)
        if share_b > share_a:
            print(f"{workload}: failed share rose {share_a:.4%} -> "
                  f"{share_b:.4%}")
            status = 1

    moved = []
    for workload in workloads:
        names = set()
        for document in side_a + side_b:
            names |= set(document["workloads"].get(workload, {})
                         .get("layers", {}))
        for metric in names:
            a = samples(side_a, workload, "layers", metric)
            b = samples(side_b, workload, "layers", metric)
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            if med_a > 0 and med_b > 0:
                moved.append((abs(math.log(med_b / med_a)), workload, metric,
                              med_a, med_b))
    if moved:
        print(f"\nper-layer rows that moved most (top {top}):")
        for _key, workload, metric, med_a, med_b in sorted(
                moved, reverse=True)[:top]:
            print(f"  {workload:13s}{metric:34s}{med_a:14.5g}"
                  f"{med_b:14.5g}{med_b / med_a:8.3f}x")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("a", help="base result file(s), comma-separated")
    parser.add_argument("b", help="result file(s) to judge against the base")
    parser.add_argument("--top", type=int, default=12,
                        help="how many moved per-layer rows to list")
    args = parser.parse_args(argv)
    return compare(load_side(args.a), load_side(args.b), args.top)


if __name__ == "__main__":
    sys.exit(main())
