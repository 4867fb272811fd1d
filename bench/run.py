#!/usr/bin/env python3
"""The repo benchmark driver.

One workload, as the PR driver calls it (prints one JSON object as the
last line of stdout)::

    python3 bench/run.py --workload cold_compile --seed 1 --seconds 15 --trace 0

The whole set, written to a result file that ``bench/compare.py`` reads::

    python3 bench/run.py [--seed N] [--traced] [--quick] [--out FILE]
    python3 bench/run.py --check-determinism
    python3 bench/run.py --print-manifest > BENCHMARK.json

Every workload runs in its own process (``bench/harness.py``), started
here with a private temp directory under ``bench/out/`` that holds every
cache, so nothing is read or written outside the checkout and nothing
leaks between workloads.  Set-up is repeated ``SETUPS`` times per run and
``setup_s`` is the median.  This file imports only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import catalog  # noqa: E402

SETUPS = 3              # set-ups per run; setup_s is their median
CHILD_TIMEOUT_S = 170   # a run must end within 180 s
WORKLOAD_NAMES = [name for name, _why in catalog.WORKLOADS]


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

_LIVE: list[subprocess.Popen] = []


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop a workload process and everything it started (servers, pool
    workers, compilers), then wait for it."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            continue
        # the leader is gone; give stragglers of its group the same signal
        deadline = time.time() + 2
        while time.time() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except (ProcessLookupError, PermissionError):
                return
            time.sleep(0.05)


def _child_env(tmp: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # every cache under the run's temp dir, never ~/.cache/repro
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "default-cache")
    env["TMPDIR"] = tmp
    env["BENCH_TMP"] = tmp
    # pinned so run-to-run spread measures the machine, not the hash
    # seed; --check-determinism is the mode that varies it
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def run_child(workload: str, seed: int, seconds: float, trace: bool,
              quick: bool, setup_only: bool, env_extra: dict | None = None
              ) -> tuple[float, dict | None]:
    """One workload process: ``(setup_s, result or None)``."""
    tmp_base = os.path.join(BENCH_DIR, "out", "tmp")
    os.makedirs(tmp_base, exist_ok=True)
    tmp = os.path.join(tmp_base, f"{workload}-{os.getpid()}-{time.time_ns()}")
    os.makedirs(tmp)
    env = _child_env(tmp)
    env.update(env_extra or {})
    argv = [sys.executable, os.path.join(BENCH_DIR, "harness.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds)), "--trace", str(int(trace)),
            "--quick", str(int(quick))]
    if setup_only:
        argv.append("--setup-only")
    env["BENCH_T0"] = repr(time.time())
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    _LIVE.append(proc)
    try:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload}: no result within "
                             f"{CHILD_TIMEOUT_S} s") from None
        setup_s, result = None, None
        for line in out.splitlines():
            if line.startswith("READY "):
                setup_s = float(line.split()[1])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        if proc.returncode != 0 or setup_s is None:
            raise BenchError(f"{workload}: workload process exited "
                             f"{proc.returncode}")
        if not setup_only and result is None:
            raise BenchError(f"{workload}: workload process printed no "
                             "result")
        return setup_s, result
    finally:
        _kill_group(proc)
        _LIVE.remove(proc)
        shutil.rmtree(tmp, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False, setups: int = SETUPS,
                 env_extra: dict | None = None) -> dict:
    """Set up ``setups`` times (the last one goes on to measure) and
    return the workload's result with the median ``setup_s``."""
    setup_samples = []
    for _ in range(setups - 1):
        setup_s, _none = run_child(workload, seed, seconds, trace, quick,
                                   setup_only=True, env_extra=env_extra)
        setup_samples.append(setup_s)
    loadavg = os.getloadavg()[0]
    setup_s, result = run_child(workload, seed, seconds, trace, quick,
                                setup_only=False, env_extra=env_extra)
    setup_samples.append(setup_s)
    result["end_to_end"]["setup_s"] = statistics.median(setup_samples)
    result["end_to_end"]["setup_s_samples"] = setup_samples
    result["loadavg_start"] = loadavg
    if "layers" in result:
        result["layers"]["bench.loadavg_start"] = loadavg
    return result


# ---------------------------------------------------------------------------
# the driver contract: one workload, one JSON line
# ---------------------------------------------------------------------------

def contract_line(result: dict, trace: bool) -> dict:
    metrics = {}
    if not trace:
        for name, unit, _better, _bound, _meaning in catalog.END_TO_END:
            metrics[name] = {"value": result["end_to_end"][name],
                             "unit": unit}
    else:
        # a layer this workload does not exercise did no work in it: 0
        values = {name: result["end_to_end"][name]
                  for name, *_ in catalog.UNBOUNDED}
        values.update(result.get("outcomes", {}))
        values.update(result.get("layers", {}))
        for entry in catalog.manifest()["per_layer"]:
            metrics[entry["name"]] = {
                "value": values.get(entry["name"], 0), "unit": entry["unit"]}
    return {"correct": result["ops_failed"] == 0,
            "attempted": int(result["ops_attempted"]),
            "failed": int(result["ops_failed"]),
            "metrics": metrics}


# ---------------------------------------------------------------------------
# the whole set
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def environment(seed: int, quick: bool) -> dict:
    nproc = os.cpu_count() or 1
    loadavg = os.getloadavg()[0]
    return {"seed": seed, "git_sha": _git_sha(), "nproc": nproc,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "loadavg_start": loadavg, "loadavg_high": loadavg > nproc,
            "comparable": not quick,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def run_set(args) -> int:
    seconds = 1.0 if args.quick else args.seconds
    setups = 1 if args.quick else SETUPS
    env = environment(args.seed, args.quick)
    if env["loadavg_high"]:
        print(f"WARNING: load average {env['loadavg_start']:.2f} exceeds "
              f"nproc={env['nproc']}; timings will be noisy",
              file=sys.stderr)
    names = [args.only] if args.only else WORKLOAD_NAMES
    document = {"format": "lego-bench-v1", "environment": env,
                "run_seconds": seconds, "workloads": {}}
    for name in names:
        print(f"== {name}", file=sys.stderr)
        result = run_workload(name, args.seed, seconds, trace=False,
                              quick=args.quick, setups=setups)
        if args.traced:
            traced = run_workload(name, args.seed, seconds, trace=True,
                                  quick=args.quick, setups=1)
            result["layers"] = traced["layers"]
            result["absent"] = traced["absent"]
            result["trace_file"] = traced["trace_file"]
            result["traced_ops_attempted"] = traced["ops_attempted"]
            result["traced_ops_failed"] = traced["ops_failed"]
        document["workloads"][name] = result
        versions = result.get("info", {}).get("versions")
        if versions:
            env.update(versions)
    out = args.out or os.path.join(BENCH_DIR, "out",
                                   f"result-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
    print_table(document)
    print(f"wrote {os.path.relpath(out)}")
    failed = sum(w["ops_failed"] for w in document["workloads"].values())
    return 1 if failed else 0


def print_table(document: dict) -> None:
    if not document["environment"]["comparable"]:
        print("(--quick: schema smoke only, numbers are NOT comparable)")
    units = {n: u for n, u, *_ in catalog.END_TO_END}
    units.update({n: u for n, u, *_ in catalog.UNBOUNDED})
    units.update({n: u for n, u, *_ in catalog.OUTCOMES})
    print(f"{'workload':14s}{'metric':24s}{'value':>16s}  unit")
    for name, result in document["workloads"].items():
        rows = dict((k, v) for k, v in result["end_to_end"].items()
                    if k in units)
        rows.update(result.get("outcomes", {}))
        for metric, value in rows.items():
            print(f"{name:14s}{metric:24s}{value:16.6g}  {units[metric]}")
        print(f"{name:14s}{'ops_attempted':24s}"
              f"{result['ops_attempted']:16d}  count")
        print(f"{name:14s}{'ops_failed':24s}"
              f"{result['ops_failed']:16d}  count")
        if result.get("absent"):
            print(f"{name:14s}absent span targets: "
                  + ", ".join(result["absent"]))


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def _exact_view(result: dict) -> dict:
    view = {f"outcome:{k}": v for k, v in result["outcomes"].items()}
    for name in catalog.EXACT_LAYER_COUNTS:
        if name in result.get("layers", {}):
            view[f"layer:{name}"] = result["layers"][name]
    for name, digest in result["info"].get("artifact_sha256", {}).items():
        view[f"sha256:{name}"] = digest
    for name, value in result["info"].get("search", {}).items():
        view[f"search:{name}"] = value
    return view


def check_determinism(args) -> int:
    """cold_compile and dse_explore under two PYTHONHASHSEED values: every
    exact metric, exact layer count and artifact digest must match."""
    status = 0
    for name in ("cold_compile", "dse_explore"):
        views = []
        for hash_seed in ("1", "4242"):
            print(f"== {name} PYTHONHASHSEED={hash_seed}", file=sys.stderr)
            result = run_workload(
                name, args.seed, seconds=0.1, trace=True, quick=False,
                setups=1, env_extra={"PYTHONHASHSEED": hash_seed})
            if result["ops_failed"]:
                print(f"{name}: {result['ops_failed']} failed ops")
                status = 1
            views.append(_exact_view(result))
        differing = sorted(k for k in set(views[0]) | set(views[1])
                           if views[0].get(k) != views[1].get(k))
        print(f"{name}: {len(views[0])} exact values compared, "
              f"{len(differing)} differ")
        for key in differing:
            print(f"  {key}: {views[0].get(key)!r} != {views[1].get(key)!r}")
            status = 1
    return status


# ---------------------------------------------------------------------------

def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload and print the driver's "
                        "one-line JSON result")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=float(catalog.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="whole set: add the traced run (per-layer rows)")
    parser.add_argument("--only", choices=WORKLOAD_NAMES,
                        help="whole set: just this workload")
    parser.add_argument("--quick", action="store_true",
                        help="schema smoke: one short rep of reduced size, "
                        "numbers not comparable")
    parser.add_argument("--out", help="whole set: result file")
    parser.add_argument("--check-determinism", action="store_true")
    parser.add_argument("--print-manifest", action="store_true",
                        help="print BENCHMARK.json")
    args = parser.parse_args(argv)

    if args.print_manifest:
        print(json.dumps(catalog.manifest(), indent=2))
        return 0
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro beside bench/ — nothing to measure",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _on_signal)
    try:
        if args.check_determinism:
            return check_determinism(args)
        if args.workload is None:
            return run_set(args)
        result = run_workload(args.workload, args.seed, args.seconds,
                              trace=bool(args.trace), quick=args.quick,
                              setups=1 if args.quick else SETUPS)
        for line in result.get("info", {}).get("op_errors", []):
            print(f"op error: {line}", file=sys.stderr)
        print(json.dumps(contract_line(result, bool(args.trace))))
        return 0
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in list(_LIVE):
            _kill_group(proc)


if __name__ == "__main__":
    sys.exit(main())
