"""Command-line interface: ``python -m repro <command>`` (or the
``repro`` console script).

Commands
--------
``generate``   run the full flow for a named kernel/dataflow and emit
               the chosen backend family's artifacts (Verilog by
               default, ``--backend hls_c`` for HLS-style C) plus a
               design summary (service-cached);
``batch``      generate many designs at once across a worker pool;
``backends``   list the registered emitter backend families;
``evaluate``   end-to-end model performance on a named architecture;
``explore``    design-space exploration with a Pareto report, under a
               pluggable search strategy (``--strategy``/``--max-evals``);
``cache``      inspect, list, or clear the content-addressed design cache;
``serve``      run the asyncio HTTP front end (generate/batch/explore as
               a long-lived service with pausable, journaled jobs that
               survive restarts);
``route``      run a fleet router fanning requests across several
               ``serve`` backends by spec-hash shard;
``metrics``    print a running server's or fleet's ``GET /metrics``
               (Prometheus text);
``trace``      summarize an exported Chrome/Perfetto trace file, or pull
               the live (router-merged) span buffer off a running
               server/fleet with ``--url``;
``profile``    capture a CPU flamegraph: of a running server/fleet with
               ``--url`` (``GET /debug/profile``), or of a local
               calibration workload;
``top``        live auto-refreshing terminal dashboard of a running
               server or fleet (rates, latency quantiles, cache tiers,
               jobs, backend health).

``generate``, ``batch`` and ``explore`` print the same report whether
they run in-process or against a service with ``--url``: both paths
produce the same result records (``DesignResult.to_json``,
``SearchResult.to_json``) and one renderer prints them.  A flag that
only means something in this process exits 2 under ``--url``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

# The built-in emitter families by name, for ``--backend`` ``choices=``:
# asking ``repro.backends`` would load both emitters, the back end and
# numpy in every invocation, ``--help`` included.
from ._builtin_backends import BUILTIN_BACKENDS


def _build_engine(args: argparse.Namespace):
    """Engine honouring the shared ``--cache-dir``/``--no-cache`` flags."""
    from .service.cache import DesignCache
    from .service.engine import BatchEngine

    workers = getattr(args, "workers", None)
    if getattr(args, "no_cache", False):
        return BatchEngine(cache=None, workers=workers)
    cache_dir = getattr(args, "cache_dir", None)
    cache = DesignCache(root=cache_dir) if cache_dir else DesignCache()
    return BatchEngine(cache=cache, workers=workers)


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", help="design cache location "
                        "(default: $REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the design cache entirely")


def _request_from_args(args: argparse.Namespace, dataflows=None):
    import dataclasses

    from .backend import BackendOptions
    from .service.spec import DesignRequest

    options = (BackendOptions.baseline() if args.no_optimize
               else BackendOptions())
    if getattr(args, "no_testbench", False):
        options = dataclasses.replace(options, emit_testbench=False)
    return DesignRequest(
        kernel=args.kernel,
        dataflows=tuple(dataflows if dataflows is not None
                        else args.dataflows),
        array=tuple(args.array),
        systolic=not args.broadcast,
        options=options,
        module=getattr(args, "module", "lego_top"),
        backend=getattr(args, "backend", "verilog"),
    )


def _artifact_suffix(name: str, module: str) -> str:
    """`lego_top_tb.c` emitted for module `lego_top` -> `_tb.c` — the
    per-artifact suffix appended to a hash- or stem-based filename."""
    return name[len(module):] if name.startswith(module) else f"_{name}"


def _write_artifacts(output: str, request, artifacts: dict) -> None:
    """``generate -o``: the primary (first) artifact goes to *output*;
    companion artifacts (e.g. the hls_c testbench) land next to it,
    named after its stem."""
    out_path = pathlib.Path(output)
    primary = next(iter(artifacts), None)
    text = artifacts.get(primary, "")
    out_path.write_text(text)
    print(f"wrote {len(text.splitlines())} lines ({request.backend}) "
          f"to {output}")
    stem = out_path.name
    for suffix in (out_path.suffixes or [""])[::-1]:
        stem = stem.removesuffix(suffix)
    for name, text in artifacts.items():
        if name == primary:
            continue
        side = out_path.with_name(
            stem + _artifact_suffix(name, request.module))
        side.write_text(text)
        print(f"wrote companion artifact {side}")


def _export_trace_arg(args: argparse.Namespace, trace_id: str,
                      client=None) -> None:
    """Honour a ``--trace-out`` flag: write the run's spans as
    Perfetto-loadable JSON — everything this process's tracer buffered
    (pool-worker spans included), or with *client* the service's spans
    of *trace_id*."""
    if not args.trace_out:
        return
    from .obs import export_chrome_trace

    events = (client.trace(trace_id=trace_id)["traceEvents"]
              if client is not None else None)
    count = export_chrome_trace(args.trace_out, events)
    print(f"wrote {count} trace events (trace_id {trace_id}) to "
          f"{args.trace_out}")


def _service_client(args: argparse.Namespace):
    """A :class:`ServiceClient` honoring the shared remote flags
    (``--url``, ``--timeout``, ``--connect-timeout``)."""
    from .service.client import ServiceClient

    return ServiceClient.from_url(
        args.url, timeout=args.timeout,
        connect_timeout=args.connect_timeout)


def _remote_failed(what: str, url: str, exc: BaseException) -> int:
    """Print a remote failure and return the exit code.  A synthesized
    504 already names which budget expired (connect vs read)."""
    print(f"remote {what} against {url} failed: {exc}", file=sys.stderr)
    return 1


def _refuse_local_flags(args: argparse.Namespace, *flags) -> int:
    """Under ``--url``, a flag that only means something in this
    process exits 2 naming itself; *flags* are ``(flag, given, why)``
    rows added to the shared cache flags."""
    own = "sets this process's design cache (the service uses its own)"
    for flag, given, why in (("--cache-dir", args.cache_dir, own),
                             ("--no-cache", args.no_cache, own), *flags):
        if args.url and given:
            print(f"{flag} {why}; drop --url or {flag}", file=sys.stderr)
            return 2
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    from .obs import new_trace_id, trace_context

    if refused := _refuse_local_flags(
            args, ("--topology", args.topology,
                   "needs the in-process frontend")):
        return refused
    request = _request_from_args(args)
    include_rtl = bool(args.output)
    # one trace id for the run, in-process or adopted by the service
    trace_id = new_trace_id()
    if args.url:
        from .service.client import ServiceError

        try:
            with _service_client(args) as client, trace_context(trace_id):
                record = client.generate(request.to_dict(),
                                         include_rtl=include_rtl)
                _export_trace_arg(args, trace_id, client)
        except (ServiceError, OSError) as exc:
            return _remote_failed("generate", args.url, exc)
    else:
        with trace_context(trace_id):
            record = _build_engine(args).submit(request).to_json(
                include_rtl)
        _export_trace_arg(args, trace_id)
    if not record["ok"]:
        print(f"generation failed: {record['error']}", file=sys.stderr)
        return 1
    print(record["summary"])
    if record["from_cache"]:
        print(f"(cache hit {record['spec_hash'][:12]})")
    if args.topology:
        # Topology rendering needs the live ADG; the frontend alone is
        # cheap, so rebuild it rather than fatten every cache record.
        from .core.frontend import build_adg
        from .report import render_topology

        dfs = request.build_dataflows()
        adg = build_adg(dfs, request.frontend)
        for tensor in adg.tensor_names():
            print(render_topology(adg, tensor, dfs[0].name))
    if args.output:
        _write_artifacts(args.output, request, record["artifacts"])
    return 0


def _parse_array(text: str) -> tuple[int, int]:
    try:
        p0, _, p1 = text.partition("x")
        shape = int(p0), int(p1)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"array {text!r} is not of the form P0xP1 (e.g. 8x8)")
    if shape[0] < 1 or shape[1] < 1:
        raise argparse.ArgumentTypeError(
            f"array {text!r} must have positive dimensions")
    return shape


def _print_plan(plan: dict | None) -> None:
    from .service.engine import summarize_plan

    # a fleet router that split the batch across shards merges no plan
    print("plan: " + (summarize_plan(plan) if plan
                      else "not reported (batch split across shards)"))


def _print_progress(done: int, total: int, record: dict) -> None:
    status = ("hit" if record["from_cache"]
              else "ok" if record["ok"] else "FAIL")
    print(f"  [{done}/{total}] {status:4s} "
          f"{record['kernel']}-{'+'.join(record['dataflows'])}"
          f" @{record['array'][0]}x{record['array'][1]}"
          f"  {record['elapsed_s']:6.2f}s  {record['spec_hash'][:12]}")


def _batch_remote(args: argparse.Namespace, client, requests) -> dict:
    """Run the batch as a service job, printing what an in-process run
    prints as its result events stream in; returns the final job."""
    from .service.client import ServiceError

    job = client.batch([r.to_dict() for r in requests],
                       workers=args.workers)
    shown = 0
    try:
        for event in client.stream(job):
            if event["event"] == "result":
                if args.plan_summary and not shown:  # planned by now
                    _print_plan(client.job(job)["plan"])
                _print_progress(event["done"], event["total"],
                                event["result"])
                shown += 1
    except ServiceError:
        pass  # a router's fan-out jobs do not stream
    final = client.wait(job, timeout=max(args.timeout, 600))
    records = (final.get("result") or {}).get("results") or []
    if args.plan_summary and not shown:
        _print_plan(final.get("plan"))
    for done, record in enumerate(records[shown:], shown + 1):
        _print_progress(done, len(records), record)
    return final


def _cmd_batch(args: argparse.Namespace) -> int:
    import time

    from .service.spec import DesignRequest

    if refused := _refuse_local_flags(
            args, ("--output-dir", args.output_dir,
                   "writes design files the service does not return")):
        return refused
    try:
        if args.spec_file:
            with open(args.spec_file) as fh:
                specs = json.load(fh)
            if not isinstance(specs, list):
                print(f"{args.spec_file}: expected a JSON list of request "
                      "dicts", file=sys.stderr)
                return 2
            requests = [DesignRequest.from_dict(spec) for spec in specs]
        else:
            requests = []
            for array in args.arrays:
                args.array = list(array)  # _request_from_args reads it
                if args.fuse:
                    requests.append(_request_from_args(
                        args, dataflows=tuple(args.dataflows)))
                else:
                    requests.extend(
                        _request_from_args(args, dataflows=(df,))
                        for df in args.dataflows)
    except (ValueError, TypeError, KeyError) as exc:
        print(f"invalid design request: {exc}", file=sys.stderr)
        return 2

    from .obs import new_trace_id, trace_context

    trace_id = new_trace_id()
    if args.url:
        from .service.client import ServiceError

        start = time.perf_counter()
        try:
            with _service_client(args) as client, trace_context(trace_id):
                final = _batch_remote(args, client, requests)
                elapsed = time.perf_counter() - start
                _export_trace_arg(args, trace_id, client)
        except (ServiceError, OSError, TimeoutError) as exc:
            return _remote_failed("batch", args.url, exc)
        if final["status"] != "done":
            print(f"batch job {final['id']} ended {final['status']}: "
                  f"{final.get('error')}", file=sys.stderr)
            return 1
        records, cache = final["result"]["results"], None
    else:
        engine = _build_engine(args)
        if args.plan_summary:
            _print_plan(engine.plan(requests).to_dict())
        start = time.perf_counter()
        with trace_context(trace_id):
            results = engine.generate_many(
                requests, workers=args.workers,
                progress=lambda done, total, result: _print_progress(
                    done, total, result.to_json()))
        elapsed = time.perf_counter() - start
        _export_trace_arg(args, trace_id)
        records, cache = [r.to_json() for r in results], engine.cache
        if args.output_dir:
            out = pathlib.Path(args.output_dir)
            out.mkdir(parents=True, exist_ok=True)
            for result in (r for r in results if r.ok):
                stem = result.spec_hash[:16]
                for name, text in result.artifacts.items():
                    suffix = _artifact_suffix(name, result.request.module)
                    (out / f"{stem}{suffix}").write_text(text)
                # sorted: a design read back from the cache and one just
                # built here write the same bytes
                (out / f"{stem}.json").write_text(
                    json.dumps(result.design, indent=1, sort_keys=True))
            print(f"wrote {sum(r.ok for r in results)} designs to {out}")

    elapsed = max(elapsed, 1e-9)
    ok = sum(r["ok"] for r in records)
    hits = sum(r["from_cache"] for r in records)
    print(f"{ok}/{len(records)} designs ok ({hits} from cache) in "
          f"{elapsed:.2f}s — {len(records) / elapsed:.1f} designs/sec, "
          f"workers={args.workers}")
    if cache is not None:
        print(f"cache: {cache.stats.as_dict()}")
    for record in records:
        if not record["ok"]:
            print(f"  failed {record['spec_hash'][:12]}: "
                  f"{record['error']}", file=sys.stderr)
            if args.show_traceback and record["traceback"]:
                print(record["traceback"], file=sys.stderr)
    return 0 if ok == len(records) else 1


def _cmd_backends(args: argparse.Namespace) -> int:
    from .backends import backends_info

    families = backends_info()
    if args.names:
        for family in families:
            print(family["name"])
        return 0
    for family in families:
        print(f"{family['name']}")
        print(f"  {family['description']}")
        print(f"  artifacts : "
              f"{', '.join(family['artifacts'])}")
        opts = ", ".join(f"{k}={v['default']}"
                         for k, v in family["options"].items())
        print(f"  options   : {opts}")
    return 0


def _arm_faults(args: argparse.Namespace) -> int:
    """Arm ``--fault SITE:KIND[:PARAM]`` specs before serving; returns
    0, or 2 on a malformed spec."""
    from .service.faults import get_faults, parse_fault_spec

    for spec in getattr(args, "fault", None) or []:
        try:
            get_faults().arm(**parse_fault_spec(spec))
        except ValueError as exc:
            print(f"bad --fault: {exc}", file=sys.stderr)
            return 2
        print(f"armed chaos fault: {spec}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.server import serve

    bad = _arm_faults(args)
    if bad:
        return bad
    serve(engine=_build_engine(args), host=args.host, port=args.port,
          log_level=args.log_level,
          slow_request_ms=args.slow_request_ms,
          persist_jobs=not args.no_persist_jobs)
    return 0


def _cmd_route(args: argparse.Namespace) -> int:
    from .service.router import route

    bad = _arm_faults(args)
    if bad:
        return bad
    try:
        route(backends=args.backend, host=args.host, port=args.port,
              log_level=args.log_level, timeout=args.timeout,
              slow_request_ms=args.slow_request_ms,
              replicas=args.replicas,
              probe_interval_s=args.probe_interval,
              breaker_threshold=args.breaker_threshold,
              retry_budget_s=args.retry_budget)
    except ValueError as exc:
        print(f"cannot start router: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .service.client import ServiceClient, ServiceError

    try:
        with ServiceClient.from_url(args.url) as client:
            sys.stdout.write(client.metrics())
    except (OSError, ServiceError) as exc:
        print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import load_chrome_trace

    if bool(args.file) == bool(args.url):
        print("give exactly one of: a trace FILE, or --url to pull the "
              "live span buffer off a running server/fleet",
              file=sys.stderr)
        return 2
    if args.url:
        from .service.client import ServiceClient, ServiceError

        try:
            with ServiceClient.from_url(args.url) as client:
                payload = client.trace(drain=args.drain,
                                       trace_id=args.trace_id)
        except (OSError, ServiceError) as exc:
            print(f"cannot pull trace from {args.url}: {exc}",
                  file=sys.stderr)
            return 2
        events = [e for e in payload.get("traceEvents", [])
                  if isinstance(e, dict)]
        source = args.url
        if payload.get("merged_from"):
            source += f" (merged from {payload['merged_from']} processes)"
        if args.out:
            pathlib.Path(args.out).write_text(json.dumps(
                {"traceEvents": events, "displayTimeUnit": "ms"},
                indent=1))
            print(f"wrote {len(events)} trace events to {args.out} "
                  f"(load at https://ui.perfetto.dev)")
    else:
        try:
            events = load_chrome_trace(args.file)
        except (OSError, ValueError) as exc:
            print(f"cannot read trace: {exc}", file=sys.stderr)
            return 2
        source = args.file
    spans = [e for e in events
             if e.get("ph") == "X" and "ts" in e and "dur" in e]
    print(f"{source}: {len(events)} events "
          f"({len(spans)} complete spans)")
    if not spans:
        return 0
    start = min(e["ts"] for e in spans)
    end = max(e["ts"] + e["dur"] for e in spans)
    pids = {e.get("pid") for e in spans}
    trace_ids = {e["args"]["trace_id"] for e in spans
                 if isinstance(e.get("args"), dict)
                 and "trace_id" in e["args"]}
    print(f"wall span  : {(end - start) / 1e3:.1f} ms across "
          f"{len(pids)} process(es), {len(trace_ids)} trace id(s)")
    by_name: dict[str, list[float]] = {}
    for e in spans:
        by_name.setdefault(str(e.get("name", "?")), []).append(e["dur"])
    print(f"{'span':24s}{'count':>7s}{'total ms':>10s}"
          f"{'mean ms':>9s}{'max ms':>9s}")
    ranked = sorted(by_name.items(), key=lambda kv: -sum(kv[1]))
    for name, durs in ranked[:args.top]:
        total = sum(durs)
        print(f"{name:24s}{len(durs):7d}{total / 1e3:10.1f}"
              f"{total / len(durs) / 1e3:9.2f}{max(durs) / 1e3:9.2f}")
    if len(ranked) > args.top:
        print(f"... {len(ranked) - args.top} more span names "
              f"(raise --top)")
    # which simulator engine produced the golden vectors, and why not
    # the vector engine when it did not
    engines: dict[tuple, int] = {}
    for e in spans:
        attrs = e.get("args")
        if e.get("name") == "sim" and isinstance(attrs, dict) \
                and "engine" in attrs:
            key = (str(attrs["engine"]), attrs.get("fallback"))
            engines[key] = engines.get(key, 0) + 1
    for (engine, reason), count in sorted(engines.items(),
                                          key=lambda kv: -kv[1]):
        print(f"sim engine : {engine} x{count}"
              + (f" (fallback: {reason})" if reason else ""))
    return 0


def _print_profile(profile, args) -> None:
    phases = sorted(profile.by_phase.items(), key=lambda kv: -kv[1])
    # self% is over the population actually shown: busy samples, or
    # every sample when idle stacks are included
    busy = max(1, profile.samples if args.include_idle
               else profile.samples - profile.idle_samples)
    print(f"{profile.samples} samples over {profile.wall_s:.1f}s at "
          f"{profile.hz:g} Hz ({profile.idle_samples} idle)")
    if phases:
        print("by phase: " + "  ".join(
            f"{name}={count}" for name, count in phases[:8]))
    rows = profile.top(args.top, include_idle=args.include_idle)
    if rows:
        print(f"{'frame':40s}{'self':>7s}{'self%':>7s}{'total':>7s}")
        for row in rows:
            print(f"{row['frame'][:40]:40s}{row['self']:7d}"
                  f"{100 * row['self'] / busy:6.1f}%{row['total']:7d}")
    if args.collapsed_out:
        text = profile.collapsed(include_idle=args.include_idle)
        pathlib.Path(args.collapsed_out).write_text(text + "\n")
        print(f"wrote {len(text.splitlines())} collapsed stacks to "
              f"{args.collapsed_out} (feed to flamegraph.pl or "
              f"https://www.speedscope.app)")


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import Profile, profile_for

    if args.url:
        from .service.client import ServiceClient, ServiceError

        timeout = max(60.0, 2.0 * args.seconds + 30.0)
        try:
            with ServiceClient.from_url(args.url,
                                        timeout=timeout) as client:
                payload = client.profile(seconds=args.seconds, hz=args.hz)
        except (OSError, ServiceError) as exc:
            print(f"cannot profile {args.url}: {exc}", file=sys.stderr)
            return 2
        profile = Profile.from_dict(payload)
        where = args.url
        if payload.get("merged_from"):
            where += f" (merged from {payload['merged_from']} processes)"
        print(f"profile of {where}:")
    else:
        # No server given: sample *this* process while it churns
        # through a small calibration workload, so the flamegraph shows
        # the real generation pipeline.
        import threading

        from .service.spec import DesignRequest

        engine = _build_engine(args)
        stop = threading.Event()
        arrays = ((4, 4), (8, 8), (12, 12))

        def churn() -> None:
            i = 0
            while not stop.is_set():
                engine.submit(DesignRequest(kernel="gemm",
                                            dataflows=("KJ",),
                                            array=arrays[i % len(arrays)]))
                i += 1

        worker = threading.Thread(target=churn, daemon=True,
                                  name="repro-profile-workload")
        worker.start()
        profile = profile_for(args.seconds, args.hz)
        stop.set()
        worker.join(timeout=30)
        print("profile of a local generate workload:")
    _print_profile(profile, args)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time

    from .obs import render_dashboard
    from .service.client import ServiceClient, ServiceError

    clear = sys.stdout.isatty() and not args.no_clear
    prev = None
    prev_ts = None
    shown = 0
    with ServiceClient.from_url(args.url) as client:
        while True:
            try:
                health = client.health()
                curr = client.metrics_snapshot()
            except (OSError, ServiceError) as exc:
                print(f"cannot reach {args.url}: {exc}", file=sys.stderr)
                return 1
            now = time.time()
            dt = (now - prev_ts) if prev_ts is not None \
                else float(args.interval)
            frame = render_dashboard(args.url, health, prev, curr,
                                     dt, interval=args.interval)
            if clear:
                sys.stdout.write("\x1b[2J\x1b[H")
            print(frame, flush=True)
            prev, prev_ts = curr, now
            shown += 1
            if args.iterations and shown >= args.iterations:
                return 0
            try:
                time.sleep(args.interval)
            except KeyboardInterrupt:  # pragma: no cover — interactive
                return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .service.cache import DesignCache

    cache = DesignCache(root=args.cache_dir) if args.cache_dir \
        else DesignCache()
    if args.action == "clear":
        print(f"removed {cache.clear()} entries from {cache.root}")
        return 0
    keys = cache.keys()
    if args.action == "stats":
        def size_of(key: str) -> int:
            try:  # entries may vanish under a concurrent clear/eviction
                return cache.path_for(key).stat().st_size
            except OSError:
                return 0
        total_bytes = sum(size_of(k) for k in keys)
        kinds: dict[str, int] = {}
        for key in keys:
            record = cache.peek(key)
            kind = (record or {}).get("kind", "design")
            if kind.startswith("phase-"):
                kind = "phase"
            elif kind == "eval-v1":
                kind = "eval"
            else:
                kind = "design"
            kinds[kind] = kinds.get(kind, 0) + 1
        breakdown = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
        print(f"cache root : {cache.root}")
        print(f"entries    : {len(keys)}" +
              (f" ({breakdown})" if breakdown else ""))
        print(f"size       : {total_bytes / 1024:.1f} KiB")
        return 0
    # list — peek() keeps the listing read-only (no LRU promotion, no
    # mtime refresh that would scramble the eviction order)
    for key in keys:
        record = cache.peek(key)
        if record is None:
            continue
        kind = record.get("kind", "")
        if kind == "eval-v1":
            print(f"{key[:16]}  eval    cycles={record['cycles']:.3g}")
        elif kind.startswith("phase-"):
            # staged-pipeline intermediate (scheduled design / golden
            # simulation vectors)
            phase = kind[len("phase-"):].rsplit("-v", 1)[0]
            print(f"{key[:16]}  phase   {phase}")
        else:
            req = record.get("request", {})
            print(f"{key[:16]}  design  {req.get('kernel', '?')}-"
                  f"{'+'.join(req.get('dataflows', []))} "
                  f"@{'x'.join(map(str, req.get('array', [])))} "
                  f"[{req.get('backend', 'verilog')}]")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .models import zoo
    from .sim.perf_model import GEMMINI_LIKE, ArchPerf, evaluate_model

    if args.model not in zoo.MODEL_BUILDERS:
        print(f"unknown model {args.model!r}; choose from "
              f"{sorted(zoo.MODEL_BUILDERS)}", file=sys.stderr)
        return 2
    model = zoo.MODEL_BUILDERS[args.model]()
    arch = (GEMMINI_LIKE if args.arch == "gemmini" else
            ArchPerf(name="LEGO-MNICOC", dataflows=("MN", "ICOC", "OCOH")))
    perf = evaluate_model(model, arch)
    print(f"{args.model} on {arch.name}:")
    print(f"  {perf.gops:8.1f} GOP/s   {perf.gops_per_watt:8.0f} GOPS/W   "
          f"utilization {100 * perf.utilization:.1f}%")
    stats = perf.instruction_stats()
    print(f"  {stats['cycles_per_instruction']:.0f} cycles/instruction, "
          f"{stats['instruction_bw_gbs'] * 1000:.1f} MB/s instruction BW")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    if refused := _refuse_local_flags(
            args, ("--workers", args.workers != 1,
                   "sizes this process's pool (the service explores "
                   "with its own workers)")):
        return refused
    if args.url:
        from .service.client import ServiceError

        try:
            with _service_client(args) as client:
                job = client.explore(
                    models=args.models, strategy=args.strategy,
                    objective=args.objective, seed=args.seed,
                    max_evals=args.max_evals,
                    area_budget_mm2=args.area_budget)
                final = client.wait(job, timeout=max(args.timeout, 600))
        except (ServiceError, OSError, TimeoutError) as exc:
            return _remote_failed("explore", args.url, exc)
        if final["status"] != "done":
            print(f"explore job {job} ended {final['status']}: "
                  f"{final.get('error')}", file=sys.stderr)
            return 1
        record = final["result"]
    else:
        from .dse.explorer import DesignSpace
        from .dse.strategies import run_search
        from .models import zoo

        engine = _build_engine(args)
        models = [zoo.MODEL_BUILDERS[name]() for name in args.models]
        record = run_search(
            models, DesignSpace(), strategy=args.strategy,
            objective=args.objective, area_budget_mm2=args.area_budget,
            workers=args.workers, cache=engine.cache,
            max_evals=args.max_evals, seed=args.seed).to_json()
    print(f"strategy {record['strategy']}: evaluated "
          f"{record['points_evaluated']}/{record['space_size']} design "
          f"points (cost {record['evals_used']:.2f} full-model evals)"
          + (f", skipped {record['degenerate_skipped']} degenerate"
             if record["degenerate_skipped"] else ""))
    if not args.url:
        from .sim.perf_model import memo_info

        memo = memo_info()
        print(f"layer evaluations: {memo.misses} computed / "
              f"{memo.hits + memo.misses} requested"
              + (" (this process; pool workers keep their own count)"
                 if args.workers > 1 else ""))
    points = record["points"]
    print(f"Pareto frontier ({len(record['pareto'])} of {len(points)} "
          f"points):")
    print(f"{'design':28s}{'GOP/s':>9s}{'GOPS/W':>9s}{'EDP':>12s}")
    for p in record["pareto"]:
        print(f"{p['arch']['name']:28s}{p['gops']:9.1f}"
              f"{p['gops_per_watt']:9.0f}{p['edp']:12.3e}")
    if not points:
        print("no design point fits the area budget", file=sys.stderr)
        return 1
    print(f"\nbest by {args.objective}: {record['best']['arch']['name']}")
    return 0


def _add_remote_flags(parser: argparse.ArgumentParser,
                      what: str) -> None:
    """``--url``/``--timeout``/``--connect-timeout``: run *what* against
    a live design service or fleet instead of in-process."""
    parser.add_argument("--url", metavar="URL",
                        help=f"run {what} on a running design service "
                        "or `repro route` fleet (e.g. "
                        "http://127.0.0.1:8731) instead of in-process")
    parser.add_argument("--timeout", type=float, default=120.0,
                        metavar="S",
                        help="with --url: per-read time budget in "
                        "seconds; expiry surfaces as a 504 naming the "
                        "expired budget")
    parser.add_argument("--connect-timeout", type=float, default=None,
                        metavar="S",
                        help="with --url: TCP dial budget in seconds "
                        "(default: share --timeout), so a down host "
                        "fails fast without shrinking the read budget")


def _add_fault_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--fault", action="append", metavar="SPEC",
                        help="arm a chaos fault at boot: "
                        "SITE:KIND[:PARAM] with KIND one of latency/"
                        "error/drop/crash (e.g. "
                        "server:/generate:latency:0.25, "
                        "router:forward:drop); repeatable, and also "
                        "armable at runtime via POST /debug/faults")


def build_parser() -> argparse.ArgumentParser:
    """The full argparse tree (also introspected by the docs-sync test
    and the ``docs/cli.md`` reference)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="LEGO spatial accelerator generator "
        "(HPCA'25 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an accelerator")
    gen.add_argument("--kernel", default="gemm",
                     choices=["gemm", "conv2d", "mttkrp", "attention"])
    gen.add_argument("--dataflows", nargs="+", default=["KJ"])
    gen.add_argument("--array", nargs=2, type=int, default=[8, 8],
                     metavar=("P0", "P1"))
    gen.add_argument("--broadcast", action="store_true",
                     help="broadcast control (c=0) instead of systolic")
    gen.add_argument("--no-optimize", action="store_true",
                     help="delay matching only (the Fig. 10 baseline)")
    gen.add_argument("--topology", action="store_true",
                     help="print per-tensor interconnect diagrams")
    gen.add_argument("--backend", default="verilog",
                     choices=BUILTIN_BACKENDS,
                     help="emitter backend family (see `repro backends`)")
    gen.add_argument("--no-testbench", action="store_true",
                     help="skip companion self-checking testbench "
                     "artifacts (hls_c): emit only the kernel")
    gen.add_argument("--output", "-o", help="write the primary emitted "
                     "artifact here (companion artifacts land beside it)")
    gen.add_argument("--trace-out", metavar="FILE",
                     help="write this run's spans as Chrome-trace-event "
                     "JSON (load at https://ui.perfetto.dev)")
    gen.add_argument("--module", default="lego_top")
    _add_cache_flags(gen)
    _add_remote_flags(gen, "the generation")
    gen.set_defaults(func=_cmd_generate)

    bat = sub.add_parser("batch", help="generate many designs at once")
    bat.add_argument("--spec-file",
                     help="JSON list of design-request dicts (overrides "
                     "the kernel/dataflow/array flags)")
    bat.add_argument("--kernel", default="gemm",
                     choices=["gemm", "conv2d", "mttkrp", "attention"])
    bat.add_argument("--dataflows", nargs="+", default=["KJ"])
    bat.add_argument("--arrays", nargs="+", type=_parse_array,
                     default=[(8, 8)], metavar="P0xP1",
                     help="array shapes, e.g. --arrays 4x4 8x8 16x16")
    bat.add_argument("--fuse", action="store_true",
                     help="one fused multi-dataflow design per array "
                     "instead of one design per dataflow")
    bat.add_argument("--broadcast", action="store_true")
    bat.add_argument("--no-optimize", action="store_true")
    bat.add_argument("--backend", default="verilog",
                     choices=BUILTIN_BACKENDS,
                     help="emitter backend family for flag-built "
                     "requests (see `repro backends`)")
    bat.add_argument("--no-testbench", action="store_true",
                     help="skip companion self-checking testbench "
                     "artifacts for flag-built requests (bulk sweeps "
                     "only pay for the kernel)")
    bat.add_argument("--workers", type=int, default=1,
                     help="worker processes for cold requests")
    bat.add_argument("--output-dir",
                     help="write each design's emitted artifacts plus "
                     "<hash>.json here")
    bat.add_argument("--plan-summary", action="store_true",
                     help="print the batch planner's dry run before "
                     "executing: duplicates, cache hits, and how many "
                     "schedule phases the cold remainder collapses to")
    bat.add_argument("--show-traceback", action="store_true",
                     help="print the full captured traceback of each "
                     "failed request, not just the error line")
    bat.add_argument("--trace-out", metavar="FILE",
                     help="write a merged Chrome-trace-event JSON of "
                     "every span the batch produced (pool workers "
                     "included) — load it at https://ui.perfetto.dev")
    _add_cache_flags(bat)
    _add_remote_flags(bat, "the batch")
    bat.set_defaults(func=_cmd_batch)

    srv = sub.add_parser("serve", help="run the HTTP design service")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: loopback only)")
    srv.add_argument("--port", type=int, default=8731,
                     help="TCP port (0 picks an ephemeral port)")
    srv.add_argument("--workers", type=int, default=1,
                     help="worker processes for every compile and job")
    from .obs import LOG_LEVELS
    srv.add_argument("--log-level", default="warning",
                     choices=list(LOG_LEVELS),
                     help="stdlib logging level of the repro.* loggers "
                     "(info logs one line per request at debug, slow "
                     "requests always warn)")
    srv.add_argument("--slow-request-ms", type=float, default=1000.0,
                     metavar="MS",
                     help="log a WARNING (with route and trace id) for "
                     "requests slower than this; 0 disables")
    srv.add_argument("--no-persist-jobs", action="store_true",
                     help="don't journal jobs under <cache>/jobs/; "
                     "jobs then die with the process instead of being "
                     "recovered on reboot (explorations re-queued, "
                     "batches failed)")
    # accepted and ignored: the metrics-history recorder it tuned is
    # gone, but bench/workloads/serve.py still passes it
    srv.add_argument("--history-interval", help=argparse.SUPPRESS)
    _add_cache_flags(srv)
    _add_fault_flag(srv)
    srv.set_defaults(func=_cmd_serve)

    rt = sub.add_parser("route",
                        help="run a fleet router over design-service "
                        "backends")
    rt.add_argument("--backend", action="append", required=True,
                    metavar="URL",
                    help="a backend server URL (repeat per shard); "
                    "/generate and /batch shard by spec-hash prefix")
    rt.add_argument("--host", default="127.0.0.1",
                    help="bind address (default: loopback only)")
    rt.add_argument("--port", type=int, default=8730,
                    help="TCP port (0 picks an ephemeral port)")
    rt.add_argument("--timeout", type=float, default=300.0, metavar="S",
                    help="per-request backend timeout in seconds")
    rt.add_argument("--log-level", default="warning",
                    choices=list(LOG_LEVELS),
                    help="stdlib logging level of the repro.* loggers")
    rt.add_argument("--slow-request-ms", type=float, default=1000.0,
                    metavar="MS",
                    help="log a WARNING for routed requests slower "
                    "than this; 0 disables")
    rt.add_argument("--history-interval", help=argparse.SUPPRESS)  # ignored
    rt.add_argument("--replicas", type=int, default=1, metavar="N",
                    help="owners per hash-prefix range: each range is "
                    "served by N consecutive backends, so a down "
                    "primary fails over to its replica instead of "
                    "502ing (clamped to the backend count)")
    rt.add_argument("--probe-interval", type=float, default=1.0,
                    metavar="S",
                    help="seconds between background /healthz probes "
                    "per backend; breaker cooldowns cap here, so a "
                    "revived backend is back within one interval "
                    "(0 disables the prober)")
    rt.add_argument("--breaker-threshold", type=int, default=3,
                    metavar="K",
                    help="consecutive transport failures that trip a "
                    "backend's circuit breaker open")
    rt.add_argument("--retry-budget", type=float, default=15.0,
                    metavar="S",
                    help="wall-clock deadline for write-path failover "
                    "retries (safe: /generate and /batch are "
                    "content-addressed, so repeats are idempotent)")
    _add_fault_flag(rt)
    rt.set_defaults(func=_cmd_route)

    bk = sub.add_parser("backends",
                        help="list the registered emitter backend "
                        "families")
    bk.add_argument("--names", action="store_true",
                    help="print bare family names only (one per line, "
                    "for scripting)")
    bk.set_defaults(func=_cmd_backends)

    ca = sub.add_parser("cache", help="inspect or clear the design cache")
    ca.add_argument("action", choices=["stats", "list", "clear"])
    ca.add_argument("--cache-dir", "--dir", dest="cache_dir",
                    help="cache location (default: $REPRO_CACHE_DIR or "
                    "~/.cache/repro)")
    ca.set_defaults(func=_cmd_cache)

    ev = sub.add_parser("evaluate", help="evaluate a model end to end")
    ev.add_argument("model")
    ev.add_argument("--arch", default="lego", choices=["lego", "gemmini"])
    ev.set_defaults(func=_cmd_evaluate)

    ex = sub.add_parser("explore", help="design-space exploration")
    ex.add_argument("--models", nargs="+", default=["ResNet50"])
    ex.add_argument("--objective", default="edp",
                    choices=["edp", "latency", "energy", "throughput"])
    ex.add_argument("--strategy", default="exhaustive",
                    choices=["exhaustive", "anneal", "halving"],
                    help="search strategy: exhaustive sweep, simulated "
                    "annealing over the design axes, or successive "
                    "halving on a cheap proxy")
    ex.add_argument("--max-evals", type=int, default=None, metavar="N",
                    help="evaluation budget for the guided strategies, in "
                    "full-model-evaluation units (default: "
                    "strategy-specific)")
    ex.add_argument("--seed", type=int, default=0,
                    help="RNG seed for the stochastic strategies")
    ex.add_argument("--area-budget", type=float, default=None,
                    metavar="MM2", help="screen out points whose MAC+SRAM "
                    "area exceeds this many mm^2")
    ex.add_argument("--workers", type=int, default=1,
                    help="worker processes for point evaluation")
    _add_cache_flags(ex)
    _add_remote_flags(ex, "the exploration")
    ex.set_defaults(func=_cmd_explore)

    mt = sub.add_parser("metrics",
                        help="print telemetry as Prometheus text")
    mt.add_argument("--url", default="http://127.0.0.1:8731",
                    metavar="URL",
                    help="server or router to scrape via GET /metrics "
                    "(default http://127.0.0.1:8731; a `repro route` URL "
                    "serves the fleet-merged registry)")
    mt.set_defaults(func=_cmd_metrics)

    tr = sub.add_parser("trace",
                        help="summarize a Chrome/Perfetto trace file, "
                        "or pull one live off a server/fleet")
    tr.add_argument("file", nargs="?",
                    help="Chrome-trace-event JSON, e.g. from "
                    "`repro batch --trace-out` (omit with --url)")
    tr.add_argument("--url", metavar="URL",
                    help="pull the live span buffer from a running "
                    "server's GET /trace instead of reading a file; "
                    "pointed at a `repro route` fleet this merges every "
                    "backend's spans into one cross-process tree")
    tr.add_argument("--out", metavar="FILE",
                    help="with --url: also write the pulled trace as "
                    "Perfetto-loadable JSON")
    tr.add_argument("--drain", action="store_true",
                    help="with --url: clear the server-side span "
                    "buffers as they are read (scrape pattern)")
    tr.add_argument("--trace-id", metavar="ID",
                    help="with --url: only spans of this trace id (the "
                    "id every /generate response carries)")
    tr.add_argument("--top", type=int, default=20, metavar="N",
                    help="show the N span names with the largest total "
                    "duration")
    tr.set_defaults(func=_cmd_trace)

    pf = sub.add_parser("profile",
                        help="capture a CPU flamegraph of a running "
                        "server/fleet, or of a local workload")
    pf.add_argument("--url", metavar="URL",
                    help="profile a running server via GET "
                    "/debug/profile (a `repro route` URL fans the "
                    "capture across every backend and merges); without "
                    "this, sample a local calibration workload")
    pf.add_argument("--seconds", type=float, default=2.0, metavar="S",
                    help="capture window (default 2s; servers clamp to "
                    "30s)")
    pf.add_argument("--hz", type=float, default=67.0,
                    help="sampling rate (default 67 Hz)")
    pf.add_argument("--top", type=int, default=15, metavar="N",
                    help="show the N hottest frames")
    pf.add_argument("--include-idle", action="store_true",
                    help="keep parked-thread stacks (event loops in "
                    "select, executors waiting) in the output")
    pf.add_argument("--collapsed-out", metavar="FILE",
                    help="write collapsed stacks (flamegraph.pl / "
                    "speedscope 'collapsed' input) here")
    _add_cache_flags(pf)
    pf.set_defaults(func=_cmd_profile)

    tp = sub.add_parser("top",
                        help="live terminal dashboard of a running "
                        "server or fleet")
    tp.add_argument("--url", default="http://127.0.0.1:8731",
                    metavar="URL",
                    help="server or router to watch (default "
                    "http://127.0.0.1:8731; a `repro route` URL shows "
                    "fleet-merged metrics plus per-backend health)")
    tp.add_argument("--interval", type=float, default=2.0, metavar="S",
                    help="refresh interval in seconds")
    tp.add_argument("--iterations", type=int, default=0, metavar="N",
                    help="render N frames then exit (0 = run until "
                    "interrupted; useful for scripts and CI)")
    tp.add_argument("--no-clear", action="store_true",
                    help="append frames instead of clearing the "
                    "terminal between refreshes")
    tp.set_defaults(func=_cmd_top)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "url", None):
        from .service.client import ServiceClient

        try:  # a malformed --url is a usage error, whatever the command
            ServiceClient.from_url(args.url)
        except ValueError as exc:
            print(f"--url: {exc}", file=sys.stderr)
            return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
