"""Serving latency/throughput: warm p50/p99 under concurrent clients.

The async front end exists so design requests stream in and out instead
of arriving as one blocking batch — and so nobody pays a Python
interpreter start per design.  This benchmark boots a real server on an
ephemeral port and measures, against the same warm cache:

1. a **serial HTTP client loop** (one persistent connection, one
   request at a time);
2. **N concurrent client processes** hammering the warm path, with
   per-request p50/p99;
3. the **pre-serving workflow** this front end replaces: a serial
   process-per-request loop (one ``repro generate`` CLI invocation per
   design, each paying interpreter + import + cache-open).

The acceptance bar is that warm concurrent serving beats the serial
process-per-request client loop by >= 5x.  On multi-core hosts the
concurrent/serial-HTTP ratio also rises (the single-core ceiling is the
event loop itself; N servers behind ``repro route`` shard it).
"""

import multiprocessing
import os
import pathlib
import subprocess
import sys
import time

from conftest import record_table
from repro.obs import get_registry
from repro.service import BatchEngine, DesignCache, ServerThread, ServiceClient

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")
WARM_REQUESTS = [{"kernel": "gemm", "dataflows": [d], "array": [2, 2]}
                 for d in ("KJ", "IJ", "IK")]
N_SERIAL = 300
N_CLIENTS = 8
N_PER_CLIENT = 150
N_CLI_LOOP = 6


def _client_worker(port, n_requests, out_queue):
    """One concurrent client process: persistent connection, warm hits."""
    client = ServiceClient(port=port)
    latencies = []
    spec = WARM_REQUESTS[0]
    for _ in range(n_requests):
        start = time.perf_counter()
        result = client.generate(spec)
        latencies.append(time.perf_counter() - start)
        assert result["ok"] and result["from_cache"]
    client.close()
    out_queue.put(latencies)


def _percentile(sorted_values, fraction):
    return sorted_values[min(int(len(sorted_values) * fraction),
                             len(sorted_values) - 1)]


def _generate_telemetry():
    """(event-loop hits, executor hits, in-handler seconds, handled
    requests) of the /generate route so far — the ServerThread shares
    this process, so the registry sees the server's own counters."""
    reg = get_registry()
    path = reg.counter("repro_generate_path_total", "", ("path",))
    seconds = reg.histogram("repro_http_request_seconds", "", ("route",))
    generate = seconds.labels(route="/generate")
    return (path.labels(path="event_loop").value,
            path.labels(path="executor").value,
            generate.sum, generate.count)


def test_serving_latency(benchmark, tmp_path):
    cache_root = tmp_path / "cache"
    engine = BatchEngine(cache=DesignCache(root=cache_root))
    with ServerThread(engine) as url:
        port = int(url.rsplit(":", 1)[1])
        client = ServiceClient(port=port)
        for spec in WARM_REQUESTS:  # prime the cache
            assert client.generate(spec)["ok"]

        # 1. serial HTTP loop (persistent connection)
        start = time.perf_counter()
        for i in range(N_SERIAL):
            result = client.generate(WARM_REQUESTS[i % len(WARM_REQUESTS)])
            assert result["from_cache"]
        serial_s = time.perf_counter() - start
        serial_rate = N_SERIAL / serial_s

        # 2. N concurrent client processes
        def concurrent_run():
            ctx = multiprocessing.get_context()
            out = ctx.Queue()
            procs = [ctx.Process(target=_client_worker,
                                 args=(port, N_PER_CLIENT, out))
                     for _ in range(N_CLIENTS)]
            start = time.perf_counter()
            for p in procs:
                p.start()
            latencies = [x for _ in procs for x in out.get()]
            for p in procs:
                p.join()
            return time.perf_counter() - start, sorted(latencies)

        telemetry_before = _generate_telemetry()
        concurrent_s, latencies = benchmark.pedantic(
            concurrent_run, rounds=1, iterations=1)
        telemetry_after = _generate_telemetry()
        concurrent_rate = N_CLIENTS * N_PER_CLIENT / concurrent_s
        p50 = _percentile(latencies, 0.50)
        p99 = _percentile(latencies, 0.99)

        client.close()

    # 3. the pre-serving workflow: one CLI process per design, same
    # warm on-disk cache (interpreter + import per request).
    env = dict(os.environ,
               PYTHONPATH=SRC_DIR + os.pathsep + os.environ.get(
                   "PYTHONPATH", ""))
    start = time.perf_counter()
    for _ in range(N_CLI_LOOP):
        subprocess.run(
            [sys.executable, "-m", "repro", "generate", "--kernel",
             "gemm", "--dataflows", "KJ", "--array", "2", "2",
             "--cache-dir", str(cache_root)],
            env=env, check=True, capture_output=True)
    cli_rate = N_CLI_LOOP / (time.perf_counter() - start)

    speedup_vs_cli = concurrent_rate / cli_rate
    speedup_vs_serial = concurrent_rate / serial_rate

    # Root-cause split of the concurrent run, from the server's own
    # telemetry (repro.obs): warm memory-tier hits are answered on the
    # event loop; any other /generate pays two executor-thread handoffs.
    loop_hits = telemetry_after[0] - telemetry_before[0]
    executor_hits = telemetry_after[1] - telemetry_before[1]
    handler_s = telemetry_after[2] - telemetry_before[2]
    handled = telemetry_after[3] - telemetry_before[3]
    loop_share = handler_s / concurrent_s if concurrent_s else 0.0
    mean_handler_us = 1e6 * handler_s / handled if handled else 0.0

    lines = [
        f"serial HTTP loop          : {serial_rate:8.0f} req/s "
        f"({1e3 / serial_rate:6.2f} ms/req)",
        f"{N_CLIENTS} concurrent clients      : "
        f"{concurrent_rate:8.0f} req/s   "
        f"p50 {p50 * 1e3:6.2f} ms   p99 {p99 * 1e3:6.2f} ms",
        f"process-per-request loop  : {cli_rate:8.1f} req/s "
        f"(the pre-serving workflow)",
        f"concurrent vs process-loop: {speedup_vs_cli:8.1f}x",
        f"concurrent vs serial HTTP : {speedup_vs_serial:8.2f}x "
        f"(single-core ceiling is the event loop; see `repro route`)",
        f"host cores                : {os.cpu_count()}",
        f"event-loop vs executor    : {loop_hits:.0f} warm hits on the "
        f"event loop, {executor_hits:.0f} via executor threads",
        f"in-handler time           : {handler_s:.2f} s of "
        f"{concurrent_s:.2f} s concurrent wall clock "
        f"({100 * loop_share:.0f}%), {mean_handler_us:.0f} us/request",
        f"root cause of the <1x concurrent/serial ratio: one event-loop "
        f"thread does everything — the handler itself is only "
        f"{100 * loop_share:.0f}% of the wall clock, the rest is "
        f"per-connection socket reads/writes and HTTP parsing on that "
        f"same thread, so {N_CLIENTS} clients just queue behind it "
        f"(put N servers behind `repro route` to scale past it)",
    ]
    record_table("serving_latency",
                 "Async serving: warm latency under concurrent clients",
                 lines)

    benchmark.extra_info.update(
        serial_req_per_s=serial_rate,
        concurrent_req_per_s=concurrent_rate,
        p50_ms=p50 * 1e3, p99_ms=p99 * 1e3,
        cli_loop_req_per_s=cli_rate,
        speedup_vs_process_loop=speedup_vs_cli)

    # Acceptance: warm concurrent serving >= 5x the serial client loop
    # it replaces (one process per request).
    assert speedup_vs_cli >= 5.0


T_WINDOW = 0.6   # seconds per measurement window
N_PAIRS = 4      # interleaved (sampler-off, sampler-on) window pairs


def test_profiler_overhead(benchmark, tmp_path):
    """The always-on profiler (``repro serve --profile``) must not tax
    the warm serving path: its only cost is the GIL time the sampler
    thread steals, ~`hz` brief wakeups per second.  Interleave
    sampler-off and sampler-on measurement windows (so host-load drift
    hits both populations equally), compare median request rates, and
    bound the slowdown (typically <5%; asserted with CI-noise margin).
    Windows are wall-clock-sized, not request-counted: a fast host
    burning through a fixed request count in 100 ms would measure
    scheduler jitter, not the profiler.
    """
    import statistics

    from repro.obs import DEFAULT_HZ, SamplingProfiler

    engine = BatchEngine(cache=DesignCache(root=tmp_path / "cache"))
    with ServerThread(engine) as url:
        client = ServiceClient(port=int(url.rsplit(":", 1)[1]))
        for spec in WARM_REQUESTS:  # prime the cache
            assert client.generate(spec)["ok"]

        def warm_rate(window_s=T_WINDOW):
            n = 0
            start = time.perf_counter()
            while (elapsed := time.perf_counter() - start) < window_s:
                result = client.generate(
                    WARM_REQUESTS[n % len(WARM_REQUESTS)])
                assert result["from_cache"]
                n += 1
            return n / elapsed

        profiler = SamplingProfiler(hz=DEFAULT_HZ)
        off_rates, on_rates = [], []

        def interleaved_run():
            warm_rate(0.3)  # settle connections and code paths
            for _ in range(N_PAIRS):
                off_rates.append(warm_rate())
                profiler.start()
                try:
                    on_rates.append(warm_rate())
                finally:
                    profiler.stop()

        benchmark.pedantic(interleaved_run, rounds=1, iterations=1)
        client.close()

    profile = profiler.snapshot()
    base_rate = statistics.median(off_rates)
    profiled_rate = statistics.median(on_rates)
    overhead = base_rate / profiled_rate - 1.0
    record_table("profiler_overhead",
                 "Continuous profiler cost on the warm serving path",
                 [f"warm serial, sampler off : {base_rate:8.0f} req/s "
                  f"(median of {len(off_rates)} x {T_WINDOW:g}s windows)",
                  f"warm serial, sampler on  : {profiled_rate:8.0f} "
                  f"req/s at {DEFAULT_HZ:g} Hz (interleaved)",
                  f"overhead                 : {100 * overhead:8.1f}% "
                  f"(bar: <5% typical, <20% asserted)",
                  f"samples collected        : {profile.samples} "
                  f"({profile.idle_samples} idle) over "
                  f"{profile.wall_s:.1f}s"])
    benchmark.extra_info.update(
        base_req_per_s=base_rate, profiled_req_per_s=profiled_rate,
        overhead_pct=100 * overhead, samples=profile.samples)

    # the sampler actually sampled the serving threads...
    assert profile.samples > 0
    # ...and stole well under the acceptance bar (<5% typical; the
    # asserted bound is looser so a noisy CI host can't flake it).
    assert overhead < 0.20
