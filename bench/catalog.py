"""The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
metrics, and which end-to-end metric each layer row is expected to move.

``BENCHMARK.json`` at the repo root is generated from this module
(``python bench/run.py --print-manifest``); README.md explains the
choices.  Stdlib only — the parent driver imports it before ``repro``
is on the path.
"""

from __future__ import annotations

RUN_SECONDS = 15

WORKLOADS = [
    ("cold_compile",
     "uncached execute_request over six kernel/dataflow configs x "
     "verilog/hls_c: the generator does all the work, the service none"),
    ("serve_warm",
     "warm /generate against one repro serve over two keep-alive "
     "connections: the serving tier does all the work, the generator none"),
    ("serve_routed",
     "the same warm specs through repro route in front of two backends: "
     "isolates the router hop and hash-prefix sharding"),
    ("batch_sweep",
     "1000-request planned batch cold, exact warm replay, then a restaged "
     "batch: planner, pool, spec hashing, disk and phase cache tiers"),
    ("dse_explore",
     "Fig. 11 model evaluation plus exhaustive/anneal/halving search on a "
     "96-point space: perf model, dse and the evaluation memo only"),
]

# name, unit, better, bound (share of the parent's median), meaning.
# run_s and op_ms are *calibrated* wall clock: each rep's readings are
# rescaled by the machine's speed during that rep (harness.calibrate),
# i.e. seconds on a machine on which the calibration loop takes 6 ms,
# the reference host at its usual speed.  setup_s is as read off the
# clock.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "workload start to first timed op: interpreter, imports, request or "
     "model construction, server/router boot, cache priming (median of "
     "three set-ups per run)"),
    ("run_s", "s", "lower", 0.25,
     "wall clock of one rep of the workload's fixed op list (median rep)"),
    ("op_ms", "ms", "lower", 0.25,
     "geometric mean over the workload's op kinds of each kind's median "
     "latency"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "peak resident memory of the load generator plus its server/router "
     "children plus its largest reaped child (pool worker, cc)"),
]

# End-to-end readings that are recorded (with the per-layer rows, which
# carry no bound) but held to no bound, because on the reference host — a
# 2-vCPU microVM whose speed drifts by +-30% over minutes and on which
# waking the other vCPU costs more than a warm request — they spread by
# more than any bound the driver accepts: the two rep timings as read off
# the clock, before calibration, and the latency tail.
# name, unit, better, meaning
UNBOUNDED = [
    ("run_wall_s", "s", "lower", "run_s as read off the clock"),
    ("op_wall_ms", "ms", "lower", "op_ms as read off the clock"),
    ("op_tail_ms", "ms", "lower",
     "per rep, the highest latency percentile with at least ten samples "
     "beyond it (the slowest op when a rep has under 100 ops), as read off "
     "the clock; median rep"),
]

# Exact, workload-specific outcomes.  A user sees these (they are what a
# compile-time gain must not be bought with), but the driver contract
# wants every end-to-end metric on every workload, so they travel in the
# per-layer section; compare.py still holds them to a bound of 0.
# name, unit, better, workload, meaning
OUTCOMES = [
    ("register_bits", "bits", "lower", "cold_compile",
     "sum of report.register_bits over the six designs (section V "
     "objective)"),
    ("sim_cycles", "cycles", "lower", "cold_compile",
     "sum of golden-vector cycles over every dataflow of the six designs "
     "(simulated time)"),
    ("artifact_bytes", "bytes", "lower", "cold_compile",
     "sum of bytes of every emitted artifact"),
    ("schedules_run", "count", "lower", "batch_sweep",
     "cold + restage results whose phases contain schedule (60 is ideal)"),
    ("best_edp", "pJ.cycles", "lower", "dse_explore",
     "exhaustive-best energy-delay product on the 96-point space"),
    ("speedup_vs_gemmini", "ratio", "higher", "dse_explore",
     "geomean LEGO/Gemmini GOP/s over the seven Fig. 11 models (paper 3.2)"),
    ("efficiency_vs_gemmini", "ratio", "higher", "dse_explore",
     "geomean LEGO/Gemmini GOPS/W over the seven models (paper 2.4)"),
]

_CC = "op_ms/run_s on cold_compile"
_BS = "run_s/op_ms on batch_sweep"
_SW = "run_s/op_ms/op_tail_ms on serve_warm"
_SR = "run_s/op_ms/op_tail_ms on serve_routed"
_DSE = "run_s/op_ms on dse_explore"

# name, unit, better, moves (the end-to-end metric and workload the row
# should move; everywhere else the prediction is no change)
PER_LAYER = [
    # core
    ("core.build_dataflows_ms", "ms", "lower", _CC),
    ("core.build_adg_ms", "ms", "lower", _CC),
    ("core.reuse_solutions_ms", "ms", "lower", _CC),
    ("core.mst_ms", "ms", "lower", _CC),
    ("core.fusion_ms", "ms", "lower", _CC),
    ("core.memory_ms", "ms", "lower", _CC),
    ("core.adg_connections", "count", "lower", "register_bits"),
    ("core.adg_data_nodes", "count", "lower", "register_bits"),
    # backend
    ("backend.generate_ms", "ms", "lower", _CC),
    ("backend.bitwidth_ms", "ms", "lower", _CC),
    ("backend.bitwidth_calls", "count", "lower", _CC),
    ("backend.reduction_ms", "ms", "lower", _CC),
    ("backend.rewiring_ms", "ms", "lower", _CC),
    ("backend.delay_match_ms", "ms", "lower", _CC),
    ("backend.pin_reuse_ms", "ms", "lower", _CC),
    ("backend.power_gate_ms", "ms", "lower", _CC),
    ("backend.liveness_ms", "ms", "lower", _CC),
    ("backend.liveness_calls", "count", "lower", _CC),
    ("backend.run_backend_self_ms", "ms", "lower", _CC),
    ("backend.dag_nodes", "count", "lower", "every later pass + emitters"),
    ("backend.dag_edges", "count", "lower", "every later pass + emitters"),
    ("backend.pipeline_register_bits", "bits", "lower", "register_bits"),
    ("backend.fifo_register_bits", "bits", "lower", "register_bits"),
    ("backend.chains_extracted", "count", "higher", "register_bits"),
    ("backend.adders_removed", "count", "higher", "register_bits"),
    ("backend.edges_rewired", "count", "higher", "register_bits"),
    ("backend.pins_saved", "count", "higher", "register_bits"),
    ("backend.gated_nodes", "count", "higher", "power only"),
    # backends
    ("backends.verilog_emit_ms", "ms", "lower", _CC),
    ("backends.hls_c_emit_ms", "ms", "lower",
     _CC + " (hls_c kinds), restage_batch on batch_sweep"),
    ("backends.verilog_bytes", "bytes", "lower", "artifact_bytes"),
    ("backends.hls_c_bytes", "bytes", "lower", "artifact_bytes"),
    ("backends.tb_compiled", "count", "higher", "failed ops"),
    ("backends.tb_passed", "count", "higher", "failed ops"),
    # sim
    ("sim.compile_program_ms", "ms", "lower", _CC + " (hls_c kinds)"),
    ("sim.run_ms", "ms", "lower", _CC + " (hls_c kinds)"),
    ("sim.golden_vectors_ms", "ms", "lower", _CC + " (hls_c kinds)"),
    ("sim.cycles_per_host_s", "1/s", "higher", _CC + " (hls_c kinds)"),
    ("sim.static_fallbacks", "count", "lower", _CC),
    ("sim.runtime_fallbacks", "count", "lower", _CC),
    ("sim.toggles", "count", "lower", "must not move (exact)"),
    ("sim.mem_reads", "count", "lower", "must not move (exact)"),
    ("sim.mem_writes", "count", "lower", "must not move (exact)"),
    ("sim.evaluate_model_ms", "ms", "lower", _DSE),
    ("sim.evaluate_layer_calls", "count", "lower", _DSE),
    # serialize / report
    ("serialize.to_dict_ms", "ms", "lower", _CC),
    ("serialize.from_dict_ms", "ms", "lower", "restage_batch on batch_sweep"),
    ("serialize.canonical_dumps_ms", "ms", "lower", _CC + ", " + _BS),
    ("report.summary_ms", "ms", "lower", _CC),
    # service.spec
    ("spec.hash_us", "us", "lower", _BS),
    ("spec.from_dict_us", "us", "lower", _BS),
    ("spec.execute_self_ms", "ms", "lower", _CC),
    ("spec.phase_adg_ms", "ms", "lower", _BS),
    ("spec.phase_schedule_ms", "ms", "lower", _BS),
    ("spec.phase_emit_ms", "ms", "lower", _BS),
    # service.cache
    ("cache.mem_get_us", "us", "lower", _SW),
    ("cache.disk_get_us", "us", "lower", _BS),
    ("cache.put_us", "us", "lower", _BS),
    ("cache.phase_get_us", "us", "lower", _BS),
    ("cache.phase_put_us", "us", "lower", _BS),
    ("cache.live_get_us", "us", "lower", _BS),
    ("cache.memory_hits", "count", "higher", _BS),
    ("cache.disk_hits", "count", "higher", _BS),
    ("cache.phase_hits", "count", "higher", _BS),
    ("cache.misses", "count", "lower", _BS),
    ("cache.evictions", "count", "lower", _BS),
    ("cache.hit_ratio", "ratio", "higher", _BS),
    ("cache.flight_leads", "count", "lower", _BS),
    ("cache.flight_waits", "count", "lower", _BS),
    # service.engine
    ("engine.plan_ms", "ms", "lower", _BS),
    ("engine.cold_batch_ms", "ms", "lower", _BS),
    ("engine.warm_batch_ms", "ms", "lower", _BS),
    ("engine.restage_batch_ms", "ms", "lower", _BS),
    ("engine.unplanned_cold_ms", "ms", "lower",
     "reference row: the planner must beat it or go"),
    ("engine.unplanned_warm_ms", "ms", "lower",
     "reference row: the planner must beat it or go"),
    ("engine.plan_groups", "count", "lower", "schedules_run"),
    ("engine.plan_variants", "count", "higher", "schedules_run"),
    ("engine.plan_duplicates", "count", "higher", _BS),
    ("engine.evaluate_archs_ms", "ms", "lower", _DSE),
    # service.server / client / router
    ("server.healthz_raw_us", "us", "lower", _SW),
    ("server.generate_raw_us", "us", "lower", _SW),
    ("server.handler_us", "us", "lower", _SW),
    ("server.loop_hits", "count", "higher", _SW),
    ("server.executor_hits", "count", "lower", _SW),
    ("client.overhead_us", "us", "lower", _SW),
    ("client.req_per_s_1conn", "1/s", "higher", _SW),
    ("client.req_per_s_2conn", "1/s", "higher", _SW),
    ("router.hop_us", "us", "lower", _SR),
    ("router.req_per_s", "1/s", "higher", _SR),
    ("server.boot_s", "s", "lower", "setup_s on serve_warm, serve_routed"),
    ("router.boot_s", "s", "lower", "setup_s on serve_routed"),
    # dse / mapper / models
    ("dse.exhaustive_ms", "ms", "lower", _DSE),
    ("dse.anneal_ms", "ms", "lower", _DSE),
    ("dse.halving_ms", "ms", "lower", _DSE),
    ("dse.exhaustive_warm_ms", "ms", "lower", _DSE),
    ("dse.evals_exhaustive", "count", "lower", _DSE + ", best_edp"),
    ("dse.evals_anneal", "count", "lower", _DSE + ", best_edp"),
    ("dse.evals_halving", "count", "lower", _DSE + ", best_edp"),
    ("dse.gap_anneal", "ratio", "lower", "best_edp"),
    ("dse.gap_halving", "ratio", "lower", "best_edp"),
    ("dse.point_eval_ms", "ms", "lower", _DSE),
    ("mapper.map_model_ms", "ms", "lower", "none today (mapper is off the "
     "explore path)"),
    ("models.zoo_build_ms", "ms", "lower", "setup_s on dse_explore"),
    # cli
    ("cli.import_ms", "ms", "lower", "setup_s everywhere"),
    ("cli.generate_cold_process_ms", "ms", "lower", "setup_s + " + _CC),
    ("cli.generate_warm_process_ms", "ms", "lower", "setup_s everywhere"),
    # the harness itself
    ("bench.trace_overhead_pct", "%", "lower", "none (harness)"),
    ("bench.unattributed_pct", "%", "lower", "none (harness)"),
    ("bench.loadavg_start", "count", "lower", "none (host)"),
    ("bench.calibration_ms", "ms", "lower",
     "none (host): the machine's speed while the workload ran"),
]

EXACT_LAYER_COUNTS = frozenset(
    name for name, unit, _b, _m in PER_LAYER
    if unit in ("count", "bits", "bytes")
    and not name.startswith(("cache.", "server.", "bench.", "backends.tb_")))


def manifest() -> dict:
    """The ``BENCHMARK.json`` document."""
    per_layer = [{"name": n, "unit": u, "better": b}
                 for n, u, b, _m in UNBOUNDED]
    per_layer += [{"name": n, "unit": u, "better": b}
                  for n, u, b, _w, _m in OUTCOMES]
    per_layer += [{"name": n, "unit": u, "better": b}
                  for n, u, b, _m in PER_LAYER]
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _m in END_TO_END],
        "per_layer": per_layer,
    }
