"""Telemetry subsystem tests: registry semantics under concurrency,
snapshot merging (the pool-worker protocol), trace-id propagation across
process boundaries, Prometheus exposition validity end to end over HTTP,
and the killed-server-restart scenario."""

import json
import os
import pickle
import re
import threading

import pytest

from repro.obs import (CACHE_PHASE_TIERS, PHASE_ADG, PHASE_DESIGN,
                       PHASE_DESIGN_LOAD, PHASE_EMIT, PHASE_FLIGHT_WAIT,
                       PHASE_SCHEDULE, PHASE_SIM, PIPELINE_PHASES,
                       MetricsRegistry, current_span_id,
                       current_trace_id, export_chrome_trace,
                       format_trace_header, get_registry, get_tracer,
                       load_chrome_trace, new_trace_id,
                       parse_trace_header, refresh_trace_metrics,
                       timed_phase, trace_context, trace_span)
from repro.obs.tracing import Tracer
from repro.service import (BatchEngine, DesignCache, DesignRequest,
                           ServerThread, ServiceClient)

TINY = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}

# One non-comment exposition line: name, optional {labels}, value.
# Label values are quoted strings with escapes ("}" is legal inside).
_LABEL_PAIR = r'[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"'
_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    rf"(\{{{_LABEL_PAIR}(,{_LABEL_PAIR})*\}})? "
    r"(-?\d+(\.\d+)?([eE][+-]?\d+)?|[+-]Inf|NaN)$")


def assert_valid_exposition(text: str) -> dict:
    """Validate Prometheus text format; return {sample name: value}."""
    samples = {}
    typed = set()
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            name, kind = line.split()[2:4]
            assert kind in ("counter", "gauge", "histogram"), line
            assert name not in typed, f"duplicate TYPE for {name}"
            typed.add(name)
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), line
            continue
        assert _SAMPLE_RE.match(line), f"bad sample line: {line!r}"
        name_and_labels, value = line.rsplit(" ", 1)
        samples[name_and_labels] = float(value)
    return samples


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        r = MetricsRegistry()
        c = r.counter("c_total", "a counter", ("k",))
        c.labels(k="x").inc()
        c.labels(k="x").inc(2.5)
        assert c.labels(k="x").value == 3.5
        with pytest.raises(ValueError):
            c.labels(k="x").inc(-1)
        g = r.gauge("g", "a gauge")
        g.set(7)
        g.dec(2)
        assert g.labels().value == 5.0
        h = r.histogram("h_seconds", "a histogram", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        child = h.labels()
        assert child.bucket_counts == [1, 1, 1]
        assert child.count == 3

    def test_label_validation(self):
        r = MetricsRegistry()
        with pytest.raises(ValueError):
            r.counter("bad name")
        c = r.counter("ok_total", "", ("a",))
        with pytest.raises(ValueError):
            c.labels(b="nope")
        # redeclaring with a different shape is an error, same shape is
        # a fetch
        assert r.counter("ok_total", "", ("a",)) is c
        with pytest.raises(ValueError):
            r.gauge("ok_total")

    def test_thread_safety_under_concurrent_increments(self):
        r = MetricsRegistry()
        c = r.counter("threads_total", "", ("worker",))
        h = r.histogram("threads_seconds", "", buckets=(1.0,))
        n_threads, per_thread = 8, 2000

        def hammer(i):
            for _ in range(per_thread):
                c.labels(worker=str(i % 2)).inc()
                h.observe(0.5)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(child.value
                    for child in [c.labels(worker="0"), c.labels(worker="1")])
        assert total == n_threads * per_thread
        assert h.labels().count == n_threads * per_thread

    def test_snapshot_merge_correctness(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for r, amount in ((a, 2), (b, 3)):
            r.counter("m_total", "", ("k",)).labels(k="x").inc(amount)
            r.gauge("depth").set(amount)
            r.histogram("lat_seconds", "", buckets=(1.0,)).observe(amount)
        snap = b.snapshot()
        snap = pickle.loads(pickle.dumps(snap))  # must survive the pool
        a.merge(snap)
        assert a.counter("m_total", "", ("k",)).labels(k="x").value == 5
        assert a.gauge("depth").labels().value == 3  # gauges overwrite
        hist = a.histogram("lat_seconds", "", buckets=(1.0,)).labels()
        assert hist.count == 2 and hist.sum == 5.0

    def test_merge_declares_unknown_families(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("worker_only_total").inc(4)
        a.merge(b.snapshot())
        assert a.counter("worker_only_total").labels().value == 4

    def test_reset_keeps_family_handles_valid(self):
        r = MetricsRegistry()
        c = r.counter("persistent_total")
        c.inc(9)
        r.reset()
        assert c.labels().value == 0
        c.inc()  # the module-level-handle pattern: still registered
        assert "persistent_total 1" in r.render()

    def test_render_is_valid_exposition(self):
        r = MetricsRegistry()
        r.counter("x_total", "help text", ("k",)).labels(k='a"b\\c').inc()
        r.histogram("y_seconds", "lat", ("route",),
                    buckets=(0.1, 1.0)).labels(route="/z").observe(0.5)
        samples = assert_valid_exposition(r.render())
        assert any(s.startswith("x_total{") for s in samples)
        # histogram renders cumulative buckets plus _sum/_count
        inf = 'y_seconds_bucket{route="/z",le="+Inf"}'
        assert samples[inf] == 1
        assert samples['y_seconds_count{route="/z"}'] == 1


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class TestTracing:
    def test_span_records_complete_event(self):
        before = len(get_tracer().events())
        with trace_span("unit", kind="test") as span:
            span.set(extra=1)
        events = get_tracer().events()
        assert len(events) == before + 1
        event = events[-1]
        assert event["ph"] == "X" and event["name"] == "unit"
        assert event["args"]["kind"] == "test"
        assert event["args"]["extra"] == 1
        assert event["pid"] == os.getpid()
        assert event["dur"] >= 0

    def test_trace_context_binds_and_restores(self):
        assert current_trace_id() is None
        tid = new_trace_id()
        with trace_context(tid):
            assert current_trace_id() == tid
            with trace_span("inner"):
                pass
        assert current_trace_id() is None
        assert get_tracer().events()[-1]["args"]["trace_id"] == tid

    def test_export_load_roundtrip(self, tmp_path):
        with trace_context("feedc0dedeadbeef"), trace_span("roundtrip"):
            pass
        out = tmp_path / "trace.json"
        count = export_chrome_trace(out)
        assert count >= 1
        data = json.loads(out.read_text())
        assert data["displayTimeUnit"] == "ms"
        events = load_chrome_trace(out)
        assert len(events) == count
        names = {e["name"] for e in events}
        assert "roundtrip" in names

    def test_timed_phase_fills_sink_and_histogram(self):
        reg = get_registry()
        hist = reg.histogram("repro_phase_seconds", "", ("phase",))
        child = hist.labels(phase="unit_phase")
        before = child.count
        sink = {}
        with timed_phase("unit_phase", sink):
            pass
        assert "unit_phase" in sink and sink["unit_phase"] >= 0
        assert child.count == before + 1

    def test_span_ids_link_parent_child(self):
        with trace_span("outer") as outer:
            assert current_span_id() == outer.span_id
            with trace_span("inner") as inner:
                assert current_span_id() == inner.span_id
            assert current_span_id() == outer.span_id
        assert current_span_id() is None
        events = get_tracer().events()
        by_name = {e["name"]: e["args"] for e in events[-2:]}
        assert re.match(r"^[0-9a-f]{16}$", by_name["outer"]["span_id"])
        assert "parent_id" not in by_name["outer"]
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]

    def test_trace_context_parent_seeds_first_span(self):
        # the server-side binding: (trace_id, parent from the incoming
        # X-Repro-Trace header) -> the first local span parents upstream
        upstream = new_trace_id()
        with trace_context("feedc0dedeadbeef", upstream):
            with trace_span("child"):
                pass
        args = get_tracer().events()[-1]["args"]
        assert args["trace_id"] == "feedc0dedeadbeef"
        assert args["parent_id"] == upstream

    def test_header_format_parse_roundtrip(self):
        tid = new_trace_id()
        assert format_trace_header() is None  # unbound context: no header
        with trace_context(tid):
            assert format_trace_header() == tid
            assert parse_trace_header(format_trace_header()) == (tid, None)
            with trace_span("hop") as span:
                header = format_trace_header()
                assert header == f"{tid}-{span.span_id}"
                assert parse_trace_header(header) == (tid, span.span_id)

    def test_malformed_headers_parse_to_none(self):
        for garbage in (None, "", "xyz", "short-abc", "0" * 15,
                        "g" * 16, f"{new_trace_id()}-nothex",
                        f"{new_trace_id()}-{new_trace_id()}-extra"):
            assert parse_trace_header(garbage) == (None, None), garbage

    def test_dropped_spans_counted(self):
        dropped = get_registry().counter(
            "repro_trace_dropped_total",
            "trace events dropped because the ring buffer was full")
        before = dropped.labels().value
        small = Tracer(max_events=4)
        for i in range(7):
            small.record({"name": f"e{i}", "ph": "X"})
        assert small.dropped == 3
        assert small.buffer_stats() == {"buffered": 4, "capacity": 4,
                                        "dropped": 3}
        assert dropped.labels().value == before + 3

    def test_refresh_trace_metrics_sets_gauge(self):
        with trace_span("occupancy"):
            pass
        stats = refresh_trace_metrics()
        assert stats["buffered"] >= 1
        gauge = get_registry().gauge(
            "repro_trace_buffer_events",
            "trace events currently buffered in the ring")
        assert gauge.labels().value == stats["buffered"]

    def test_phase_vocabulary_is_hash_stable(self):
        # These literals participate in content-addressed cache keys
        # and on-disk record kinds; changing them silently invalidates
        # every warm cache.
        assert (PHASE_ADG, PHASE_SCHEDULE, PHASE_EMIT,
                PHASE_DESIGN_LOAD, PHASE_FLIGHT_WAIT) == PIPELINE_PHASES
        assert PIPELINE_PHASES == ("adg", "schedule", "emit",
                                   "design_load", "flight_wait")
        assert (PHASE_ADG, PHASE_DESIGN, PHASE_SIM) == CACHE_PHASE_TIERS
        assert CACHE_PHASE_TIERS == ("adg", "design", "sim")


# ---------------------------------------------------------------------------
# trace export / load / drain
# ---------------------------------------------------------------------------

class TestTraceExportLoad:
    def test_bare_array_form_loads(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps([{"name": "a", "ph": "X"},
                                    {"name": "b", "ph": "X"}]))
        events = load_chrome_trace(path)
        assert [e["name"] for e in events] == ["a", "b"]

    def test_non_dict_entries_filtered(self, tmp_path):
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(
            {"traceEvents": [{"name": "keep", "ph": "X"}, 42, "junk",
                             None, ["list"], {"name": "keep2"}]}))
        assert [e["name"] for e in load_chrome_trace(path)] \
            == ["keep", "keep2"]

    def test_explicit_events_roundtrip(self, tmp_path):
        events = [{"name": f"e{i}", "ph": "X", "ts": i, "dur": 1,
                   "args": {"span_id": "ab" * 8}} for i in range(5)]
        path = tmp_path / "explicit.json"
        assert export_chrome_trace(path, events) == 5
        assert load_chrome_trace(path) == events

    def test_take_drains_once_under_concurrent_recorders(self):
        tracer = Tracer(max_events=100_000)
        n_threads, per_thread = 6, 500
        start = threading.Barrier(n_threads + 1)
        taken: list[dict] = []

        def record(i):
            start.wait()
            for j in range(per_thread):
                tracer.record({"name": f"t{i}.{j}", "ph": "X"})

        threads = [threading.Thread(target=record, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        start.wait()
        for _ in range(50):  # drain concurrently with the recorders
            taken.extend(tracer.take())
        for t in threads:
            t.join()
        taken.extend(tracer.take())
        # every event drained exactly once: no loss, no duplication
        assert len(taken) == n_threads * per_thread
        assert len({e["name"] for e in taken}) == len(taken)
        assert tracer.events() == [] and tracer.dropped == 0


# ---------------------------------------------------------------------------
# batch engine integration: pool workers ship telemetry home
# ---------------------------------------------------------------------------

class TestPoolTelemetry:
    def test_trace_id_propagates_across_pool_batch(self, tmp_path):
        engine = BatchEngine(cache=DesignCache(root=tmp_path / "c"),
                             workers=2)
        requests = [DesignRequest(kernel="gemm", dataflows=(df,),
                                  array=(2, 2))
                    for df in ("KJ", "IJ", "IK")]
        tid = new_trace_id()
        phase_hist = get_registry().histogram(
            "repro_phase_seconds", "", ("phase",))
        adg_before = phase_hist.labels(phase=PHASE_ADG).count
        with trace_context(tid):
            results = engine.generate_many(requests, workers=2)
        assert all(r.ok for r in results)

        own_pid = os.getpid()
        tagged = [e for e in get_tracer().events()
                  if e["args"].get("trace_id") == tid]
        worker_pids = {e["pid"] for e in tagged} - {own_pid}
        assert worker_pids, "no spans merged back from pool workers"
        # every pipeline phase of every cold request came home
        phase_names = [e["name"] for e in tagged]
        for phase in (PHASE_ADG, PHASE_SCHEDULE, PHASE_EMIT):
            assert phase_names.count(phase) == len(requests)
        assert "batch" in phase_names
        # worker metrics merged too (each cold request runs the ADG
        # phase exactly once, in a worker process)
        assert (phase_hist.labels(phase=PHASE_ADG).count
                == adg_before + len(requests))

    def test_worker_snapshots_are_deltas_not_doubles(self, tmp_path):
        """Two pooled batches over the same fork-inherited parent state
        must add exactly their own work (no re-merge of inherited
        counts)."""
        engine = BatchEngine(cache=None, workers=2)
        designs = get_registry().counter(
            "repro_designs_total", "", ("source", "outcome"))
        cold_ok = designs.labels(source="cold", outcome="ok")
        phase_hist = get_registry().histogram(
            "repro_phase_seconds", "", ("phase",))
        emit = phase_hist.labels(phase=PHASE_EMIT)
        for batch_round in range(2):
            before = emit.count
            requests = [DesignRequest(kernel="gemm", dataflows=(df,),
                                      array=(2, 2))
                        for df in ("KJ", "IJ")]
            results = engine.generate_many(requests, workers=2)
            assert all(r.ok for r in results)
            assert emit.count == before + len(requests)


# ---------------------------------------------------------------------------
# HTTP surfaces: /metrics, /healthz tiers, trace ids in responses
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def obs_server(tmp_path_factory):
    cache = DesignCache(root=tmp_path_factory.mktemp("obs-cache"))
    handle = ServerThread(BatchEngine(cache=cache)).start()
    yield handle
    handle.stop()


@pytest.fixture()
def obs_client(obs_server):
    with ServiceClient.from_url(obs_server.url) as c:
        yield c


class TestMetricsEndpoint:
    def test_exposition_valid_after_warm_and_cold_mix(self, obs_client):
        cold = obs_client.generate(TINY)        # cold
        warm = obs_client.generate(TINY)        # memory-tier warm hit
        assert cold["ok"] and warm["from_cache"]
        text = obs_client.metrics()
        samples = assert_valid_exposition(text)
        assert samples[
            'repro_cache_lookups_total{tier="memory",outcome="hit"}'] >= 1
        assert samples[
            'repro_cache_lookups_total{tier="disk",outcome="miss"}'] >= 1
        assert samples[
            'repro_generate_path_total{path="event_loop"}'] >= 1
        assert samples[
            'repro_generate_path_total{path="executor"}'] >= 1
        route_count = 'repro_http_request_seconds_count{route="/generate"}'
        assert samples[route_count] >= 2
        for phase in (PHASE_ADG, PHASE_SCHEDULE, PHASE_EMIT):
            key = f'repro_phase_seconds_count{{phase="{phase}"}}'
            assert samples[key] >= 1
        assert 'repro_jobs{status="running"}' in samples

    def test_trace_ids_in_responses(self, obs_client):
        r1 = obs_client.generate(TINY)
        r2 = obs_client.generate(TINY)
        assert re.match(r"^[0-9a-f]{16}$", r1["trace_id"])
        assert r1["trace_id"] != r2["trace_id"]
        job_id = obs_client.batch([TINY])
        job = obs_client.wait(job_id)
        assert re.match(r"^[0-9a-f]{16}$", job["trace_id"])
        summaries = obs_client.jobs()
        assert any(s["trace_id"] == job["trace_id"] for s in summaries)

    def test_healthz_reports_cache_tiers(self, obs_client):
        obs_client.generate(TINY)
        obs_client.generate(TINY)
        tiers = obs_client.health()["cache"]["tiers"]
        assert set(tiers) == {"memory", "disk", "phase", "live"}
        assert tiers["memory"]["hits"] >= 1
        assert {"hits", "misses", "puts", "evictions",
                "corrupt"} <= set(tiers["disk"])
        assert "hits" in tiers["phase"] and "misses" in tiers["phase"]
        assert "hits" in tiers["live"]

    def test_metrics_is_get_only(self, obs_client):
        from repro.service import ServiceError

        with pytest.raises(ServiceError) as err:
            obs_client.request("POST", "/metrics")
        assert err.value.status == 405

    def test_killed_server_restart_keeps_counters_sane(self, tmp_path):
        """A server dying and a new one starting (same process, same
        registry — the single-process restart scenario) must keep the
        exposition valid and counters monotone, not corrupt or reset
        them."""
        cache_root = tmp_path / "restart-cache"
        first = ServerThread(
            BatchEngine(cache=DesignCache(root=cache_root))).start()
        with ServiceClient.from_url(first.url) as client:
            assert client.generate(TINY)["ok"]
            before = assert_valid_exposition(client.metrics())
        first.stop()  # the kill

        second = ServerThread(
            BatchEngine(cache=DesignCache(root=cache_root))).start()
        try:
            with ServiceClient.from_url(second.url) as client:
                assert client.generate(TINY)["ok"]
                after = assert_valid_exposition(client.metrics())
        finally:
            second.stop()
        key = 'repro_http_request_seconds_count{route="/generate"}'
        assert after[key] > before[key]
        lookups = 'repro_cache_lookups_total{tier="disk",outcome="miss"}'
        assert after[lookups] >= before[lookups]


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------

class TestCli:
    def test_repro_metrics_local(self, capsys):
        """``repro metrics`` scrapes a server on this host; it has no
        mode that prints the (idle) CLI process's own registry."""
        from repro.cli import main

        get_registry().counter("repro_cli_smoke_total").inc()
        server = ServerThread(BatchEngine(cache=None)).start()
        try:
            assert main(["metrics", "--url", server.url]) == 0
        finally:
            server.stop()
        out = capsys.readouterr().out
        assert_valid_exposition(out)
        assert "repro_cli_smoke_total 1" in out
        assert main(["metrics", "--url", "http://127.0.0.1:9"]) == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_repro_trace_summarizes(self, tmp_path, capsys):
        from repro.cli import main

        with trace_context(new_trace_id()):
            with trace_span("outer"):
                with trace_span("inner"):
                    pass
        trace_file = tmp_path / "t.json"
        export_chrome_trace(trace_file)
        assert main(["trace", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out and "inner" in out
        assert "wall span" in out

    def test_repro_trace_bad_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "nope.json"
        assert main(["trace", str(bad)]) == 2
        bad.write_text('{"traceEvents": 5}')
        assert main(["trace", str(bad)]) == 2

    def test_batch_trace_out_flag(self, tmp_path, capsys):
        from repro.cli import main

        trace_file = tmp_path / "batch.json"
        code = main(["batch", "--kernel", "gemm", "--dataflows", "KJ",
                     "--arrays", "2x2", "--cache-dir",
                     str(tmp_path / "cache"), "--trace-out",
                     str(trace_file)])
        assert code == 0
        events = load_chrome_trace(trace_file)
        names = {e["name"] for e in events}
        assert "batch" in names and PHASE_ADG in names
