"""Snapshot readers, quantile estimation, the ``repro top`` dashboard
renderer, and the CLI surfaces that glue them to a running server
(``repro top --iterations``, ``repro profile``, ``repro trace --url``)."""

import re

import pytest

from repro.cli import main
from repro.obs import (MetricsRegistry, histogram_quantile, histogram_totals,
                       render_dashboard, snapshot_children, snapshot_value)
from repro.service import BatchEngine, ServerThread, ServiceClient

TINY = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}


def _two_snapshots():
    """Synthetic (prev, curr) registry snapshots 2s apart: 10 requests
    then 30, with latencies filling two buckets."""
    reg = MetricsRegistry()
    req = reg.counter("repro_http_requests_total", "",
                      ("route", "method", "status"))
    lat = reg.histogram("repro_http_request_seconds", "", ("route",),
                        buckets=(0.01, 0.1, 1.0))
    child = req.labels(route="/generate", method="POST", status="200")
    child.inc(10)
    for _ in range(10):
        lat.labels(route="/generate").observe(0.05)
    prev = reg.snapshot()
    child.inc(20)
    for _ in range(18):
        lat.labels(route="/generate").observe(0.05)
    for _ in range(2):
        lat.labels(route="/generate").observe(0.5)
    curr = reg.snapshot()
    return prev, curr


class TestSnapshotReaders:
    def test_children_and_value(self):
        reg = MetricsRegistry()
        reg.counter("x_total", "", ("k",)).labels(k="a").inc(2)
        reg.counter("x_total", "", ("k",)).labels(k="b").inc(5)
        snap = reg.snapshot()
        children = dict((labels["k"], value) for labels, value
                        in snapshot_children(snap, "x_total"))
        assert children == {"a": 2.0, "b": 5.0}
        assert snapshot_value(snap, "x_total", k="b") == 5.0
        assert snapshot_value(snap, "x_total", k="zzz") is None
        assert snapshot_value(snap, "missing_total") is None

    def test_histogram_totals_shape(self):
        reg = MetricsRegistry()
        hist = reg.histogram("h_seconds", "", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        bounds, counts, total, count = histogram_totals(
            reg.snapshot(), "h_seconds")
        assert bounds == [0.1, 1.0]
        assert counts == [1, 1, 1]  # per-bucket, +Inf last
        assert count == 3 and total == pytest.approx(5.55)


class TestHistogramQuantile:
    def test_linear_interpolation_inside_bucket(self):
        # 10 obs in (0, 0.1]: p50 sits in the middle of that bucket
        assert histogram_quantile([0.1, 1.0], [10, 0, 0], 0.5) \
            == pytest.approx(0.05)
        # across buckets: 5 fast + 5 slow, p99 lands in the second
        q99 = histogram_quantile([0.1, 1.0], [5, 5, 0], 0.99)
        assert 0.1 < q99 <= 1.0

    def test_overflow_bucket_clamps_to_top_bound(self):
        assert histogram_quantile([0.1, 1.0], [0, 0, 7], 0.5) == 1.0

    def test_empty_returns_none(self):
        assert histogram_quantile([0.1], [0, 0], 0.5) is None
        assert histogram_quantile([], [], 0.9) is None


class TestDashboard:
    def test_rates_from_deltas(self):
        prev, curr = _two_snapshots()
        frame = render_dashboard("http://fleet", {"ok": True}, prev,
                                 curr, dt=2.0, interval=2.0)
        assert "repro top — http://fleet" in frame
        # 20 new requests over 2s = 10.0/s, lifetime total 30
        row = next(line for line in frame.splitlines()
                   if line.startswith("/generate"))
        assert "10.0" in row and row.rstrip().endswith("30")
        # 18 of 20 new obs at 50ms: p50 interpolates inside the first
        # bucket (<=10ms excluded, so between 10 and 100 ms)
        p50 = float(row.split()[2])
        assert 10.0 < p50 <= 100.0

    def test_first_frame_without_prev(self):
        _prev, curr = _two_snapshots()
        frame = render_dashboard("http://x", None, None, curr, dt=2.0)
        assert "(unreachable)" in frame
        assert "/generate" in frame

    def test_router_health_marks_down_backends(self):
        health = {"ok": False, "router": True, "shards": 2,
                  "jobs": {"running": 1},
                  "backends": [{"url": "http://a", "ok": True},
                               {"url": "http://b", "ok": False,
                                "error": "unreachable"}],
                  "trace": {"buffered": 4, "dropped": 1}}
        _prev, curr = _two_snapshots()
        frame = render_dashboard("http://r", health, None, curr, dt=2.0)
        assert "1/2 backends ok" in frame
        assert "DOWN:http://b" in frame and "up:http://a" in frame
        assert "jobs: running=1" in frame
        assert "trace: 4 spans buffered / 1 dropped" in frame

    def test_fleet_health_states_and_verdict(self):
        health = {"ok": False, "status": "degraded", "router": True,
                  "shards": 2, "jobs": {},
                  "backends": [{"url": "http://a", "ok": True,
                                "state": "up"},
                               {"url": "http://b", "ok": False,
                                "state": "degraded"}]}
        _prev, curr = _two_snapshots()
        frame = render_dashboard("http://r", health, None, curr, dt=2.0)
        assert "[degraded]" in frame
        assert "DEGRADED:http://b" in frame and "up:http://a" in frame

    def test_fleet_section_failover_and_chaos(self):
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        retries = reg.counter("repro_router_retries_total", "",
                              ("reason",))
        retries.labels(reason="refused").inc(6)
        retries.labels(reason="degraded_reroute").inc(2)
        flips = reg.counter("repro_breaker_transitions_total", "",
                            ("backend", "to"))
        flips.labels(backend="http://b", to="open").inc(2)
        flips.labels(backend="http://b", to="closed").inc(1)
        reg.counter("repro_faults_injected_total", "",
                    ("site", "kind")).labels(
            site="router:forward", kind="drop").inc(3)
        frame = render_dashboard("http://r", {"ok": True}, None,
                                 reg.snapshot(), dt=2.0)
        assert "failover: retries=8" in frame
        assert "refused=6" in frame and "degraded_reroute=2" in frame
        assert "transitions=3 (opened 2)" in frame
        assert "chaos faults fired=3" in frame

    def test_fleet_section_absent_without_fleet_metrics(self):
        _prev, curr = _two_snapshots()
        frame = render_dashboard("http://x", {"ok": True}, None, curr,
                                 dt=2.0)
        assert "failover:" not in frame


class TestCliSurfaces:
    def test_repro_top_iterations(self, tmp_path, capsys):
        from repro.service import DesignCache

        server = ServerThread(
            BatchEngine(cache=DesignCache(root=tmp_path / "c"))).start()
        try:
            with ServiceClient.from_url(server.url) as client:
                client.generate(TINY)
                client.generate(TINY)
            code = main(["top", "--url", server.url, "--iterations", "2",
                         "--interval", "0.1", "--no-clear"])
        finally:
            server.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("repro top —") == 2
        assert "/generate" in out
        assert re.search(r"CACHE TIER", out)

    def test_repro_top_unreachable_is_error(self, capsys):
        code = main(["top", "--url", "http://127.0.0.1:9",
                     "--iterations", "1"])
        assert code == 1
        assert "cannot reach" in capsys.readouterr().err

    def test_repro_profile_against_server(self, tmp_path, capsys):
        server = ServerThread(BatchEngine(cache=None)).start()
        try:
            collapsed = tmp_path / "p.collapsed"
            code = main(["profile", "--url", server.url, "--seconds",
                         "0.2", "--hz", "100", "--include-idle",
                         "--collapsed-out", str(collapsed)])
        finally:
            server.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "samples over" in out
        assert collapsed.exists()
        for line in collapsed.read_text().splitlines():
            assert re.match(r"^\S.* \d+$", line)

    def test_repro_trace_url_pull(self, tmp_path, capsys):
        from repro.service import DesignCache

        server = ServerThread(
            BatchEngine(cache=DesignCache(root=tmp_path / "c"))).start()
        try:
            with ServiceClient.from_url(server.url) as client:
                tid = client.generate(TINY)["trace_id"]
            out_file = tmp_path / "pulled.json"
            code = main(["trace", "--url", server.url, "--trace-id", tid,
                         "--out", str(out_file)])
        finally:
            server.stop()
        assert code == 0
        out = capsys.readouterr().out
        assert "complete spans" in out
        from repro.obs import load_chrome_trace

        events = load_chrome_trace(out_file)
        assert events and all(e["args"]["trace_id"] == tid
                              for e in events)

    def test_repro_trace_needs_file_xor_url(self, capsys):
        assert main(["trace"]) == 2
        assert main(["trace", "x.json", "--url", "http://y"]) == 2
