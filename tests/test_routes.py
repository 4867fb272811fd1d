"""Conformance of both serving tiers to the one route table.

``repro.service.server.ROUTES`` declares the HTTP surface once; these
tests drive every row of it through a live ``DesignServer`` and a live
``DesignRouter`` (in front of one backend) and check what the table
promises: the derived 405, the 404s, bounded metric labels, exact-match
query flags, a handler per row on both tiers, and a ``ServiceClient``
method per row.
"""

import asyncio

import pytest

from repro.obs import get_registry
from repro.service import (BatchEngine, DesignRouter, DesignServer,
                           RouterThread, ServerThread, ServiceClient,
                           ServiceError)
from repro.service.server import ROUTES, UNMATCHED, match_route

TIERS = ("server", "router")
#: a job id both tiers can parse (the router needs its ``s<i>.`` tag)
JOB = "s0.explore-999-deadbe"
SMALL_SPACE = {"arrays": [[8, 8]], "buffer_kb": [128.0],
               "dram_gbps": [16.0], "dataflow_sets": [["ICOC"]]}


def _path(route) -> str:
    return route.pattern.replace("<id>", JOB)


@pytest.fixture(scope="module")
def urls():
    backend = ServerThread(BatchEngine(cache=None)).start()
    router = RouterThread([backend.url]).start()
    yield {"server": backend.url, "router": router.url}
    router.stop()
    backend.stop()


@pytest.fixture(params=TIERS)
def client(request, urls):
    with ServiceClient.from_url(urls[request.param]) as c:
        yield c


def _error(client, method, path, body=None) -> ServiceError:
    with pytest.raises(ServiceError) as err:
        client.request(method, path, body)
    return err.value


WRONG_METHODS = [(route, method) for route in ROUTES
                 for method in ("GET", "POST", "PUT", "DELETE")
                 if method not in route.methods]


class TestTableConformance:
    @pytest.mark.parametrize(
        "route,method", WRONG_METHODS,
        ids=[f"{m} {r.pattern}" for r, m in WRONG_METHODS])
    def test_wrong_method_is_the_derived_405(self, client, route, method):
        err = _error(client, method, _path(route))
        assert err.status == 405
        assert err.payload["error"] == (
            f"use {' or '.join(route.methods)} {route.pattern}")

    @pytest.mark.parametrize("method", ["GET", "POST"])
    @pytest.mark.parametrize("path", ["/designs", "/jobs/x/y/z",
                                      f"/jobs/{JOB}/bogus"])
    def test_unknown_path_or_job_action_404(self, client, method, path):
        """An unknown ``/jobs/<id>/<action>`` used to answer a 405
        advertising a POST route that does not exist."""
        err = _error(client, method, path)
        assert err.status == 404
        assert err.payload["error"] == f"no such endpoint: {path}"

    @pytest.mark.parametrize("route", ROUTES, ids=lambda r: r.pattern)
    def test_every_row_has_a_handler_on_both_tiers(self, route):
        for tier in (DesignServer(BatchEngine(cache=None)),
                     DesignRouter(["http://127.0.0.1:1"])):
            assert asyncio.iscoroutinefunction(tier._handler(route)), \
                f"{type(tier).__name__} cannot answer {route.pattern}"

    def test_matcher_resolves_every_row(self):
        for route in ROUTES:
            matched, job_id = match_route(_path(route))
            assert matched is route
            assert job_id == (JOB if "<id>" in route.pattern else None)
        assert match_route("/jobs/") == (None, None)
        assert match_route("/healthz/") == (None, None)


class _RecordingConnection:
    """Stands in for ``http.client.HTTPConnection``: records request
    lines, answers 200 with a body every client method can unpack."""

    sock = None
    status = 200

    def __init__(self):
        self.seen: list[tuple[str, str]] = []

    def request(self, method, path, body=None, headers=None):
        self.seen.append((method, path))

    def getresponse(self):
        return self

    def read(self):
        return b'{"job": "j", "jobs": [], "backends": []}'

    def __iter__(self):
        yield b'{"event": "end"}\n'

    def close(self):
        pass


class TestClientCoversTheTable:
    @pytest.mark.parametrize(
        "route", [r for r in ROUTES if r.name != "faults"],
        ids=lambda r: r.pattern)
    def test_client_method_named_after_the_route(self, route,
                                                 monkeypatch):
        """Every row (``/debug/faults`` aside — chaos tests drive it
        with ``client.request``) is requested by the ``ServiceClient``
        method that carries the row's name."""
        conn = _RecordingConnection()
        monkeypatch.setattr(ServiceClient, "_new_connection",
                            lambda self: conn)
        args = (("j",) if "<id>" in route.pattern
                else ([],) if route.name == "batch" else ())
        out = getattr(ServiceClient(), route.name)(*args)
        if route.name == "stream":
            list(out)
        assert len(conn.seen) == 1
        method, target = conn.seen[0]
        assert match_route(target.partition("?")[0])[0] is route
        assert method in route.methods


def _http_series() -> set:
    """Label sets of ``repro_http_requests_total`` (the registry is
    process-wide, so in-process server threads report into it)."""
    for family in get_registry().snapshot()["metrics"]:
        if family["name"] == "repro_http_requests_total":
            return {tuple(child["labels"])
                    for child in family["children"]}
    return set()


class TestBoundedMetricLabels:
    def test_junk_paths_share_one_series(self, urls):
        """N distinct unmatched paths mint exactly one
        ``repro_http_requests_total`` series, not one per path (PATCH
        keeps the series fresh: no other test uses that method)."""
        before = _http_series()
        with ServiceClient.from_url(urls["server"]) as client:
            for path in ("/wp-login.php", "/a/1", "/a/2",
                         f"/jobs/{JOB}/bogus", "/jobs/x/y/z"):
                assert _error(client, "PATCH", path).status == 404
        assert _http_series() - before == {(UNMATCHED, "PATCH", "404")}

    def test_matched_labels_are_the_table_patterns(self, urls):
        with ServiceClient.from_url(urls["server"]) as client:
            client.health()
            _error(client, "GET", f"/jobs/{JOB}")          # 404: no job
            _error(client, "POST", f"/jobs/{JOB}/pause")
        routes = {labels[0] for labels in _http_series()}
        assert {"/healthz", "/jobs/{id}", "/jobs/{id}/pause"} <= routes
        assert routes <= {r.label for r in ROUTES} | {UNMATCHED}


class TestQueryFlagsAreExactMatches:
    """``?format=json`` / ``?checkpoint=0`` used to be substring tests
    on the raw query, so ``?xformat=jsonx`` returned the JSON snapshot
    and ``?nocheckpoint=00`` dropped the checkpoint."""

    def test_metrics_format(self, client):
        assert client.request("GET", "/metrics?format=json")["metrics"]
        text = client.request_text("GET", "/metrics?xformat=jsonx")
        assert text.startswith("# HELP")

    def test_job_checkpoint(self, client):
        job_id = client.explore(models=["LeNet"], strategy="exhaustive",
                                space=SMALL_SPACE, step_evals=1)
        client.wait(job_id, timeout=180)
        path = f"/jobs/{job_id}"
        assert client.request("GET", path)["checkpoint"] is not None
        assert client.request(
            "GET", path + "?nocheckpoint=00")["checkpoint"] is not None
        assert "checkpoint" not in client.request(
            "GET", path + "?checkpoint=0")
        kept = list(client.stream(job_id))
        assert any("checkpoint" in e for e in kept
                   if e.get("event") == "checkpoint")
        dropped = list(client.stream(job_id, checkpoint=False))
        assert not any("checkpoint" in e for e in dropped
                       if e.get("event") == "checkpoint")
        assert "checkpoint" not in dropped[-1]["job"]
