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
from test_client_transport import STREAM_HEAD, Peer, chunk, reply

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


def _answer_anything(peer, conn, rfile, n):
    """Answer every request 200 with a body every client method can
    unpack: a one-event chunked stream on ``/stream``, JSON otherwise."""
    while (request := peer.read(rfile, n)) is not None:
        if request[0].split()[1].partition("?")[0].endswith("/stream"):
            conn.sendall(STREAM_HEAD + chunk({"event": "end"})
                         + b"0\r\n\r\n")
            return
        reply(conn, b'{"job": "j", "jobs": [], "backends": []}')


class TestClientCoversTheTable:
    @pytest.mark.parametrize(
        "route", [r for r in ROUTES if r.name != "faults"],
        ids=lambda r: r.pattern)
    def test_client_method_named_after_the_route(self, route):
        """Every row (``/debug/faults`` aside — chaos tests drive it
        with ``client.request``) is requested by the ``ServiceClient``
        method that carries the row's name: a peer records the request
        line the method put on the wire."""
        args = (("j",) if "<id>" in route.pattern
                else ([],) if route.name == "batch" else ())
        with Peer(_answer_anything) as peer, peer.client() as client:
            out = getattr(client, route.name)(*args)
            if route.name == "stream":
                list(out)
        assert len(peer.requests) == 1
        method, target, _version = peer.requests[0][1].split()
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
        """N distinct unmatched paths mint one
        ``repro_http_requests_total`` series, not one per path, and a
        method outside the route table (PATCH) shares the same bounded
        label."""
        before = _http_series()
        with ServiceClient.from_url(urls["server"]) as client:
            for path in ("/wp-login.php", "/a/1", "/a/2",
                         f"/jobs/{JOB}/bogus", "/jobs/x/y/z"):
                assert _error(client, "PATCH", path).status == 404
        after = _http_series()
        assert after - before <= {(UNMATCHED, UNMATCHED, "404")}
        assert (UNMATCHED, UNMATCHED, "404") in after

    def test_matched_labels_are_the_table_patterns(self, urls):
        with ServiceClient.from_url(urls["server"]) as client:
            client.health()
            _error(client, "GET", f"/jobs/{JOB}")          # 404: no job
            _error(client, "GET", f"/jobs/{JOB}/stream")
        routes = {labels[0] for labels in _http_series()}
        assert {"/healthz", "/jobs/{id}", "/jobs/{id}/stream"} <= routes
        assert routes <= {r.label for r in ROUTES} | {UNMATCHED}


class TestQueryFlagsAreExactMatches:
    """``?format=json`` used to be a substring test on the raw query,
    so ``?xformat=jsonx`` returned the JSON snapshot."""

    def test_metrics_format(self, client):
        assert client.request("GET", "/metrics?format=json")["metrics"]
        text = client.request_text("GET", "/metrics?xformat=jsonx")
        assert text.startswith("# HELP")

    def test_job_checkpoint(self, client):
        """A job poll passes its query through both tiers untouched: an
        exact ``format=json`` answers, a near miss changes nothing."""
        job_id = client.explore(models=["LeNet"], strategy="exhaustive",
                                space=SMALL_SPACE)
        final = client.wait(job_id, timeout=180)
        path = f"/jobs/{job_id}"
        assert "checkpoint" not in final
        for query in ("?format=json", "?xformat=jsonx", "?checkpoint=0"):
            assert client.request("GET", path + query) == final
