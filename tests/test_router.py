"""Fleet router tests: spec-hash shard routing (and its raw-body LRU),
multi-shard batch fan-out with in-order merge, explore round-robin,
namespaced job forwarding (poll/pause/resume/stream through the
router), merged /jobs, /healthz and /metrics, and backend-failure
surfacing (502 with the backend named)."""

import asyncio
import json
import socket
import threading

import pytest

from repro.service import (BatchEngine, DesignCache, RouterThread,
                           ServerThread, ServiceClient, ServiceError)
from repro.service.router import DesignRouter
from repro.service.server import _request_from_body, match_route

SMALL_SPACE = {
    "arrays": [[8, 8], [16, 16]],
    "buffer_kb": [128.0, 256.0],
    "dram_gbps": [16.0],
    "dataflow_sets": [["ICOC"], ["MN", "ICOC"]],
}

TINY = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}


def _shard_of(spec: dict, n: int = 2) -> int:
    return int(_request_from_body(spec).spec_hash()[:2], 16) % n


def _specs_for_shard(index: int, count: int, n: int = 2) -> list[dict]:
    """Distinct specs that all route to backend *index*."""
    out = []
    for a in range(2, 40):
        for b in range(2, 40):
            spec = {"kernel": "gemm", "array": [a, b]}
            if _shard_of(spec, n) == index:
                out.append(spec)
                if len(out) == count:
                    return out
    raise AssertionError("design space too small for shard sampling")


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    backends = [
        ServerThread(BatchEngine(
            cache=DesignCache(root=root / f"shard-{i}"))).start()
        for i in range(2)]
    router = RouterThread([b.url for b in backends]).start()
    yield router, backends
    router.stop()
    for backend in backends:
        backend.stop()


@pytest.fixture()
def client(fleet):
    router, _backends = fleet
    with ServiceClient.from_url(router.url) as c:
        yield c


class TestShardRouting:
    def test_shard_for_is_hash_prefix_mod_backends(self, fleet):
        """The router's sharding rule: two-hex-digit spec-hash prefix
        modulo the backend count (two backends here)."""
        router, _ = fleet
        assert router.server.shard_for("00" + "0" * 62) == 0
        assert router.server.shard_for("01" + "0" * 62) == 1
        assert router.server.shard_for("ff" + "0" * 62) == 1

    def test_generate_lands_on_owning_shard(self, fleet, client):
        _, backends = fleet
        spec = _specs_for_shard(1, 1)[0]
        result = client.generate(spec)
        assert result["ok"]
        # only the owning backend's cache holds the design
        owner = backends[1].server.engine.cache
        other = backends[0].server.engine.cache
        assert result["spec_hash"] in owner.keys()
        assert result["spec_hash"] not in other.keys()

    def test_repeat_generate_is_warm_and_cached_route(self, fleet,
                                                      client):
        router, _ = fleet
        spec = _specs_for_shard(0, 1)[0]
        first = client.generate(spec)
        before = len(router.server._route_cache)
        second = client.generate(spec)
        assert second["from_cache"]
        assert second["spec_hash"] == first["spec_hash"]
        # the repeat body was answered from the routing LRU, not parsed
        assert len(router.server._route_cache) == before

    def test_route_cache_is_bounded(self):
        router = DesignRouter(["http://127.0.0.1:1"])
        router.route_cache_entries = 4

        async def answered(index, method, path, body):
            return 200, b"{}", index

        router._proxy = answered
        route, _ = match_route("/generate")
        bodies = [json.dumps({"kernel": "gemm", "array": [a, 2]}).encode()
                  for a in range(2, 12)]
        for body in bodies:
            assert asyncio.run(router._route_raw(route, body)) == (200,
                                                                   b"{}")
        assert list(router._route_cache) == bodies[-4:]

    def test_bad_generate_body_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/generate", {"request":
                                                 {"kernel": "nope"}})
        assert err.value.status == 400


class TestBatchFanOut:
    def test_single_shard_batch_forwards_wholesale(self, fleet, client):
        specs = _specs_for_shard(0, 3)
        job_id = client.batch(specs)
        assert job_id.startswith("s0.")
        final = client.wait(job_id, timeout=180)
        assert final["status"] == "done"
        assert final["result"]["ok"] == 3

    def test_multi_shard_batch_merges_in_order(self, fleet, client):
        specs = (_specs_for_shard(0, 2) + _specs_for_shard(1, 2)
                 + _specs_for_shard(0, 1))
        job_id = client.batch(specs)
        assert job_id.startswith("fan-")
        final = client.wait(job_id, timeout=180)
        assert final["status"] == "done"
        result = final["result"]
        assert result["ok"] == len(specs)
        assert len(result["results"]) == len(specs)
        for record, spec in zip(result["results"], specs):
            assert record["spec_hash"] == \
                _request_from_body(spec).spec_hash()
        assert [p["status"] for p in final["parts"]] == ["done", "done"]

    def test_fanned_job_rejects_actions(self, fleet, client):
        specs = _specs_for_shard(0, 1) + _specs_for_shard(1, 1)
        job_id = client.batch(specs)
        with pytest.raises(ServiceError) as err:
            client.pause(job_id)
        assert err.value.status == 400
        client.wait(job_id, timeout=180)

    def test_fanned_job_listed(self, fleet, client):
        specs = _specs_for_shard(0, 1) + _specs_for_shard(1, 1)
        job_id = client.batch(specs)
        client.wait(job_id, timeout=180)
        fans = [j for j in client.jobs() if j.get("fanned")]
        assert job_id in {j["id"] for j in fans}
        assert all(len(j["parts"]) == 2 for j in fans
                   if j["id"] == job_id)


class TestJobForwarding:
    def test_explore_round_robin_tags_backend(self, fleet, client):
        first = client.request("POST", "/explore",
                               {"models": ["LeNet"],
                                "strategy": "exhaustive",
                                "space": SMALL_SPACE})
        second = client.request("POST", "/explore",
                                {"models": ["LeNet"],
                                 "strategy": "exhaustive",
                                 "space": SMALL_SPACE})
        shards = {first["job"].split(".")[0], second["job"].split(".")[0]}
        assert shards == {"s0", "s1"}
        for job in (first["job"], second["job"]):
            final = client.wait(job, timeout=180)
            assert final["status"] == "done"
            assert final["id"] == job  # re-tagged with the router name

    def test_pause_resume_through_router(self, fleet, client):
        job_id = client.explore(models=["LeNet"], strategy="anneal",
                                max_evals=10, seed=5, space=SMALL_SPACE,
                                step_evals=1)
        client.pause(job_id)
        state = client.wait(job_id)
        if state["status"] == "paused":
            client.resume(job_id)
            state = client.wait(job_id, timeout=180)
        assert state["status"] == "done"

    def test_stream_proxied_through_router(self, fleet, client):
        job_id = client.explore(models=["LeNet"], strategy="exhaustive",
                                space=SMALL_SPACE, step_evals=1)
        events = list(client.stream(job_id))
        kinds = [e.get("event") for e in events]
        assert kinds[-1] == "end"
        assert "checkpoint" in kinds[:-1]
        assert events[-1]["job"]["id"] == job_id  # re-tagged
        assert events[-1]["job"]["status"] == "done"

    def test_unknown_job_id_shapes_404(self, client):
        for job_id in ("nope", "s0.nope", "s9.explore-1-abc"):
            with pytest.raises(ServiceError) as err:
                client.job(job_id)
            assert err.value.status == 404
            # a stream passes the backend's error status through
            with pytest.raises(ServiceError) as err:
                list(client.stream(job_id))
            assert err.value.status == 404


class TestMergedReads:
    def test_health_merges_backends(self, fleet, client):
        health = client.health()
        assert health["ok"] and health["router"]
        assert health["shards"] == 2
        assert [b["ok"] for b in health["backends"]] == [True, True]
        assert set(health["jobs"]) >= {"queued", "running", "done"}

    def test_jobs_merged_and_namespaced(self, fleet, client):
        job_id = client.explore(models=["LeNet"], strategy="exhaustive",
                                space=SMALL_SPACE)
        client.wait(job_id, timeout=180)
        jobs = client.jobs()
        mine = [j for j in jobs if j.get("id") == job_id]
        assert len(mine) == 1
        assert mine[0]["backend"] in {b["url"] for b in
                                      client.health()["backends"]}

    def test_metrics_merged_exposition(self, fleet, client):
        client.generate(TINY)
        text = client.metrics()
        assert "repro_cache_get_total" in text or "cache" in text
        assert "# TYPE" in text

    def test_backends_forwarded(self, client):
        families = client.backends()
        assert any(f["name"] == "verilog" for f in families)


class _FakeBackend(threading.Thread):
    """A raw socket server answering every connection with fixed bytes
    — a backend that speaks malformed JSON, or not HTTP at all."""

    def __init__(self, response: bytes):
        super().__init__(daemon=True)
        self.response = response
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.url = f"http://127.0.0.1:{self.sock.getsockname()[1]}"
        self._halt = threading.Event()

    def run(self):
        self.sock.settimeout(0.1)
        while not self._halt.is_set():
            try:
                conn, _ = self.sock.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            with conn:
                try:
                    # drain the request first: closing with unread data
                    # in the buffer would RST instead of FIN
                    conn.settimeout(0.2)
                    try:
                        while conn.recv(65536):
                            pass
                    except TimeoutError:
                        pass
                    conn.sendall(self.response)
                except OSError:
                    pass

    def stop(self):
        self._halt.set()
        self.sock.close()
        self.join(timeout=5)


class TestBackendFailure:
    def test_dead_shard_reroutes_to_live_backend(self, tmp_path):
        backend = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path / "cache"))).start()
        dead_url = "http://127.0.0.1:9"  # discard port — nothing there
        router = RouterThread([backend.url, dead_url],
                              probe_interval_s=0,
                              retry_budget_s=2.0).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                # shard 1's whole replica group is down: graceful
                # degradation reroutes to the live backend (a cache
                # miss, not an outage) instead of 502ing
                spec = _specs_for_shard(1, 1)[0]
                assert c.generate(spec)["ok"]
                live = _specs_for_shard(0, 1)[0]
                assert c.generate(live)["ok"]
                health = c.health()
                assert health["ok"] is False           # strict verdict
                assert health["status"] == "degraded"  # graded verdict
                assert [b["ok"] for b in health["backends"]] == [True,
                                                                 False]
                assert health["backends"][1]["state"] in {"degraded",
                                                          "down"}
        finally:
            router.stop()
            backend.stop()

    def test_backends_listing_survives_dead_first_backend(self):
        """``GET /backends`` used to be pinned to backend 0, so a fleet
        with that one down answered 502 for a question any backend can
        answer; it now rides the same failover as ``/explore``."""
        backend = ServerThread(BatchEngine(cache=None)).start()
        router = RouterThread(["http://127.0.0.1:9", backend.url],
                              probe_interval_s=0,
                              retry_budget_s=2.0).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                for _ in range(3):  # wherever the round-robin points
                    assert [f["name"] for f in c.backends()] == [
                        "hls_c", "verilog"]
        finally:
            router.stop()
            backend.stop()

    def test_all_backends_dead_structured_502(self):
        dead_url = "http://127.0.0.1:9"
        router = RouterThread([dead_url], probe_interval_s=0,
                              retry_budget_s=0.3).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                with pytest.raises(ServiceError) as err:
                    c.generate(TINY)
                assert err.value.status == 502
                payload = err.value.payload
                assert payload["backend"] == dead_url
                assert payload["backend_index"] == 0
                assert payload["reason"] == "refused"
                assert "127.0.0.1:9" in str(err.value)
                assert c.health()["status"] == "down"
        finally:
            router.stop()

    def test_backend_malformed_json_passes_through(self):
        fake = _FakeBackend(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: 17\r\nConnection: close\r\n\r\n"
            b"{this is not json")
        fake.start()
        router = RouterThread([fake.url], probe_interval_s=0,
                              retry_budget_s=0.5).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                # a 200 is forwarded byte-for-byte, garbage or not: the
                # router doesn't re-validate backend payloads
                result = c.generate(TINY)
                assert result == {"error": "{this is not json"}
        finally:
            router.stop()
            fake.stop()

    def test_backend_non_http_bytes_502_protocol(self):
        fake = _FakeBackend(b"I AM NOT HTTP\r\n\r\n")
        fake.start()
        router = RouterThread([fake.url], probe_interval_s=0,
                              retry_budget_s=0.3).start()
        try:
            with ServiceClient.from_url(router.url) as c:
                with pytest.raises(ServiceError) as err:
                    c.generate(TINY)
                assert err.value.status == 502
                payload = err.value.payload
                assert payload["reason"] == "protocol"
                assert payload["backend"] == fake.url
        finally:
            router.stop()
            fake.stop()

    def test_router_requires_backends(self):
        with pytest.raises(ValueError):
            DesignRouter([])

    def test_router_rejects_scheme_less_backend(self):
        with pytest.raises(ValueError, match="http://host:port"):
            DesignRouter(["127.0.0.1:9001"])


class TestRouterConcurrency:
    def test_warm_fanout_many_threads(self, fleet, client):
        router, _ = fleet
        specs = _specs_for_shard(0, 4) + _specs_for_shard(1, 4)
        for spec in specs:
            client.generate(spec)  # prime both shards
        failures = []

        def hammer(worker):
            try:
                with ServiceClient.from_url(router.url) as c:
                    for i in range(12):
                        result = c.generate(specs[(worker + i)
                                                  % len(specs)])
                        assert result["from_cache"], "expected warm hit"
            except Exception as exc:  # noqa: BLE001
                failures.append(f"worker {worker}: {exc}")

        threads = [threading.Thread(target=hammer, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures, failures
