"""End-to-end tests of the asyncio serving front end: real sockets on
ephemeral ports, the stdlib client, concurrent traffic against the warm
cache, malformed-input status codes, and exploration jobs (including the
killed-server scenario: a SIGKILLed server's exploration is replayed by
the next boot on the same cache root)."""

import asyncio
import http.client
import json
import os
import pathlib
import re
import select
import signal
import socket
import subprocess
import sys
import threading

import pytest

from repro.dse import run_search, space_from_dict
from repro.dse.explorer import DesignSpace
from repro.models import zoo
from repro.obs import get_registry
from repro.service import (BatchEngine, DesignCache, DesignRequest,
                           DesignResult, ServerThread, ServiceClient,
                           ServiceError)
from repro.service.server import _request_from_body
from test_fleet_chaos import (_boot, _free_port, _kill, assert_replayed,
                              explore_then_sigkill,
                              uninterrupted_exploration)

SMALL_SPACE = {
    "arrays": [[8, 8], [16, 16]],
    "buffer_kb": [128.0, 256.0],
    "dram_gbps": [16.0],
    "dataflow_sets": [["ICOC"], ["MN", "ICOC"]],
}

TINY = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}

#: ``space`` values ``/explore`` must refuse, with the axis each names
BAD_SPACES = {
    "one-int-array": ({"arrays": [[8]]}, "arrays"),
    "zero-array": ({"arrays": [[0, 8]]}, "arrays"),
    "three-int-array": ({"arrays": [[8, 8, 8]]}, "arrays"),
    "float-array": ({"arrays": [[8.5, 8]]}, "arrays"),
    "no-arrays": ({"arrays": []}, "arrays"),
    "zero-freq": ({"freq_mhz": 0}, "freq_mhz"),
    "infinite-freq": ({"freq_mhz": float("inf")}, "freq_mhz"),
    "negative-buffer": ({"buffer_kb": [-1.0]}, "buffer_kb"),
    "string-bandwidth": ({"dram_gbps": ["fast"]}, "dram_gbps"),
    "no-bandwidth": ({"dram_gbps": []}, "dram_gbps"),
    "unknown-dataflow": ({"dataflow_sets": [["XYZ"]]}, "dataflow_sets"),
    "empty-dataflow-set": ({"dataflow_sets": [[]]}, "dataflow_sets"),
    "unknown-axis": ({"array": [[8, 8]]}, "array"),
}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = DesignCache(root=tmp_path_factory.mktemp("serve-cache"))
    handle = ServerThread(BatchEngine(cache=cache)).start()
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with ServiceClient.from_url(server.url) as c:
        yield c


class TestGenerate:
    def test_roundtrip_and_cache_hit(self, client):
        first = client.generate(TINY)
        assert first["ok"] and first["summary"]
        assert first["kernel"] == "gemm"
        second = client.generate(TINY)
        assert second["from_cache"]
        assert second["spec_hash"] == first["spec_hash"]

    def test_include_rtl(self, client):
        result = client.generate(TINY, include_rtl=True)
        assert "module" in result["rtl"]
        assert "rtl" not in client.generate(TINY)

    def test_flat_body_without_request_wrapper(self, client):
        result = client.request("POST", "/generate", dict(TINY))
        assert result["ok"]

    def test_failed_generation_preserves_traceback(self, client):
        bad = {"kernel": "gemm", "dataflows": ["XX"], "array": [2, 2]}
        result = client.generate(bad)
        assert not result["ok"] and result["error"]
        assert "Traceback" in result["traceback"]

    def test_unknown_kernel_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.generate(kernel="fft")
        assert err.value.status == 400

    def test_unknown_field_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.generate(kernal="gemm")
        assert err.value.status == 400
        assert "kernal" in str(err.value)

    def test_removed_option_400(self, client):
        """A body written for an older option set is a client error
        that names the field, not a failed job or a 500."""
        with pytest.raises(ServiceError) as err:
            client.generate(dict(TINY, options={"pin_reuse": False}))
        assert err.value.status == 400
        assert "pin_reuse" in str(err.value)

    def test_health(self, client):
        health = client.health()
        assert health["ok"] and health["cache"]["root"]


class TestMemoryTierHit:
    """A warm ``/generate`` parses, validates and hashes its request
    once and replies from that request, not the record's copy."""

    def test_hit_builds_one_request_and_replies_as_its_record(
            self, server, client, monkeypatch):
        client.generate(TINY)
        key = _request_from_body(TINY).spec_hash()
        record = server.server.engine.cache.get_memory(key)
        expected = {rtl: DesignResult.from_record(key, record).to_json(rtl)
                    for rtl in (False, True)}
        built = []
        post_init = DesignRequest.__post_init__
        monkeypatch.setattr(DesignRequest, "__post_init__",
                            lambda self: built.append(self) or post_init(self))
        for include_rtl in (False, True):
            built.clear()
            reply = client.generate(TINY, include_rtl=include_rtl)
            assert len(built) == 1
            assert reply == dict(expected[include_rtl],
                                 trace_id=reply["trace_id"])

    def test_partial_body_and_unknown_field_answer_as_before(self, client):
        assert client.generate({"array": [2, 2]})["ok"]
        with pytest.raises(ServiceError) as err:
            client.generate(dict(TINY, kernal="gemm"))
        assert err.value.status == 400
        assert err.value.payload == {
            "error": "unknown design request fields: ['kernal']"}
        with pytest.raises(ServiceError) as err:
            client.generate(dict(TINY, options={"pin_reuse": False}))
        assert err.value.payload == {
            "error": "invalid design request: BackendOptions.__init__() "
                     "got an unexpected keyword argument 'pin_reuse'"}


class TestHttpEdges:
    def _raw(self, server, payload: bytes) -> tuple[int, dict]:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(payload)
            sock.settimeout(10)
            data = b""
            while b"\r\n\r\n" not in data:
                data += sock.recv(65536)
            head, _, rest = data.partition(b"\r\n\r\n")
            status = int(head.split()[1])
            length = 0
            for line in head.split(b"\r\n"):
                if line.lower().startswith(b"content-length:"):
                    length = int(line.split(b":")[1])
            while len(rest) < length:
                rest += sock.recv(65536)
            return status, json.loads(rest.decode())

    @pytest.mark.parametrize("request_bytes, message", [
        (b"GET /healthz\r\n\r\n", "malformed request line"),
        (b"POST /generate HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
         "bad Content-Length"),
    ], ids=["request-line", "content-length"])
    def test_malformed_head_400(self, server, request_bytes, message):
        assert self._raw(server, request_bytes) == (400, {"error": message})

    def test_unknown_methods_share_one_label(self, server):
        """Junk methods cannot mint a ``method`` label each."""
        def children() -> int:
            [family] = [f for f in get_registry().snapshot()["metrics"]
                        if f["name"] == "repro_http_requests_total"]
            return len(family["children"])

        before = children()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            for i in range(200):
                sock.sendall(b"M%d /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
                             % i)
                data = b""
                while not data.endswith(b"}"):
                    data += sock.recv(65536)
                assert data.startswith(b"HTTP/1.1 405 ")
        assert children() - before <= 1

    def test_malformed_json_400(self, server):
        body = b"{this is not json"
        status, payload = self._raw(
            server,
            b"POST /generate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
            % (len(body), body))
        assert status == 400
        assert "JSON" in payload["error"]

    @pytest.mark.parametrize("tier", ["server", "router"])
    def test_transfer_encoding_501(self, server, tier):
        """A chunked body is refused with 501 and the connection closed
        — never read as an empty body (which answered the default
        design) with the chunk bytes parsed as the next request."""
        from repro.service import RouterThread

        body = json.dumps({"kernel": "gemm", "dataflows": ["IJ"],
                           "array": [2, 2]}).encode()
        payload = (b"POST /generate HTTP/1.1\r\nHost: x\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n"
                   b"%x\r\n%s\r\n0\r\n\r\n" % (len(body), body))
        router = (RouterThread([server.url]).start() if tier == "router"
                  else None)
        target = router if router is not None else server
        try:
            with socket.create_connection(("127.0.0.1", target.port),
                                          timeout=10) as sock:
                sock.sendall(payload)
                data = b""
                while chunk := sock.recv(65536):  # until the server closes
                    data += chunk
        finally:
            if router is not None:
                router.stop()
        head, _, rest = data.partition(b"\r\n\r\n")
        assert head.split()[1] == b"501"
        assert b"connection: close" in head.lower()
        assert b"Content-Length" in json.loads(rest)["error"].encode()
        assert data.count(b"HTTP/1.1") == 1  # the chunks drew no reply

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/designs")
        assert err.value.status == 404

    def test_wrong_method_405(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("GET", "/generate")
        assert err.value.status == 405

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.job("explore-999-deadbe")
        assert err.value.status == 404

    def test_batch_requires_requests_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/batch", {"workers": 2})
        assert err.value.status == 400

    def test_explore_unknown_model_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.explore(models=["NotAModel"])
        assert err.value.status == 400

    def test_explore_unknown_strategy_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.explore(models=["LeNet"], strategy="gradient")
        assert err.value.status == 400

    def test_explore_unknown_fields_400(self, client):
        """A typo must not start an unbounded search, and the removed
        ``checkpoint``/``step_evals`` fields fail loudly."""
        for body in ({"max_eval": 5}, {"step_evals": 1},
                     {"checkpoint": {}, "seed": 1}):
            with pytest.raises(ServiceError) as err:
                client.explore(models=["LeNet"], **body)
            assert err.value.status == 400
            extra = sorted(set(body) - {"seed"})
            assert str(extra) in err.value.payload["error"]

    @pytest.mark.parametrize("space,axis", BAD_SPACES.values(),
                             ids=BAD_SPACES)
    def test_explore_bad_space_400(self, client, space, axis):
        with pytest.raises(ValueError, match=axis):
            space_from_dict(space)
        with pytest.raises(ServiceError) as err:
            client.explore(models=["LeNet"], space=space)
        assert err.value.status == 400
        assert axis in err.value.payload["error"]

    def test_bad_numeric_params_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.request("POST", "/batch",
                           {"requests": [dict(TINY)], "workers": "4"})
        assert err.value.status == 400
        with pytest.raises(ServiceError) as err:
            client.explore(models=["LeNet"], max_evals="20")
        assert err.value.status == 400
        # an evaluation budget is a count, as the CLI's --max-evals is
        for budget in (2.5, 4.0):
            with pytest.raises(ServiceError) as err:
                client.explore(models=["LeNet"], strategy="anneal",
                               max_evals=budget)
            assert err.value.status == 400
            assert "integer" in err.value.payload["error"]

    def test_explore_non_object_space_400(self, client):
        for bad_space in ("grid", [1, 2], 7):
            with pytest.raises(ServiceError) as err:
                client.explore(models=["LeNet"], space=bad_space)
            assert err.value.status == 400

    def test_registry_backpressure_503(self):
        """Live jobs beyond max_jobs are refused (503), not accumulated
        without bound; finishing a job frees a slot."""
        from repro.service.jobs import JobRegistry, RegistryFull

        registry = JobRegistry(max_jobs=2)
        first = registry.create("explore", {})
        registry.create("explore", {})
        with pytest.raises(RegistryFull):
            registry.create("explore", {})
        first.finish({})
        registry.create("explore", {})  # slot freed


class TestBatchJobs:
    def test_batch_job_roundtrip(self, client):
        requests = [dict(TINY, dataflows=[d]) for d in ("KJ", "IJ", "IK")]
        job_id = client.batch(requests)
        final = client.wait(job_id)
        assert final["status"] == "done"
        result = final["result"]
        assert result["ok"] == 3 and len(result["results"]) == 3
        assert final["progress"]["done"] == 3
        assert any(j["id"] == job_id for j in client.jobs())

    def test_batch_captures_per_request_traceback(self, client):
        requests = [dict(TINY),
                    {"kernel": "gemm", "dataflows": ["XX"], "array": [2, 2]}]
        final = client.wait(client.batch(requests))
        assert final["status"] == "done"
        assert final["result"]["ok"] == 1
        (failed,) = final["result"]["failed"]
        assert "Traceback" in failed["traceback"]


class TestConcurrentClients:
    def test_warm_cache_under_concurrency(self, server, client):
        client.generate(TINY)  # warm the entry
        errors: list = []

        def hammer():
            try:
                with ServiceClient.from_url(server.url) as own:
                    for _ in range(5):
                        result = own.generate(TINY)
                        assert result["ok"] and result["from_cache"]
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not errors
        assert client.health()["ok"]

    def test_interleaved_jobs_and_requests(self, server, client):
        job_id = client.explore(models=["LeNet"], strategy="halving",
                                space=SMALL_SPACE)
        # The event loop must keep answering while the job computes.
        assert client.generate(TINY)["ok"]
        final = client.wait(job_id, timeout=180)
        assert final["status"] == "done"
        assert final["result"]["best"] is not None


class TestExploreJobs:
    def test_explore_completes_and_matches_library(self, server, client):
        job_id = client.explore(models=["LeNet"], strategy="exhaustive",
                                space=SMALL_SPACE, seed=7)
        final = client.wait(job_id, timeout=180)
        assert final["status"] == "done"
        served = final["result"]
        direct = run_search(
            [zoo.lenet()],
            DesignSpace(arrays=((8, 8), (16, 16)),
                        buffer_kb=(128.0, 256.0),
                        dataflow_sets=(("ICOC",), ("MN", "ICOC"))),
            strategy="exhaustive", seed=7)
        assert served["best"]["arch"]["name"] == direct.best.arch.name
        assert served["evals_used"] == direct.evals_used
        assert served["points_evaluated"] == direct.points_evaluated

    def test_killed_server_resumes_from_cache(self, tmp_path):
        """SIGKILL ``repro serve`` once a row is on disk and reboot on
        the same root: the exploration comes back re-queued, its stream
        ends with the replayed result, and every row stored before the
        kill is a cache hit."""
        root = tmp_path / "cache"
        reference = uninterrupted_exploration()
        job_id, stored = explore_then_sigkill(root, _free_port())
        port = _free_port()
        proc = _boot(root, port)
        try:
            with ServiceClient(port=port, timeout=60) as c:
                (end,) = list(c.stream(job_id))
                assert end["job"]["recovered"] is True
                final = assert_replayed(c, job_id, stored, reference)
                assert end["job"]["result"] == final["result"]
        finally:
            _kill(proc)


class TestStreaming:
    def test_explore_stream_is_only_end(self, client):
        """An exploration is one search call: its stream is the one
        terminal event."""
        job_id = client.explore(models=["LeNet"], strategy="exhaustive",
                                space=SMALL_SPACE)
        events = list(client.stream(job_id))
        assert [e.get("event") for e in events] == ["end"]
        final = events[-1]["job"]
        assert final["status"] == "done"
        assert final["id"] == job_id
        # the stream's terminal snapshot matches a regular poll
        assert client.job(job_id)["result"] == final["result"]

    def test_batch_stream_yields_per_request_results(self, client):
        requests = [{"kernel": "gemm", "array": [n, n]}
                    for n in (2, 3, 4)]
        job_id = client.batch(requests)
        events = list(client.stream(job_id))
        results = [e for e in events if e.get("event") == "result"]
        assert len(results) == len(requests)
        assert {r["result"]["spec_hash"] for r in results} \
            == {r["spec_hash"]
                for r in events[-1]["job"]["result"]["results"]}
        assert [e.get("event") for e in events][-1] == "end"
        assert sorted(r["done"] for r in results) == [1, 2, 3]

    def test_stream_of_finished_job_replays_and_ends(self, client):
        job_id = client.batch([dict(TINY)])
        client.wait(job_id, timeout=180)
        events = list(client.stream(job_id))
        assert events[-1]["event"] == "end"
        assert events[-1]["job"]["status"] == "done"

    def test_stream_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            list(client.stream("explore-999-nope"))
        assert err.value.status == 404

    def test_stream_is_chunked_ndjson(self, server, client):
        job_id = client.batch([dict(TINY)])
        client.wait(job_id, timeout=180)
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            conn.request("GET", f"/jobs/{job_id}/stream")
            response = conn.getresponse()
            assert response.status == 200
            assert response.getheader("Transfer-Encoding") == "chunked"
            assert response.getheader("Content-Type") \
                == "application/x-ndjson"
            assert response.getheader("Connection") == "close"
            for line in response:
                if line.strip():
                    json.loads(line.decode())
        finally:
            conn.close()

    def test_abandoned_stream_frees_the_server(self, server, client):
        """Closing a stream early must not wedge the server or the
        job."""
        job_id = client.explore(models=["LeNet"], strategy="anneal",
                                max_evals=6, seed=2, space=SMALL_SPACE)
        stream = client.stream(job_id)
        next(stream)
        stream.close()  # abandon mid-stream
        final = client.wait(job_id, timeout=180)
        assert final["status"] == "done"
        assert client.health()["ok"]


class TestKeepAlive:
    def test_connection_reuse(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            for _ in range(3):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                assert response.status == 200
                json.loads(response.read().decode())
        finally:
            conn.close()

    def test_close_reaches_peer_after_pool_fork(self, tmp_path):
        """The pool forks while connections are open; a worker must not
        keep a copy of one alive, or a connection the server closes
        never reaches EOF at its peer."""
        handle = ServerThread(BatchEngine(
            cache=DesignCache(root=tmp_path))).start()
        try:
            with socket.create_connection(("127.0.0.1", handle.port),
                                          timeout=10) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert sock.recv(65536).startswith(b"HTTP/1.1 200")
                with ServiceClient.from_url(handle.url) as client:
                    assert client.generate(TINY)["ok"]  # forks the pool
                sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n"
                             b"Connection: close\r\n\r\n")
                sock.settimeout(5)
                while sock.recv(65536):  # socket.timeout = no EOF
                    pass
        finally:
            handle.stop()


class TestBlockingEntryPoints:
    """``repro serve`` / ``repro route`` as real processes: the shared
    runner (banner once bound, SIGTERM -> clean stop) that the
    in-thread fixtures above never reach."""

    def _spawn(self, *args, **popen):
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args],
            stdout=subprocess.PIPE, text=True, env=env, **popen)

    def _banner_url(self, proc, expect):
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, f"no banner from {expect!r} within 30 s"
        banner = proc.stdout.readline()
        assert expect in banner
        return re.search(r"http://[\w.\-]+:\d+", banner).group(0)

    def test_banner_healthz_and_sigterm_exit(self, tmp_path):
        procs = []
        try:
            procs.append(self._spawn("serve", "--port", "0",
                                     "--cache-dir", str(tmp_path)))
            backend = self._banner_url(procs[0], "repro design service")
            with ServiceClient.from_url(backend) as c:
                assert c.health()["cache"]["root"] == str(tmp_path)
            procs.append(self._spawn("route", "--port", "0",
                                     "--backend", backend))
            front = self._banner_url(procs[1], "repro fleet router")
            with ServiceClient.from_url(front) as c:
                health = c.health()
                assert health["router"] and health["ok"]
            for proc in reversed(procs):
                proc.send_signal(signal.SIGTERM)
                assert proc.wait(timeout=10) == 0
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait(timeout=10)
                proc.stdout.close()

    @pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                        reason="finds the pool workers through procfs")
    def test_killed_pool_worker_is_replaced(self, tmp_path):
        """SIGKILL one of ``repro serve``'s pool workers (the OOM killer,
        say): the next compile runs on a fresh pool, and SIGTERM still
        exits 0 — the broken pool's SIGTERM reached the dead worker's
        sibling, which obeys it instead of the server's inherited
        signal handler."""
        proc = self._spawn("serve", "--port", "0", "--workers", "2",
                           "--cache-dir", str(tmp_path))
        try:
            url = self._banner_url(proc, "repro design service")
            with ServiceClient.from_url(url) as c:
                assert c.generate(TINY)["ok"]
                children = pathlib.Path(
                    f"/proc/{proc.pid}/task/{proc.pid}/children")
                workers = children.read_text().split()
                assert len(workers) == 2
                os.kill(int(workers[0]), signal.SIGKILL)
                result = c.generate(dict(TINY, array=[3, 3]))
                assert result["ok"] and not result["from_cache"]
                assert not set(workers) & set(children.read_text().split())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
            proc.stdout.close()

    def test_parser_accepts_the_benchmark_argv(self):
        """``bench/workloads/serve.py`` boots its servers and router with
        ``--history-interval 0``: accepted, and read by nothing."""
        from repro.cli import build_parser

        parser = build_parser()
        serve = parser.parse_args(["serve", "--port", "0",
                                   "--history-interval", "0",
                                   "--cache-dir", "serve-cache"])
        assert serve.func.__name__ == "_cmd_serve"
        route = parser.parse_args(["route", "--port", "0", "--replicas",
                                   "1", "--history-interval", "0",
                                   "--backend", "http://127.0.0.1:1",
                                   "--backend", "http://127.0.0.1:2"])
        assert route.func.__name__ == "_cmd_route"
        assert len(route.backend) == 2

    def test_second_sigterm_while_stopping_exits_clean(self):
        # In process: the first SIGTERM cancels serve_forever, and the
        # second is sent from inside stop(), which then yields to the
        # loop so the signal is handled while stop() is still running.
        # stop() must run to its end and the runner return normally.
        from repro.service.router import DesignRouter
        from repro.service.server import _run_blocking

        class SlowStop(DesignRouter):
            stopped = False

            async def serve_forever(self):
                os.kill(os.getpid(), signal.SIGTERM)
                await super().serve_forever()

            async def stop(self):
                os.kill(os.getpid(), signal.SIGTERM)
                await asyncio.sleep(0.2)
                await super().stop()
                self.stopped = True

        router = SlowStop(["http://127.0.0.1:1"], port=0,
                          probe_interval_s=0)
        previous = signal.getsignal(signal.SIGTERM)
        try:
            _run_blocking(router, quiet=True)
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert router.stopped
