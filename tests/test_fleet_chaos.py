"""Fleet chaos with real processes: SIGKILL a `repro serve` backend under
load and show the self-healing tier absorbs it.

* **Failover.** Two backends, two replicas per hash range, six warm
  clients through `repro route`: killing a primary yields zero
  client-visible errors (the router's health-gated retry moves the
  affected requests to the replica), and once the primary is revived on
  the same port the breaker re-closes.
* **Revival.** A server killed mid-exploration comes back on the same
  cache root with the job parked as ``paused``; resuming it finishes a
  search bit-for-bit identical to an uninterrupted one, and every design
  the clients generated through the outage is warm afterwards.

Timing is not asserted here: `bench/run.py`'s ``serve_routed`` workload
measures the routed warm path.
"""

import json
import os
import pathlib
import socket
import subprocess
import sys
import threading
import time

from repro.service import RouterThread, ServiceClient, ServiceError

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")

SMALL_SPACE = {
    "arrays": [[8, 8], [16, 16]],
    "buffer_kb": [128.0, 256.0],
    "dram_gbps": [16.0],
    "dataflow_sets": [["ICOC"], ["MN", "ICOC"]],
}
EXPLORE = dict(models=["LeNet"], strategy="anneal", max_evals=8,
               seed=11, space=SMALL_SPACE, step_evals=1)


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _boot(root, port) -> subprocess.Popen:
    """`repro serve` on *port* over the cache at *root*, once healthy."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", str(port),
         "--cache-dir", str(root), "--workers", "1"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        try:
            with ServiceClient(port=port, timeout=5) as c:
                if c.health()["ok"]:
                    return proc
        except OSError:
            time.sleep(0.05)
    proc.kill()
    raise RuntimeError("server did not come up")


def _kill(proc: subprocess.Popen) -> None:
    proc.kill()  # SIGKILL: no FIN, no goodbye
    proc.wait()


def test_primary_sigkill_zero_client_errors(tmp_path):
    ports = [_free_port(), _free_port()]
    roots = [tmp_path / f"b{i}" for i in range(2)]
    procs = [_boot(roots[i], ports[i]) for i in range(2)]
    urls = [f"http://127.0.0.1:{p}" for p in ports]
    specs = [{"kernel": "gemm", "array": [a, b]}
             for a in (2, 3, 4) for b in (2, 3)]
    router = None
    try:
        # Warm every design on BOTH replicas so failover serves from
        # cache: what is on trial is the retry machinery, not generation.
        for url in urls:
            with ServiceClient.from_url(url, timeout=120) as c:
                for spec in specs:
                    assert c.generate(spec)["ok"]

        router = RouterThread(urls, replicas=2, probe_interval_s=0.25,
                              retry_budget_s=30.0).start()
        completed, errors = [], []
        deadline = time.monotonic() + 3.0

        def client_worker(w: int) -> None:
            done = 0
            try:
                with ServiceClient.from_url(router.url, timeout=60) as c:
                    while time.monotonic() < deadline:
                        result = c.generate(specs[(w + done) % len(specs)])
                        assert result["ok"], result
                        done += 1
            except Exception as exc:  # noqa: BLE001
                errors.append(f"client {w}: {exc}")
            completed.append(done)

        threads = [threading.Thread(target=client_worker, args=(w,))
                   for w in range(6)]
        for t in threads:
            t.start()
        time.sleep(1.0)
        _kill(procs[0])
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert sum(completed) > 0, "clients never completed a request"

        # Revive the primary on the same port and root; the prober's next
        # success must re-close its breaker.
        procs[0] = _boot(roots[0], ports[0])
        with ServiceClient.from_url(router.url, timeout=10) as c:
            poll_deadline = time.monotonic() + 15
            health = c.health()
            while (time.monotonic() < poll_deadline
                   and health["status"] != "up"):
                time.sleep(0.02)
                health = c.health()
            assert health["status"] == "up", health
            assert health["backends"][0]["breaker"]["state"] == "closed"
            assert c.generate(specs[0])["from_cache"]
    finally:
        if router is not None:
            router.stop()
        for proc in procs:
            _kill(proc)


def _generate_with_retry(port_box: dict, spec: dict,
                         deadline: float) -> dict:
    """One client request that survives the outage by retrying against
    whatever port the server currently answers on."""
    last: Exception | None = None
    while time.monotonic() < deadline:
        try:
            with ServiceClient(port=port_box["port"], timeout=30) as c:
                return c.generate(spec)
        except (OSError, ServiceError) as exc:
            last = exc
            time.sleep(0.1)
    raise AssertionError(f"request never completed: {last}")


def test_kill_revive_mid_exploration(tmp_path):
    specs = [{"kernel": "gemm", "array": [a, b]}
             for a, b in ((2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2))]

    # The uninterrupted reference: same exploration, separate root.
    ref_port = _free_port()
    reference = _boot(tmp_path / "ref", ref_port)
    try:
        with ServiceClient(port=ref_port, timeout=60) as c:
            uninterrupted = c.wait(c.explore(**EXPLORE), timeout=300)
            assert uninterrupted["status"] == "done"
    finally:
        _kill(reference)

    root = tmp_path / "cache"
    port = _free_port()
    proc = _boot(root, port)
    port_box = {"port": port}
    client_results, client_errors = [], []
    deadline = time.monotonic() + 240

    def client_worker(spec):
        try:
            client_results.append(
                _generate_with_retry(port_box, spec, deadline))
        except Exception as exc:  # noqa: BLE001
            client_errors.append(str(exc))

    threads = [threading.Thread(target=client_worker, args=(s,))
               for s in specs]
    try:
        with ServiceClient(port=port, timeout=60) as c:
            job_id = c.explore(**EXPLORE)
            for t in threads:
                t.start()
            # SIGKILL as soon as one checkpoint is journaled.
            for event in c.stream(job_id):
                if event.get("event") in ("checkpoint", "end"):
                    break
    except (OSError, ServiceError):
        pass  # the stream may die with the process: that is the point
    _kill(proc)

    # Revive on the same root (new port: the old one may linger in
    # TIME_WAIT) and let the in-flight clients find it.
    port_box["port"] = port = _free_port()
    proc = _boot(root, port)
    try:
        with ServiceClient(port=port, timeout=60) as c:
            state = c.job(job_id)
            if state["status"] == "done":
                final = state  # finished before the kill landed
            else:
                assert state["status"] == "paused", state["status"]
                assert state["recovered"] is True
                c.resume(job_id)
                final = c.wait(job_id, timeout=300)
            assert final["status"] == "done"
            for t in threads:
                t.join(timeout=240)
            assert not any(t.is_alive() for t in threads)
            assert not client_errors, client_errors
            assert len(client_results) == len(specs)
            assert all(r["ok"] for r in client_results)
            # zero lost work: every design a client paid for is warm now
            assert all(c.generate(s)["from_cache"] for s in specs)
    finally:
        _kill(proc)

    # Bit-for-bit: the resumed search equals the uninterrupted one.
    assert json.dumps(final["result"], sort_keys=True) \
        == json.dumps(uninterrupted["result"], sort_keys=True)
