"""Fleet chaos with real processes: SIGKILL a `repro serve` backend under
load and show the self-healing tier absorbs it.

* **Failover.** Two backends, two replicas per hash range, six warm
  clients through `repro route`: killing a primary yields zero
  client-visible errors (the router's health-gated retry moves the
  affected requests to the replica), and once the primary is revived on
  the same port the breaker re-closes.
* **Revival.** A server SIGKILLed mid-exploration comes back on the
  same cache root with the job re-queued; with no client action it
  finishes a search bit-for-bit identical to an uninterrupted one, every
  row stored before the kill is a cache hit, and every design the
  clients generated through the outage is warm afterwards.

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

from repro.dse import DesignSpace, run_search
from repro.models import zoo
from repro.service import RouterThread, ServiceClient, ServiceError

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[1] / "src")

#: every zoo model over the default 48-point space: about a second of
#: rows after the first, so a kill lands mid-search
EXPLORE = dict(models=sorted(zoo.MODEL_BUILDERS), strategy="exhaustive")


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


def uninterrupted_exploration() -> dict:
    """The result record of EXPLORE run straight through, in-process."""
    models = [zoo.MODEL_BUILDERS[name]() for name in EXPLORE["models"]]
    return run_search(models, DesignSpace(),
                      strategy=EXPLORE["strategy"]).to_json()


def eval_rows_on_disk(root) -> int:
    """DSE evaluation rows stored under a cache root."""
    return sum('"eval-v1"' in path.read_text()
               for path in root.glob("??/*.json"))


def explore_then_sigkill(root, port: int, on_started=None) -> tuple[str,
                                                                    int]:
    """Boot ``repro serve`` on *root*, start EXPLORE, and SIGKILL the
    server once at least one evaluation row is on disk.  Returns the
    job id and the rows the dead server left on disk."""
    proc = _boot(root, port)
    try:
        with ServiceClient(port=port, timeout=60) as c:
            job_id = c.explore(**EXPLORE)
            if on_started is not None:
                on_started()
            deadline = time.monotonic() + 120
            while not eval_rows_on_disk(root):
                assert time.monotonic() < deadline, "no row was stored"
                time.sleep(0.005)
    finally:
        _kill(proc)
    return job_id, eval_rows_on_disk(root)


def assert_replayed(client, job_id: str, rows_before_kill: int,
                    reference: dict, other_misses: bool = False) -> dict:
    """The revived server finishes the re-queued job by itself, with the
    uninterrupted result, computing only the rows the dead one had not
    stored (exactly, unless *other_misses*: other traffic shares the
    cache counters).  Returns the final job."""
    total = reference["points_evaluated"]
    assert 1 <= rows_before_kill < total, "the kill missed the search"
    final = client.wait(job_id, timeout=120)
    assert final["status"] == "done", final["error"]
    assert final["recovered"] is True
    assert json.dumps(final["result"], sort_keys=True) \
        == json.dumps(reference, sort_keys=True)
    misses = client.health()["cache"]["misses"]
    if other_misses:
        assert misses >= total - rows_before_kill
    else:
        assert misses == total - rows_before_kill
    return final


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
    reference = uninterrupted_exploration()

    root = tmp_path / "cache"
    port_box = {"port": _free_port()}
    client_results, client_errors = [], []
    deadline = time.monotonic() + 240

    def client_worker(spec):
        try:
            client_results.append(
                _generate_with_retry(port_box, spec, deadline))
        except Exception as exc:  # noqa: BLE001
            client_errors.append(str(exc))

    threads = [threading.Thread(target=client_worker, args=(s,),
                                daemon=True) for s in specs]
    job_id, stored = explore_then_sigkill(
        root, port_box["port"],
        on_started=lambda: [t.start() for t in threads])

    # Revive on the same root (new port: the old one may linger in
    # TIME_WAIT) and let the in-flight clients find it.
    port_box["port"] = port = _free_port()
    proc = _boot(root, port)
    try:
        with ServiceClient(port=port, timeout=60) as c:
            # the clients' cold designs miss the cache too
            assert_replayed(c, job_id, stored, reference, other_misses=True)
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
