"""``serve_warm`` and ``serve_routed``: warm ``/generate`` over HTTP.

The cache is primed with six tiny specs, so the generator does no work
in the timed section: what is measured is the client, HTTP parse and
respond, the event loop, the memory cache tier and — for the routed
variant — the router hop and its hash-prefix sharding.  Closed loop, one
keep-alive ``ServiceClient`` per connection; every reply must be ``ok``
and ``from_cache``.  ``serve_routed`` uses a single connection so that
three processes on two cores stay effectively serial.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time

from harness import Workload

SPECS = [{"kernel": "gemm", "dataflows": [d], "array": [a, a]}
         for d in ("KJ", "IJ", "IK") for a in (2, 4)]


def spec_kind(spec: dict) -> str:
    return f"gemm-{spec['dataflows'][0]}@{spec['array'][0]}x{spec['array'][1]}"


def spawn(ctx, args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start ``python -m repro <args>``; returns the process and its
    spawn time."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    ctx.children.append(proc)
    return proc, time.perf_counter()


def await_url(spawned) -> tuple[str, float]:
    """Block until the process announces its (ephemeral-port) URL;
    returns it with the seconds since spawn."""
    proc, started = spawned
    line = proc.stdout.readline()
    match = re.search(r"http://[\w.\-]+:\d+", line)
    if match is None:
        raise RuntimeError(f"child did not announce a URL: {line!r}")
    return match.group(0), time.perf_counter() - started


class _Serve(Workload):
    connections = 1
    # Reps are short and many so that the median rep shrugs off the
    # host's stalls (on the reference VM a rep of 2000 requests read
    # anywhere from 0.8 to 2.4 s while the median request moved by 20%).
    per_connection = 250
    quick_per_connection = 50

    def setup(self) -> None:
        from repro.service.client import ServiceClient

        # One CPU for the load generator and every server (children
        # inherit the mask).  On the reference VM waking the *other* vCPU
        # costs ~1 ms, more than a warm request: a serial client reads
        # 460 req/s against a server on the other vCPU and 2800 req/s
        # against one on its own, and which of the two a run gets is the
        # scheduler's lottery.  A closed loop on one CPU measures what the
        # code costs, and shares that CPU with the calibration loop.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.url = self.boot_fleet()
        self.clients = [ServiceClient.from_url(self.url)
                        for _ in range(self.connections)]
        health = self.clients[0].health()   # first 200 on /healthz
        if not health:
            raise RuntimeError("empty /healthz")
        for spec in SPECS:                  # prime, then confirm warm
            if not self.clients[0].generate(spec)["ok"]:
                raise RuntimeError(f"priming failed for {spec}")
        for spec in SPECS:
            if not self.clients[0].generate(spec)["from_cache"]:
                raise RuntimeError(f"{spec} not warm after priming")
        n = (self.quick_per_connection if self.ctx.quick
             else self.per_connection)
        self.orders = []
        for _ in range(self.connections):
            order = [SPECS[i % len(SPECS)] for i in range(n)]
            self.ctx.rng.shuffle(order)
            self.orders.append([(spec_kind(s), s) for s in order])

    def boot_fleet(self) -> str:
        raise NotImplementedError

    def _drive(self, client, order, samples: list) -> None:
        clock = time.perf_counter
        for kind, spec in order:
            start = clock()
            try:
                reply = client.generate(spec)
                ok = bool(reply["ok"] and reply["from_cache"])
            except Exception:  # noqa: BLE001 — a failed request is a result
                ok = False
            samples.append((kind, clock() - start, ok))

    def rep(self, index: int) -> None:
        collected = [[] for _ in self.clients]
        if len(self.clients) == 1:
            self._drive(self.clients[0], self.orders[0], collected[0])
        else:
            threads = [threading.Thread(target=self._drive,
                                        args=(c, o, s))
                       for c, o, s in zip(self.clients, self.orders,
                                          collected)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        for samples in collected:
            for kind, seconds, ok in samples:
                self.ctx.record(kind, seconds, ok)

    def check(self):
        """Served artifacts must equal an in-process generation of the
        same spec, byte for byte."""
        from repro.service.spec import DesignRequest, execute_request

        failed = []
        for spec in SPECS:
            served = self.clients[0].generate(spec, include_rtl=True)
            local = execute_request(DesignRequest(
                kernel=spec["kernel"], dataflows=tuple(spec["dataflows"]),
                array=tuple(spec["array"])))
            if not (local.ok and served.get("artifacts") == local.artifacts
                    and served["spec_hash"] == local.spec_hash):
                failed.append(spec_kind(spec))
        return len(SPECS), len(failed), {"served_vs_local_failed": failed}

    def _throughput(self, traced_reps) -> float:
        import statistics

        return statistics.median(len(rep["ops"]) / rep["wall_s"]
                                 for rep in traced_reps)

    def teardown(self) -> None:
        for client in getattr(self, "clients", []):
            client.close()
        for proc in self.ctx.children:
            if proc.poll() is None:
                proc.terminate()
        for proc in self.ctx.children:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()


class ServeWarm(_Serve):
    name = "serve_warm"
    connections = 2     # nproc on the reference host; never more

    def boot_fleet(self) -> str:
        url, boot_s = await_url(spawn(self.ctx, [
            "serve", "--port", "0", "--history-interval", "0",
            "--cache-dir", self.ctx.fresh_dir("serve-cache")]))
        self.ctx.info["server.boot_s"] = boot_s
        return url

    def layers(self, traced_reps, e2e) -> dict:
        import probes

        out = probes.server_probes(self.ctx, self.url, SPECS[0])
        out["server.boot_s"] = self.ctx.info["server.boot_s"]
        out["client.req_per_s_2conn"] = self._throughput(traced_reps)
        return out


class ServeRouted(_Serve):
    name = "serve_routed"
    connections = 1
    per_connection = 200
    quick_per_connection = 40

    def boot_fleet(self) -> str:
        spawned = [spawn(self.ctx, [
            "serve", "--port", "0", "--history-interval", "0",
            "--cache-dir", self.ctx.fresh_dir("backend-cache")])
            for _ in range(2)]      # both backends boot side by side
        announced = [await_url(s) for s in spawned]
        self.backends = [url for url, _boot_s in announced]
        boots = [boot_s for _url, boot_s in announced]
        args = ["route", "--port", "0", "--replicas", "1",
                "--history-interval", "0"]
        for url in self.backends:
            args += ["--backend", url]
        url, router_boot_s = await_url(spawn(self.ctx, args))
        self.ctx.info["server.boot_s"] = max(boots)
        self.ctx.info["router.boot_s"] = router_boot_s
        return url

    def layers(self, traced_reps, e2e) -> dict:
        import probes

        out = probes.router_probes(self.ctx, self.url, self.backends,
                                   SPECS[0])
        out["server.boot_s"] = self.ctx.info["server.boot_s"]
        out["router.boot_s"] = self.ctx.info["router.boot_s"]
        out["router.req_per_s"] = self._throughput(traced_reps)
        return out
