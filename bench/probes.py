"""Per-layer microbenchmarks run once per *traced* workload run, after the
timed reps: things a span cannot see from the load generator (the
server's HTTP floor, the router hop, each cache tier in isolation, the
cost of a process-per-request CLI call).  All use public entry points.
"""

from __future__ import annotations

import json
import socket
import statistics
import subprocess
import sys
import time
import urllib.parse


def _median_us(samples: list[float]) -> float:
    return statistics.median(samples) * 1e6


def timed_us(fn, items) -> float:
    """Median microseconds of ``fn(item)`` over *items*."""
    samples = []
    clock = time.perf_counter
    for item in items:
        start = clock()
        fn(item)
        samples.append(clock() - start)
    return _median_us(samples)


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _spawn_ms(argv: list[str]) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, *argv], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return (time.perf_counter() - start) * 1e3


def cli_import_ms() -> float:
    return _spawn_ms(["-c", "import repro.cli"])


def cli_generate_ms(ctx) -> dict:
    """One ``python -m repro generate`` per call against a temp cache:
    the process-per-request workflow, cold then warm."""
    argv = ["-m", "repro", "generate", "--kernel", "gemm", "--dataflows",
            "KJ", "--array", "8", "8", "--cache-dir",
            ctx.fresh_dir("cli-cache")]
    return {"cli.generate_cold_process_ms": _spawn_ms(argv),
            "cli.generate_warm_process_ms": _spawn_ms(argv)}


# ---------------------------------------------------------------------------
# raw-socket HTTP timing
# ---------------------------------------------------------------------------

def _http_bytes(method: str, path: str, host: str, body: dict | None) -> bytes:
    payload = json.dumps(body).encode() if body is not None else b""
    head = [f"{method} {path} HTTP/1.1", f"Host: {host}",
            "Connection: keep-alive"]
    if body is not None:
        head += ["Content-Type: application/json",
                 f"Content-Length: {len(payload)}"]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + payload


def _read_response(sock: socket.socket, buffer: bytearray) -> int:
    """Read one HTTP/1.1 response off *sock*; returns the status."""
    while b"\r\n\r\n" not in buffer:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buffer += chunk
    head, _, rest = bytes(buffer).partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(rest) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        rest += chunk
    del buffer[:]
    buffer += rest[length:]
    return int(head.split(b" ", 2)[1])


def raw_roundtrip_us(url: str, method: str, path: str, body: dict | None,
                     n: int = 300) -> float:
    """Median round trip of a pre-encoded request over one raw keep-alive
    socket: the server's HTTP parse + handle + respond floor, with no
    client library in the way."""
    parts = urllib.parse.urlsplit(url)
    request = _http_bytes(method, path, parts.netloc, body)
    samples = []
    buffer = bytearray()
    with socket.create_connection((parts.hostname, parts.port),
                                  timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for i in range(n + 20):
            start = time.perf_counter()
            sock.sendall(request)
            status = _read_response(sock, buffer)
            elapsed = time.perf_counter() - start
            if status != 200:
                raise RuntimeError(f"{path}: HTTP {status}")
            if i >= 20:     # the first few warm the connection
                samples.append(elapsed)
    return _median_us(samples)


def _metric(snapshot: dict, name: str, **labels):
    """One child's value out of a ``/metrics?format=json`` snapshot."""
    for family in snapshot.get("metrics", []):
        if family["name"] != name:
            continue
        want = [str(labels.get(k, "")) for k in family["labelnames"]]
        for child in family["children"]:
            if child["labels"] == want:
                return child["value"]
    return None


def _client_loop(client, spec: dict, n: int) -> tuple[float, float]:
    """``(median latency us, requests per second)`` of *n* serial warm
    ``ServiceClient.generate`` calls on one connection."""
    samples = []
    begin = time.perf_counter()
    for _ in range(n):
        start = time.perf_counter()
        reply = client.generate(spec)
        samples.append(time.perf_counter() - start)
        if not (reply["ok"] and reply["from_cache"]):
            raise RuntimeError("probe request was not a warm hit")
    return _median_us(samples), n / (time.perf_counter() - begin)


def server_probes(ctx, url: str, spec: dict) -> dict:
    from repro.service.client import ServiceClient

    n = 50 if ctx.quick else 500
    body = {"request": spec}
    out = {
        "server.healthz_raw_us": raw_roundtrip_us(url, "GET", "/healthz",
                                                  None, n),
        "server.generate_raw_us": raw_roundtrip_us(url, "POST", "/generate",
                                                   body, n),
    }
    with ServiceClient.from_url(url) as client:
        before = client.metrics_snapshot()
        p50_us, rate = _client_loop(client, spec, n)
        after = client.metrics_snapshot()

    def delta(name, **labels):
        new = _metric(after, name, **labels)
        old = _metric(before, name, **labels)
        if isinstance(new, dict):
            old = old or {"sum": 0.0, "count": 0}
            return new["sum"] - old["sum"], new["count"] - old["count"]
        return (new or 0.0) - (old or 0.0)

    seconds, handled = delta("repro_http_request_seconds",
                             route="/generate")
    out["server.handler_us"] = 1e6 * seconds / handled if handled else 0.0
    out["server.loop_hits"] = delta("repro_generate_path_total",
                                    path="event_loop")
    out["server.executor_hits"] = delta("repro_generate_path_total",
                                        path="executor")
    out["client.overhead_us"] = p50_us - out["server.generate_raw_us"]
    out["client.req_per_s_1conn"] = rate
    return out


def router_probes(ctx, router_url: str, backends: list[str],
                  spec: dict) -> dict:
    from repro.service.client import ServiceClient

    n = 50 if ctx.quick else 300
    body = {"request": spec}
    # warm the spec on backend 0 itself, whichever shard owns it, so the
    # direct and the routed round trip both end in a memory-tier hit
    with ServiceClient.from_url(backends[0]) as client:
        client.generate(spec)
    direct = raw_roundtrip_us(backends[0], "POST", "/generate", body, n)
    routed = raw_roundtrip_us(router_url, "POST", "/generate", body, n)
    return {"server.generate_raw_us": direct,
            "router.hop_us": routed - direct}


# ---------------------------------------------------------------------------
# cache tiers in isolation
# ---------------------------------------------------------------------------

def cache_probes(ctx, root: str, requests: list) -> dict:
    """Each tier's get/put on the records a batch left under *root*."""
    from repro.obs import PHASE_DESIGN
    from repro.service.cache import DesignCache

    keys = [r.spec_hash() for r in requests]
    design_keys = sorted({r.design_key() for r in requests})
    cache = DesignCache(root=root, memory_entries=len(keys) + 8)
    out = {"cache.disk_get_us": timed_us(cache.get, keys),
           "cache.mem_get_us": timed_us(cache.get, keys)}
    records = [cache.get(k) for k in keys]
    if any(r is None for r in records):
        raise RuntimeError("batch records missing from the cache")
    phase_cache = DesignCache(root=root)
    out["cache.phase_get_us"] = timed_us(
        lambda k: phase_cache.get_phase(PHASE_DESIGN, k), design_keys)
    phase_records = [phase_cache.get_phase(PHASE_DESIGN, k)
                     for k in design_keys]
    scratch = DesignCache(root=ctx.fresh_dir("cache-probe"))
    out["cache.put_us"] = timed_us(
        lambda pair: scratch.put(*pair), list(zip(keys, records)))
    out["cache.phase_put_us"] = timed_us(
        lambda pair: scratch.put_phase(PHASE_DESIGN, *pair),
        list(zip(design_keys, phase_records)))
    live_keys = design_keys[:scratch.live_entries]
    for key in live_keys:
        scratch.put_live(PHASE_DESIGN, key, object())
    out["cache.live_get_us"] = timed_us(
        lambda k: scratch.get_live(PHASE_DESIGN, k), live_keys * 8)
    return out


def spec_probes(requests: list) -> dict:
    from repro.service.spec import DesignRequest

    dicts = [r.to_dict() for r in requests]
    return {
        "spec.hash_us": timed_us(
            lambda r: (r.spec_hash(), r.design_key()), requests),
        "spec.from_dict_us": timed_us(DesignRequest.from_dict, dicts),
    }
