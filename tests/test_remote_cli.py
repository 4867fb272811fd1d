"""``repro generate|batch|explore`` are one path each: run in-process or
with ``--url`` against a live service, they print the same report from
the same result records.  Every flag of the three commands is either
honoured under ``--url`` or refused with exit code 2 naming itself."""

import argparse
import json
import re
import socket

import pytest

from repro.cli import _parse_array, build_parser, main
from repro.service.cache import DesignCache
from repro.service.engine import BatchEngine
from repro.service.router import RouterThread
from repro.service.server import ServerThread
from repro.service.spec import DesignRequest
from test_client_transport import Peer

#: timings, trace ids and job ids differ run to run
MASKS = ((re.compile(r"\d+\.\d+s\b"), "<t>s"),
         (re.compile(r"\d+\.\d+ designs/sec"), "<r> designs/sec"),
         (re.compile(r"trace_id [0-9a-f]{16}"), "trace_id <id>"),
         (re.compile(r"\b(batch|explore)-\d+-[0-9a-f]{6}\b"), "<job>"))
#: what only an in-process run can report: its own cache's counters and
#: its own perf-model memo
IN_PROCESS_ONLY = ("cache: {", "layer evaluations:")


@pytest.fixture
def server(tmp_path):
    engine = BatchEngine(cache=DesignCache(root=tmp_path / "server"))
    with ServerThread(engine, slow_request_ms=0) as url:
        yield url


def _mask(text: str) -> str:
    for pattern, token in MASKS:
        text = pattern.sub(token, text)
    return text


def _run(capsys, argv) -> tuple[int, str, str]:
    code = main(argv)
    out = capsys.readouterr()
    return code, _mask(out.out), _mask(out.err)


def _assert_same_report(capsys, tmp_path, server, argv) -> str:
    """Run *argv* in-process (on a cold cache of its own) and against
    the cold *server*; the two reports must agree line for line."""
    code, out, err = _run(capsys, [*argv, "--cache-dir",
                                   str(tmp_path / "local")])
    local = "\n".join(line for line in out.split("\n")
                      if not line.startswith(IN_PROCESS_ONLY))
    assert _run(capsys, [*argv, "--url", server]) == (code, local, err)
    return local


class TestSameReport:
    def test_generate(self, capsys, tmp_path, server):
        out = tmp_path / "top.v"
        argv = ["generate", "--array", "2", "2", "-o", str(out)]
        report = _assert_same_report(capsys, tmp_path, server, argv)
        assert "LEGO design: 4 FUs (2x2)" in report
        assert "cache hit" not in report  # both runs were cold
        assert "endmodule" in out.read_text()

    def test_batch_with_a_failure(self, capsys, tmp_path, server):
        spec = tmp_path / "specs.json"
        good = {"kernel": "gemm", "dataflows": ["KJ"], "array": [2, 2]}
        spec.write_text(json.dumps([good, dict(good, bounds={"k": 0})]))
        argv = ["batch", "--spec-file", str(spec), "--plan-summary",
                "--show-traceback"]
        code = main([*argv, "--cache-dir", str(tmp_path / "probe")])
        probe = capsys.readouterr()
        assert code == 1 and "cache: {" in probe.out
        assert "plan: 2 requests -> 2 unique specs" in probe.out
        assert "1/2 designs ok" in probe.out
        assert "must be positive" in probe.err
        assert "Traceback (most recent call last)" in probe.err
        _assert_same_report(capsys, tmp_path, server, argv)

    def test_explore(self, capsys, tmp_path, server):
        argv = ["explore", "--models", "LeNet", "--strategy", "halving"]
        report = _assert_same_report(capsys, tmp_path, server, argv)
        assert "Pareto frontier (" in report
        assert "best by edp: lego_" in report

    def test_batch_split_across_router_shards(self, capsys, tmp_path):
        """A router fans a two-shard batch out as parts that do not
        stream: the report comes from the merged final job instead."""
        specs = {}
        for a in range(2, 12):
            request = DesignRequest(array=(a, 2))
            specs.setdefault(int(request.spec_hash()[:2], 16) % 2,
                             request.to_dict())
        spec = tmp_path / "specs.json"
        spec.write_text(json.dumps([specs[0], specs[1]]))
        backends = [ServerThread(BatchEngine(cache=DesignCache(
            root=tmp_path / f"shard-{i}")), slow_request_ms=0).start()
            for i in range(2)]
        try:
            with RouterThread([b.url for b in backends],
                              slow_request_ms=0) as url:
                argv = ["batch", "--spec-file", str(spec)]
                _assert_same_report(capsys, tmp_path, url, argv)
                assert main([*argv, "--plan-summary", "--url", url]) == 0
                out = capsys.readouterr().out
                assert "plan: not reported" in out
                assert "2/2 designs ok (2 from cache)" in out
        finally:
            for backend in backends:
                backend.stop()

    def test_generate_trace_out(self, capsys, tmp_path, server):
        trace = tmp_path / "trace.json"
        assert main(["generate", "--array", "2", "2", "--trace-out",
                     str(trace), "--url", server]) == 0
        line = capsys.readouterr().out.splitlines()[0]
        trace_id = re.search(r"trace_id ([0-9a-f]{16})", line).group(1)
        events = json.loads(trace.read_text())["traceEvents"]
        assert {e["args"]["trace_id"] for e in events} == {trace_id}
        assert "request" in {e["name"] for e in events}


#: the flags each command honours under ``--url`` ...
HONOURED = {
    "generate": {"--kernel", "--dataflows", "--array", "--broadcast",
                 "--no-optimize", "--backend", "--no-testbench",
                 "--output", "--trace-out", "--module", "--url",
                 "--timeout", "--connect-timeout"},
    "batch": {"--spec-file", "--kernel", "--dataflows", "--arrays",
              "--fuse", "--broadcast", "--no-optimize", "--backend",
              "--no-testbench", "--workers", "--plan-summary",
              "--show-traceback", "--trace-out", "--url", "--timeout",
              "--connect-timeout"},
    "explore": {"--models", "--objective", "--strategy", "--max-evals",
                "--seed", "--area-budget", "--url", "--timeout",
                "--connect-timeout"},
}
#: ... and the ones that only mean something in this process
REFUSED = {
    "generate": {"--topology", "--cache-dir", "--no-cache"},
    "batch": {"--output-dir", "--cache-dir", "--no-cache"},
    "explore": {"--workers", "--cache-dir", "--no-cache"},
}


def _flag_actions():
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command in HONOURED:
                for flag in action.choices[command]._actions:
                    if not isinstance(flag, argparse._HelpAction):
                        yield command, flag


def _flag_argv(action, tmp_path, url: str) -> list[str]:
    """The flag set to some valid non-default value, plus ``--url``."""
    flag = max(action.option_strings, key=len)
    if flag == "--url":
        return [flag, url]
    if action.nargs == 0:
        return [flag, "--url", url]
    if action.choices:
        value = [str(action.choices[-1])]
    elif flag == "--spec-file":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps([{"kernel": "gemm", "dataflows": ["KJ"],
                                     "array": [2, 2]}]))
        value = [str(spec)]
    elif action.type is int:
        value = ["2"]
    elif action.type is float:
        value = ["3.5"]
    elif action.type is _parse_array:
        value = ["2x2"]
    elif flag in ("--dataflows", "--models"):
        value = [str(action.default[0])]
    else:
        value = [str(tmp_path / "x")]
    nargs = action.nargs if isinstance(action.nargs, int) else 1
    return [flag, *value * nargs, "--url", url]


def test_every_flag_is_honoured_or_refused_under_url(capsys, tmp_path):
    """Against a URL nobody listens on: a refused flag exits 2 naming
    itself before any connection is tried; an honoured one gets as far
    as the connection (exit 1, ``remote ... failed``)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        dead = f"http://127.0.0.1:{sock.getsockname()[1]}"
    seen = {command: set() for command in HONOURED}
    for command, action in _flag_actions():
        flag = max(action.option_strings, key=len)
        seen[command].add(flag)
        code = main([command, *_flag_argv(action, tmp_path, dead)])
        err = capsys.readouterr().err
        if flag in REFUSED[command]:
            assert code == 2 and flag in err, (command, flag, err)
        else:
            assert flag in HONOURED[command], \
                f"{command} {flag}: honour it under --url or refuse it"
            assert code == 1 and "remote" in err, (command, flag, err)
    assert seen == {command: HONOURED[command] | REFUSED[command]
                    for command in HONOURED}


def _answer_not_http(peer, conn, rfile, n):
    peer.read(rfile, n)
    conn.sendall(b"I AM NOT HTTP\r\n\r\n")


@pytest.mark.parametrize("argv", [["metrics"],
                                  ["generate", "--array", "2", "2"]],
                         ids=lambda argv: argv[0])
def test_a_peer_that_is_not_http_is_one_line(capsys, argv):
    """A reply that is not HTTP used to escape the CLI's handlers as an
    ``http.client.BadStatusLine`` traceback."""
    with Peer(_answer_not_http) as peer:
        code = main([*argv, "--url", f"http://127.0.0.1:{peer.port}"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.strip().splitlines()) == 1, err
    assert f"127.0.0.1:{peer.port}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["metrics"], ["top", "--iterations", "1"], ["trace"],
    ["profile", "--seconds", "0.1"], ["generate", "--array", "2", "2"],
    ["batch"], ["explore", "--models", "LeNet"]],
    ids=lambda argv: argv[0])
@pytest.mark.parametrize("url", ["http://127.0.0.1:8731/healthz",
                                 "http://:8731", "127.0.0.1:port"])
def test_a_malformed_url_is_a_usage_error(capsys, command, url):
    """Every ``--url`` command exits 2 with one line naming the URL —
    a path, a missing host or a bad port used to crash in ``int()``."""
    assert main([*command, "--url", url]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1, err
    assert repr(url) in err
