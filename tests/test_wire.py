"""The HTTP/1.1 codec (``repro.service.wire``) the server, router and
client share: encodings parse back, the chunked decoder is indifferent
to how its bytes are split and never yields a wrong line, the framing
errors carry the server's status, and the one head bound holds at all
three ends (a 431 from the server, a ``protocol`` 502 from the router, a
``ConnectionError`` naming the peer from the client)."""

import socket

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service import (BatchEngine, ServerThread, ServiceClient,
                           ServiceError, wire)
from test_client_transport import Peer
from test_router_transport import TINY, scripted  # noqa: F401 (fixture)

TOKEN = st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZ", min_size=1, max_size=8)
TARGET = st.text(st.characters(min_codepoint=0x21, max_codepoint=0x7e),
                 max_size=40).map(lambda path: "/" + path)
#: NDJSON lines: printable text, no line breaks, not blank
LINE = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e),
               min_size=1, max_size=30).filter(str.strip).map(str.encode)


def _cuts(data: bytes, points: list[int]) -> list[bytes]:
    """*data* cut at *points* (taken modulo its length)."""
    marks = sorted({p % (len(data) + 1) for p in points})
    return [data[a:b] for a, b in zip([0] + marks, marks + [len(data)])]


def _chunked(lines: list[bytes], points: list[int]) -> bytes:
    """*lines* as NDJSON in chunks cut at *points*, then the last chunk."""
    body = b"".join(line + b"\n" for line in lines)
    return b"".join(wire.encode_chunk(piece)
                    for piece in _cuts(body, points) if piece) \
        + wire.encode_chunk(b"")


def _bad_size(junk: bytes) -> bool:
    """Whether *junk* is a chunk-size line the decoder must refuse."""
    size = junk.split(b";")[0].strip()
    return b"\r" not in junk and (not size or bool(
        size.strip(b"0123456789abcdefABCDEF")))


def _decode(pieces) -> tuple[list[bytes], wire.ChunkedLines]:
    decoder = wire.ChunkedLines()
    lines = [line for piece in pieces for line in decoder.feed(piece)]
    return lines, decoder


class TestRoundTrip:
    @given(method=TOKEN, target=TARGET,
           host=st.sampled_from(["127.0.0.1", "::1", "backend"]),
           port=st.integers(1, 65535), body=st.none() | st.binary(),
           trace=st.none() | st.text("0123456789abcdef-", min_size=1))
    def test_request(self, method, target, host, port, body, trace):
        data = wire.encode_request(method, target, host, port, body, trace)
        end = wire.head_end(data)
        got_method, got_target, fields, length, keep = wire.parse_request(
            data[:end])
        assert (got_method, got_target, keep) == (method, target, True)
        assert fields["host"] == (f"[{host}]" if ":" in host
                                  else host) + f":{port}"
        assert fields.get("x-repro-trace") == trace
        assert data[end:end + length] == (body or b"")
        assert len(data) == end + length

    @given(status=st.sampled_from(sorted(wire.REASONS)) | st.integers(100,
                                                                       599),
           payload=st.none() | st.binary() | st.text()
           | st.dictionaries(st.text(), st.integers()),
           keep_alive=st.booleans())
    def test_response(self, status, payload, keep_alive):
        data = wire.encode_response(status, payload, keep_alive)
        end = wire.head_end(data)
        got, length, keep = wire.parse_response(data[:end])
        _line, fields, _keep = wire._parse_head(data[:end])
        assert got == status
        if payload is None:     # a chunked stream: not framed by a length
            assert (length, keep, data[end:]) == (None, False, b"")
            assert fields["content-type"] == "application/x-ndjson"
        elif isinstance(payload, str):
            assert data[end:].decode() == payload
            assert fields["content-type"].startswith("text/plain")
        else:
            assert wire.decode_json(data[end:]) == (
                payload if isinstance(payload, dict)
                else wire.decode_json(payload))
            assert fields["content-type"] == "application/json"
        if payload is not None:
            assert (length, keep) == (len(data) - end, keep_alive)


class TestChunkedLines:
    @given(lines=st.lists(LINE, max_size=8),
           chunks=st.lists(st.integers(0, 500), max_size=6),
           splits=st.lists(st.integers(0, 2000), max_size=12))
    def test_any_split_yields_the_same_lines(self, lines, chunks, splits):
        stream = _chunked(lines, chunks)
        whole, decoder = _decode([stream])
        assert whole == [line.strip() for line in lines] and decoder.done
        split, decoder = _decode(_cuts(stream, splits))
        assert split == whole and decoder.done

    @given(lines=st.lists(LINE, min_size=1, max_size=8),
           chunks=st.lists(st.integers(0, 500), max_size=6),
           cut=st.integers(0, 10_000))
    def test_a_truncated_stream_waits(self, lines, chunks, cut):
        stream = _chunked(lines, chunks)
        cut %= len(stream) - len(wire.encode_chunk(b"")) + 1
        got, decoder = _decode([stream[:cut]])
        assert got == [line.strip() for line in lines][:len(got)]
        assert not decoder.done

    @given(lines=st.lists(LINE, min_size=1, max_size=8),
           chunks=st.lists(st.integers(0, 500), max_size=6),
           which=st.integers(0, 100),
           junk=st.binary(min_size=1, max_size=6).filter(_bad_size))
    def test_a_bad_chunk_size_never_yields_a_wrong_line(
            self, lines, chunks, which, junk):
        body = b"".join(line + b"\n" for line in lines)
        pieces = [piece for piece in _cuts(body, chunks) if piece]
        which %= len(pieces)
        stream = (b"".join(map(wire.encode_chunk, pieces[:which]))
                  + junk + b"\r\n" + pieces[which] + b"\r\n")
        decoder = wire.ChunkedLines()
        got: list[bytes] = []
        with pytest.raises(wire.ProtocolError, match="bad chunk size"):
            for at in range(len(stream)):
                got += decoder.feed(stream[at:at + 1])
        assert got == [line.strip() for line in lines][:len(got)]

    def test_a_chunk_longer_than_its_size_raises(self):
        with pytest.raises(wire.ProtocolError, match="longer than its size"):
            wire.ChunkedLines().feed(b"2\r\nabc\r\n")

    def test_an_endless_size_line_raises(self):
        decoder = wire.ChunkedLines()
        decoder.feed(b"1" * (wire.MAX_HEAD - 1))
        with pytest.raises(wire.ProtocolError):
            decoder.feed(b"1")


class TestFraming:
    @pytest.mark.parametrize("head, status, message", [
        (b"GET /healthz\r\n\r\n", 400, "malformed request line"),
        (b"GET /a b HTTP/1.1\r\n\r\n", 400, "malformed request line"),
        (b"GET /\xe9 HTTP/1.1\r\n\r\n", 400, "malformed request line"),
        (b"GET /\x01 HTTP/1.1\r\n\r\n", 400, "malformed request line"),
        (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501,
         "Transfer-Encoding is not supported"),
        (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400,
         "bad Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n", 400,
         "bad Content-Length"),
        (b"POST / HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
         % (wire.MAX_BODY + 1), 400, "bad Content-Length"),
    ])
    def test_request_errors_carry_the_answer(self, head, status, message):
        with pytest.raises(wire.ProtocolError, match=message) as err:
            wire.parse_request(head)
        assert err.value.status == status

    @pytest.mark.parametrize("head", [
        b"I AM NOT HTTP\r\n\r\n", b"HTTP/1.1 2000 OK\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: ten\r\n\r\n"])
    def test_response_errors(self, head):
        with pytest.raises(wire.ProtocolError, match="sent a bad"):
            wire.parse_response(head)

    def test_keep_alive_rule(self):
        assert wire.parse_request(b"GET / HTTP/1.1\r\n\r\n")[4]
        assert not wire.parse_request(
            b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n")[4]
        assert wire.parse_response(
            b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n") == (200, 0, True)
        assert wire.parse_response(b"HTTP/1.1 200 OK\r\n\r\n") == (
            200, None, False)

    def test_head_bound(self):
        fits = b"X" * (wire.MAX_HEAD - len(wire.HEAD_END)) + wire.HEAD_END
        assert wire.head_end(fits + b"body") == wire.MAX_HEAD
        assert wire.head_end(fits[:-1]) == -1
        with pytest.raises(wire.ProtocolError) as err:
            wire.head_end(b"X" + fits)
        assert err.value.status == 431

    def test_resend_rule(self):
        assert wire.may_resend("GET", sent=True)
        assert wire.may_resend("POST", sent=False)
        assert not wire.may_resend("POST", sent=True)

    def test_decode_json(self):
        assert wire.decode_json(b"") == {}
        assert wire.decode_json(b'{"a": 1}') == {"a": 1}
        assert wire.decode_json(b"[1]") == {"value": [1]}
        assert wire.decode_json(b"{nope") == {"error": "{nope"}


# -- one head bound at all three ends ---------------------------------------
#
# Each end takes a head of exactly MAX_HEAD bytes and refuses one byte more.

BOUND = [(wire.MAX_HEAD, True), (wire.MAX_HEAD + 1, False)]


def _head(start: bytes, size: int, tail: bytes = b"") -> bytes:
    """A head of *size* bytes: *start*, one padding field, the blank
    line (then *tail*, a body)."""
    pad = size - len(start) - len(b"X-Pad: ") - len(wire.HEAD_END)
    return start + b"X-Pad: " + b"a" * pad + wire.HEAD_END + tail


@pytest.mark.parametrize("size, ok", BOUND + [(4 * wire.MAX_HEAD, False)])
def test_server_answers_a_long_head_431_and_closes(size, ok):
    """The whole head goes in one write: the server must read what
    follows its answer, or the close resets the connection first."""
    head = _head(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n", size)
    server = ServerThread(BatchEngine(cache=None)).start()
    try:
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(head)
            data = b""
            while chunk := sock.recv(65536):  # until the server closes
                data += chunk
    finally:
        server.stop()
    reply, _, body = data.partition(wire.HEAD_END)
    assert b"connection: close" in reply.lower()
    if ok:
        assert reply.split()[1] == b"200" and wire.decode_json(body)["ok"]
    else:
        assert reply.split()[1] == b"431"
        assert wire.decode_json(body) == {
            "error": f"sent a head longer than {wire.MAX_HEAD} bytes"}


@pytest.mark.parametrize("size, ok", BOUND)
def test_router_answers_a_long_backend_head_502_protocol(scripted, size, ok):
    reply = _head(b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n", size,
                  b'{"ok": true}')
    _backend, router = scripted(lambda n: reply)
    with ServiceClient.from_url(router.url) as c:
        if ok:
            assert c.generate(TINY) == {"ok": True}
            return
        with pytest.raises(ServiceError) as err:
            c.generate(TINY)
    assert err.value.status == 502
    assert err.value.payload["reason"] == "protocol"
    assert "longer than" in err.value.payload["error"]


@pytest.mark.parametrize("size, ok", BOUND)
def test_client_names_the_peer_of_a_long_reply_head(size, ok):
    reply = _head(b"HTTP/1.1 200 OK\r\nContent-Length: 12\r\n", size,
                  b'{"ok": true}')

    def answer(peer, conn, rfile, n):
        while peer.read(rfile, n) is not None:
            conn.sendall(reply)

    with Peer(answer) as p, p.client(retries=0) as client:
        if ok:
            assert client.health() == {"ok": True}
            return
        with pytest.raises(ConnectionError,
                           match=f"127.0.0.1:{p.port} sent a head longer"):
            client.health()
