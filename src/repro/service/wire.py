"""HTTP/1.1 framing on bytes: the one codec of the server, router and client.

Nothing here touches a socket (the sans-IO shape of ``h11``): the
asyncio ends ``readuntil(HEAD_END)`` on streams opened with
``limit=STREAM_LIMIT``, the blocking client calls ``recv`` until
:func:`head_end` finds a head, and every framing fault is a
:class:`ProtocolError`.  "Wire format" in ``docs/serving.md`` lists the
rules: bounds, framing, keep-alive and resends.
"""

from __future__ import annotations

import json

from ..obs.tracing import TRACE_HEADER

HEAD_END = b"\r\n\r\n"
MAX_HEAD = 64 * 1024
MAX_BODY = 64 * 1024 * 1024
#: the asyncio stream limit at which ``readuntil(HEAD_END)`` overruns
#: exactly for a head longer than :data:`MAX_HEAD`
STREAM_LIMIT = MAX_HEAD - len(HEAD_END)
REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
           404: "Not Found", 405: "Method Not Allowed",
           431: "Request Header Fields Too Large",
           500: "Internal Server Error", 501: "Not Implemented",
           502: "Bad Gateway", 503: "Service Unavailable"}


class ProtocolError(ConnectionError):
    """Bytes that break the framing; *status* is a server's answer."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def head_too_long() -> ProtocolError:
    return ProtocolError(f"sent a head longer than {MAX_HEAD} bytes", 431)


def eof_error(replied: bool) -> ConnectionError:
    """A peer that hung up mid-exchange: a reset before the first byte of
    a reply (as a stale keep-alive socket does), else a ProtocolError."""
    if not replied:
        return ConnectionResetError("closed the connection without a reply")
    return ProtocolError("closed the connection mid-message")


def head_end(data: bytes) -> int:
    """The length of the head *data* starts with; -1 if still partial."""
    end = data.find(HEAD_END, 0, MAX_HEAD)
    if end < 0 and len(data) >= MAX_HEAD:
        raise head_too_long()
    return end + len(HEAD_END) if end >= 0 else -1


def _parse_head(head: bytes) -> tuple[str, dict[str, str], bool]:
    """The start line, the lower-cased fields and whether the sender
    keeps the connection open."""
    line, *lines = head.decode("latin-1").split("\r\n")
    fields = {}
    for field in lines:
        if field:
            name, _, value = field.partition(":")
            fields[name.strip().lower()] = value.strip()
    return line, fields, fields.get("connection", "").lower() != "close"


def parse_request(head: bytes) -> tuple[str, str, dict[str, str], int,
                                        bool]:
    """``(METHOD, target, fields, body length, keep-alive)``."""
    line, fields, keep_alive = _parse_head(head)
    parts = line.split()
    if len(parts) != 3 or not line.isascii() or not parts[1].isprintable():
        raise ProtocolError("malformed request line")
    if "transfer-encoding" in fields:
        # A body framed some other way than Content-Length would be read
        # as an empty body, and its bytes as the next request.
        raise ProtocolError("Transfer-Encoding is not supported; send the "
                            "body with Content-Length", 501)
    # (of latin-1 text, isdecimal() holds for ASCII digits alone)
    length = fields.get("content-length", "0")
    if not length.isdecimal() or int(length) > MAX_BODY:
        raise ProtocolError("bad Content-Length")
    return parts[0].upper(), parts[1], fields, int(length), keep_alive


def parse_response(head: bytes) -> tuple[int, int | None, bool]:
    """``(status, Content-Length or None: read to EOF, keep-alive)``."""
    line, fields, keep_alive = _parse_head(head)
    parts = line.split(None, 2)
    if (len(parts) < 2 or not parts[0].startswith("HTTP/")
            or len(parts[1]) != 3 or not parts[1].isdecimal()):
        raise ProtocolError(f"sent a bad status line {line[:80]!r}")
    length = fields.get("content-length")
    if length is None:
        return int(parts[1]), None, False
    if not length.isdecimal():
        raise ProtocolError(f"sent a bad Content-Length {length[:80]!r}")
    return int(parts[1]), int(length), keep_alive


def encode_request(method: str, target: str, host: str, port: int,
                   body: bytes | None = None,
                   trace: str | None = None) -> bytes:
    """One request; a *body* is JSON, a *trace* id rides in its header."""
    if " " in target or not target.isprintable():
        raise ValueError(f"invalid request target {target!r}")
    netloc = f"[{host}]" if ":" in host else host
    head = f"{method} {target} HTTP/1.1\r\nHost: {netloc}:{port}\r\n"
    if trace is not None:
        head += f"{TRACE_HEADER}: {trace}\r\n"
    if body is not None:
        head += ("Content-Type: application/json\r\n"
                 f"Content-Length: {len(body)}\r\n")
    return (head + "\r\n").encode("latin-1") + (body or b"")


def encode_response(status: int, payload,
                    keep_alive: bool = False) -> bytes:
    """A response.  A ``str`` payload is text (the Prometheus exposition
    of ``/metrics``), ``bytes`` are JSON already encoded (the router's
    proxy path), anything else is encoded as JSON, and ``None`` is the
    head of a chunked NDJSON stream: :func:`encode_chunk` each event,
    then an empty chunk."""
    if payload is None:
        ctype, framing, body = ("application/x-ndjson",
                                "Transfer-Encoding: chunked", b"")
    else:
        if isinstance(payload, str):
            ctype = "text/plain; version=0.0.4; charset=utf-8"
            body = payload.encode()
        else:
            ctype = "application/json"
            body = (payload if isinstance(payload, bytes)
                    else json.dumps(payload).encode())
        framing = f"Content-Length: {len(body)}"
    head = (f"HTTP/1.1 {status} {REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {ctype}\r\n{framing}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n")
    return head.encode("ascii") + body


def encode_chunk(data: bytes) -> bytes:
    return b"%x\r\n%s\r\n" % (len(data), data)


class ChunkedLines:
    """The non-blank lines of a chunked NDJSON body, however its bytes
    are split: :meth:`feed` returns those a piece completes, and
    :attr:`done` turns true at the last chunk.  A truncated chunk
    waits for more bytes; a malformed one raises."""

    def __init__(self):
        self.done = False
        self._data = self._body = b""

    def feed(self, data: bytes) -> list[bytes]:
        self._data += data
        while not self.done:
            eol = self._data.find(b"\r\n", 0, MAX_HEAD)
            if eol < 0 and len(self._data) < MAX_HEAD:
                break
            size = self._data[:max(eol, 0)].split(b";")[0].strip()
            if not size or size.strip(b"0123456789abcdefABCDEF"):
                raise ProtocolError(f"sent a bad chunk size {size[:80]!r}")
            end = eol + 2 + int(size, 16)
            if len(self._data) < end + 2:
                break
            if self._data[end:end + 2] != b"\r\n":
                raise ProtocolError("sent a chunk longer than its size")
            self.done = end == eol + 2
            self._body += self._data[eol + 2:end]
            self._data = self._data[end + 2:]
        *lines, self._body = self._body.split(b"\n")
        return [line for line in map(bytes.strip, lines) if line]


def decode_json(data: bytes) -> dict:
    """A JSON object body; other JSON is ``{"value": ...}`` and text that
    is not JSON ``{"error": text}``."""
    try:
        payload = json.loads(data.decode()) if data else {}
    except ValueError:
        return {"error": data.decode(errors="replace")}
    return payload if isinstance(payload, dict) else {"value": payload}


def may_resend(method: str, sent: bool) -> bool:
    """The resend rule after a transport failure: a request whose send
    failed never reached a handler and a ``GET`` changes nothing, so
    either may go again on a fresh connection; a lost ``POST`` may have
    created a job."""
    return method == "GET" or not sent
