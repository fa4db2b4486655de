"""HTTP/1.1 message framing shared by the service and its client.

One small stdlib codec for both ends of the wire: the head of a
request or a reply (start line plus header fields) and its body, sized
by ``Content-Length`` or chunk-framed.  :mod:`repro.service.server`
reads request heads and bodies with it and writes reply heads;
:mod:`repro.client` writes requests and reads replies with it.  Neither
end runs the ``email`` header parser behind ``http.server`` and
``http.client``.

Every refusal is a :class:`~repro.errors.ServiceError` carrying the
status a server answers it with: 431 for a header line over 65,536
bytes or more than 100 head lines (``http.client``'s limits), 400 for
any other malformed head or body.  The client reports them as
transport failures (status 0).

Stdlib only, and nothing from :mod:`repro.service`, so importing the
client never loads the server.
"""

from __future__ import annotations

import re
from typing import Any, Iterator, Mapping, Optional, Tuple

from .errors import ServiceError

#: Longest head line, terminator included (``http.client._MAXLINE``).
MAX_LINE = 65536

#: Most lines after the start line, the blank one included
#: (``http.client._MAXHEADERS``).
MAX_HEADERS = 100

#: Largest body piece read from the socket or yielded at once.
READ_SIZE = 65536

#: :func:`body_length` of a chunk-framed body.
CHUNKED = -1

#: A header name: what precedes the first colon, without whitespace.
_NAME = re.compile(r"\S+")

#: A chunk-size line of a chunked body: one or more hex digits,
#: optional ``;`` extensions, then the line end.
_CHUNK_SIZE_LINE = re.compile(rb"([0-9A-Fa-f]+)(?:;[^\r\n]*)?\r?\n")


class Headers(dict):
    """Header values keyed by lower-case name; lookups ignore case.

    When a name repeats, the first value is kept, as
    ``email.message.Message.get`` answers.
    """

    __slots__ = ()

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and dict.__contains__(self,
                                                           name.lower())

    def get(self, name: str, default: Any = None) -> Any:
        return dict.get(self, name.lower(), default)


def read_headers(rfile: Any) -> Headers:
    """The header fields after a start line, through the blank line.

    ``rfile`` is a buffered binary reader.  Refused: a line over
    :data:`MAX_LINE` bytes or more than :data:`MAX_HEADERS` lines
    (431); an EOF inside the head, an obsolete folded continuation
    line, a line without a colon, a name that is empty or holds
    whitespace, and two different ``Content-Length`` values (400).
    """
    headers = Headers()
    for _ in range(MAX_HEADERS):
        line = rfile.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ServiceError("header line too long", status=431)
        if line == b"\r\n" or line == b"\n":
            return headers
        if not line:
            raise ServiceError("connection closed inside the head")
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or _NAME.fullmatch(name) is None:
            raise ServiceError(
                "folded header line" if line[0] in b" \t"
                else f"malformed header line {line[:80]!r}")
        value = value.strip(" \t\r\n")
        key = name.lower()
        first = dict.setdefault(headers, key, value)
        if first != value and key == "content-length":
            raise ServiceError("conflicting Content-Length values")
    raise ServiceError(f"more than {MAX_HEADERS} head lines", status=431)


def read_head(rfile: Any) -> Tuple[str, Headers]:
    """``(start line, headers)`` of the next message on ``rfile``.

    The start line comes without its line end.  An EOF before it, or a
    start line over :data:`MAX_LINE` bytes, is refused (400) like the
    faults :func:`read_headers` refuses.
    """
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        raise ServiceError("connection closed before the head")
    if len(line) > MAX_LINE:
        raise ServiceError("start line too long")
    return line.decode("latin-1").rstrip("\r\n"), read_headers(rfile)


def write_head(start_line: str, headers: Mapping[str, str]) -> bytes:
    """The head bytes of a message, ending in the blank line.

    A start line, name or value holding CR or LF would end a line
    early, so it raises :class:`ValueError`.
    """
    fields = "".join(f"{name}: {value}\r\n"
                     for name, value in headers.items())
    head = f"{start_line}\r\n{fields}\r\n"
    lines = len(headers) + 2
    if head.count("\n") != lines or head.count("\r") != lines:
        raise ValueError(f"CR or LF inside the head of {start_line!r}")
    return head.encode("latin-1")


def body_length(headers: Headers) -> Optional[int]:
    """How a message's body is framed: its ``Content-Length``,
    :data:`CHUNKED`, or ``None`` when the head declares neither.

    One reading on both ends (RFC 7230 §3.3.3): ``Content-Length`` is
    ASCII digits only, and a head carrying it together with
    ``Transfer-Encoding`` is refused (400), since the two would frame
    different bodies.  A ``Transfer-Encoding`` without ``chunked``
    declares no framing this codec reads.
    """
    raw = headers.get("content-length")
    transfer = headers.get("transfer-encoding")
    if transfer is not None:
        if raw is not None:
            raise ServiceError(
                "Content-Length and Transfer-Encoding together")
        return CHUNKED if "chunked" in transfer.lower() else None
    if raw is None:
        return None
    if not (raw.isascii() and raw.isdigit()):
        raise ServiceError(f"malformed Content-Length {raw!r}")
    return int(raw)


def iter_body(rfile: Any, length: Optional[int]) -> Iterator[bytes]:
    """The body of :func:`body_length` ``length`` as byte pieces."""
    if length == CHUNKED:
        return iter_chunked_body(rfile)
    if length is None:
        raise ServiceError(
            "body needs Content-Length or Transfer-Encoding: chunked")
    return iter_sized_body(rfile, length)


def iter_sized_body(rfile: Any, length: int) -> Iterator[bytes]:
    """Exactly ``length`` body bytes in pieces of at most 64 KiB.

    ``rfile.read(n)`` may legally return fewer bytes than asked (slow
    or half-closed peers), so loop until the declared length arrived;
    a connection that drops early is a client error, not an internal
    one.
    """
    remaining = length
    while remaining > 0:
        chunk = rfile.read(min(remaining, READ_SIZE))
        if not chunk:
            raise ServiceError(
                f"body truncated: got {length - remaining} of "
                f"{length} bytes")
        remaining -= len(chunk)
        yield chunk


def iter_chunked_body(rfile: Any) -> Iterator[bytes]:
    """Decode ``Transfer-Encoding: chunked`` frames from ``rfile``.

    Chunk data comes in pieces of at most 64 KiB; extensions are
    skipped, and trailers are read up to the blank line and dropped.
    """
    while True:
        line = rfile.readline(1026)
        if not line:
            raise ServiceError("chunked body truncated")
        match = _CHUNK_SIZE_LINE.fullmatch(line)
        if match is None:
            raise ServiceError("malformed chunk-size line")
        size = int(match.group(1), 16)
        if size == 0:
            # Consume optional trailers up to the blank line.
            while True:
                trailer = rfile.readline(1026)
                if trailer in (b"\r\n", b"\n", b""):
                    return
        remaining = size
        while remaining > 0:
            chunk = rfile.read(min(remaining, READ_SIZE))
            if not chunk:
                raise ServiceError("chunked body truncated")
            remaining -= len(chunk)
            yield chunk
        if rfile.read(2) != b"\r\n":
            raise ServiceError("chunk data not followed by CRLF")


def chunk(blob: bytes) -> bytes:
    """``blob`` framed as one chunk; ``b""`` gives the last chunk."""
    return b"%x\r\n%s\r\n" % (len(blob), blob)
