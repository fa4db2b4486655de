"""The HTTP codec both ends of the service share (``repro.wire``).

Fuzzed at its input boundaries (head reader, head writer, chunked
reader over split socket reads), then driven over raw sockets against
a live service: what it refuses, the one reading of ``Content-Length``
and ``Transfer-Encoding``, and that neither end runs the stdlib's
``email``-based header parser.
"""

import io
import os
import re
import socket
import string
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import wire
from repro.client import ServiceClient
from repro.errors import ServiceError
from repro.service import create_service


class Trickle(io.RawIOBase):
    """A raw stream handing out 1 to n bytes per read, as a socket
    may, cycling through ``sizes``."""

    def __init__(self, data, sizes=(65536,)):
        self._data = data
        self._sizes = sizes
        self._turn = 0
        self._pos = 0

    def readable(self):
        return True

    def readinto(self, buffer):
        size = self._sizes[self._turn % len(self._sizes)]
        self._turn += 1
        piece = self._data[self._pos:self._pos + min(size, len(buffer))]
        buffer[:len(piece)] = piece
        self._pos += len(piece)
        return len(piece)


def reader(data, sizes=(65536,), buffer_size=8192):
    return io.BufferedReader(Trickle(data, sizes), buffer_size)


# ----------------------------------------------------------------------
# Heads.
# ----------------------------------------------------------------------
HEAD_LINES = st.one_of(
    st.binary(max_size=40),
    st.sampled_from([b"Content-Length: 5", b"Content-Length: 6",
                     b"Transfer-Encoding: chunked", b": empty name",
                     b"no colon", b" folded: line", b"\tfolded",
                     b"Bad Name: x", b"Name:value", b"", b"\xff: \xfe"]))


@settings(max_examples=300, deadline=None)
@given(st.binary(max_size=300))
def test_read_head_on_any_bytes_returns_or_refuses(data):
    try:
        start, headers = wire.read_head(reader(data))
    except ServiceError as exc:
        assert exc.status in (400, 431)
    else:
        assert isinstance(start, str)
        assert isinstance(headers, wire.Headers)


@settings(max_examples=300, deadline=None)
@given(st.lists(HEAD_LINES, max_size=12),
       st.sampled_from([b"\r\n", b"\n"]), st.binary(max_size=8))
def test_read_head_on_line_shaped_bytes_returns_or_refuses(lines, end,
                                                           tail):
    data = end.join(lines) + tail
    try:
        _, headers = wire.read_head(reader(data))
    except ServiceError as exc:
        assert exc.status in (400, 431)
    else:
        for name, value in headers.items():
            assert name == name.lower() and name.split() == [name]
            assert "\n" not in value


TOKEN = st.text(string.ascii_letters + string.digits + "!#$%&'*+-.^_`|~",
                min_size=1, max_size=16).filter(
                    lambda name: name.lower() != "content-length")
VALUE = st.text(st.characters(max_codepoint=0xFF,
                              blacklist_characters="\r\n"),
                max_size=40).map(lambda value: value.strip(" \t"))
START = st.text(st.characters(max_codepoint=0xFF,
                              blacklist_characters="\r\n"), max_size=40)


@settings(max_examples=200, deadline=None)
@given(START, st.lists(st.tuples(TOKEN, VALUE), max_size=20),
       st.lists(st.integers(1, 64), min_size=1, max_size=4))
def test_write_then_read_round_trips(start, fields, sizes):
    blob = wire.write_head(start, dict(fields))
    rfile = reader(blob + b"BODY", sizes)
    got_start, headers = wire.read_head(rfile)
    assert got_start == start
    expected = {}
    for name, value in dict(fields).items():
        expected.setdefault(name.lower(), value)
    assert dict(headers) == expected
    for name, value in fields:
        assert headers.get(name.upper()) == expected[name.lower()]
    assert rfile.read() == b"BODY"


@pytest.mark.parametrize("start, headers", [
    ("HTTP/1.1 200 OK", {"X-Key": "a\r\nX-Injected: 1"}),
    ("HTTP/1.1 200 OK", {"X-Key\n": "a"}),
    ("GET /\r\nX: y HTTP/1.1", {}),
])
def test_write_head_refuses_line_breaks(start, headers):
    with pytest.raises(ValueError):
        wire.write_head(start, headers)


def test_first_value_wins_and_lookups_ignore_case():
    _, headers = wire.read_head(reader(
        b"HTTP/1.1 200 OK\r\nX-Repeat: one\r\nx-repeat: two\r\n"
        b"Content-Length: 3\r\ncontent-length: 3\r\n\r\n"))
    assert headers["X-REPEAT"] == "one"
    assert "x-Repeat" in headers and "Other" not in headers
    assert wire.body_length(headers) == 3


@pytest.mark.parametrize("head, status", [
    (b"X: y\r\n" * 100 + b"\r\n", 431),
    (b"X: y\r\n" * 99 + b"\r\n", None),
    (b"X: " + b"a" * 65532 + b"\r\n\r\n", 431),
    (b"X: " + b"a" * 65531 + b"\r\n\r\n", None),
    (b"X: y\r\n continued\r\n\r\n", 400),
    (b"X y\r\n\r\n", 400),
    (b": y\r\n\r\n", 400),
    (b"X Y: z\r\n\r\n", 400),
    (b"X : z\r\n\r\n", 400),
    (b"Content-Length: 1\r\nContent-Length: 2\r\n\r\n", 400),
    (b"X: y\r\n", 400),
], ids=["100-lines", "99-fields", "line-65537", "line-65536",
        "obs-fold", "no-colon", "empty-name", "space-in-name",
        "space-before-colon", "two-lengths", "eof-in-head"])
def test_head_refusals(head, status):
    rfile = reader(b"GET / HTTP/1.1\r\n" + head)
    if status is None:
        wire.read_head(rfile)
        return
    with pytest.raises(ServiceError) as caught:
        wire.read_head(rfile)
    assert caught.value.status == status


@pytest.mark.parametrize("fields, length", [
    ({}, None),
    ({"Content-Length": "24"}, 24),
    ({"Transfer-Encoding": "chunked"}, wire.CHUNKED),
    ({"Transfer-Encoding": "gzip, chunked"}, wire.CHUNKED),
    ({"Transfer-Encoding": "gzip"}, None),
    ({"Content-Length": "2_4"}, 400),
    ({"Content-Length": "+24"}, 400),
    ({"Content-Length": "0x18"}, 400),
    ({"Content-Length": "-5"}, 400),
    ({"Content-Length": "٢٤"}, 400),
    ({"Content-Length": ""}, 400),
    ({"Content-Length": "24", "Transfer-Encoding": "chunked"}, 400),
])
def test_one_reading_of_the_body_framing(fields, length):
    headers = wire.Headers((name.lower(), value)
                           for name, value in fields.items())
    if length != 400:
        assert wire.body_length(headers) == length
        return
    with pytest.raises(ServiceError) as caught:
        wire.body_length(headers)
    assert caught.value.status == 400


# ----------------------------------------------------------------------
# Bodies.
# ----------------------------------------------------------------------
TRAILERS = st.lists(st.sampled_from([b"X-Checksum: 1", b"Expires: 0",
                                     b"X-Empty:"]), max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=3000),
       st.lists(st.integers(1, 700), max_size=8),
       st.sampled_from([b"", b";name=v", b";a;b=c"]), TRAILERS,
       st.lists(st.integers(1, 97), min_size=1, max_size=5),
       st.integers(1, 64))
def test_chunked_body_survives_split_reads(body, cuts, extension,
                                           trailers, sizes, buffer_size):
    pieces, rest = [], body
    for cut in cuts:
        pieces.append(rest[:cut])
        rest = rest[cut:]
    pieces = [piece for piece in pieces + [rest] if piece]
    framed = b"".join(
        wire.chunk(piece) if not extension
        else b"%x%s\r\n%s\r\n" % (len(piece), extension, piece)
        for piece in pieces)
    framed += b"0\r\n" + b"".join(t + b"\r\n" for t in trailers) + b"\r\n"
    rfile = reader(framed + b"NEXT", sizes, buffer_size)
    assert b"".join(wire.iter_chunked_body(rfile)) == body
    assert rfile.read() == b"NEXT"  # the reader stops at the body's end


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 200_000), st.integers(1, 5))
def test_sized_body_comes_back_in_bounded_pieces(length, missing):
    body = bytes(range(256)) * (length // 256) + bytes(length % 256)
    rfile = reader(body + b"NEXT", (65536, 1, 4096))
    pieces = list(wire.iter_sized_body(rfile, length))
    assert b"".join(pieces) == body
    assert all(0 < len(piece) <= wire.READ_SIZE for piece in pieces)
    assert rfile.read() == b"NEXT"
    short = reader(body[:max(0, length - missing)])
    if length:
        with pytest.raises(ServiceError, match="truncated"):
            b"".join(wire.iter_sized_body(short, length))


#: The framings of ``test_service_trace.py::test_chunk_framing_is_checked``
#: around a 0x18-byte trace, with that test's verdicts.
FRAMINGS = [
    (b"18\r\n", b"\r\n0\r\n\r\n", True),
    (b"18;name=v\r\n", b"\r\n0\r\n\r\n", True),
    (b"0x18\r\n", b"\r\n0\r\n\r\n", False),
    (b"+18\r\n", b"\r\n0\r\n\r\n", False),
    (b"1_8\r\n", b"\r\n0\r\n\r\n", False),
    (b"18\r\n", b"\r\n-0\r\n\r\n", False),
    (b"18\r\n", b"ZZ0\r\n\r\n", False),
    (b"-2\r\n18\r\n", b"\r\n0\r\n\r\n", False),
]


@pytest.mark.parametrize("head, tail, accepted", FRAMINGS, ids=[
    "plain", "extension", "0x-prefix", "plus-sign", "underscore",
    "minus-zero-last", "no-crlf-after-data", "negative-size"])
def test_chunk_framings_match_the_service(head, tail, accepted):
    trace = b"0x0 P_MEM_RD 0\n0x4 RD 9\n"
    assert len(trace) == 0x18
    body = wire.iter_chunked_body(reader(head + trace + tail, (1, 5)))
    if accepted:
        assert b"".join(body) == trace
        return
    with pytest.raises(ServiceError) as caught:
        b"".join(body)
    assert caught.value.status == 400


def test_truncated_chunked_body_is_refused():
    with pytest.raises(ServiceError, match="truncated"):
        b"".join(wire.iter_chunked_body(reader(b"18\r\n0x0 P_MEM")))


# ----------------------------------------------------------------------
# A live service.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service():
    svc = create_service(host="127.0.0.1", port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def exchange(service, data, shut=False):
    """Send ``data`` on a fresh connection (then end the sending half,
    with ``shut``); everything the service answers until it closes the
    connection."""
    with socket.create_connection(
            ("127.0.0.1", service.server_port), timeout=15) as sock:
        sock.sendall(data)
        if shut:
            sock.shutdown(socket.SHUT_WR)
        reply = b""
        while True:
            piece = sock.recv(65536)
            if not piece:
                return reply
            reply += piece


def status_of(reply):
    """A reply's status.  A refused request line is answered as the
    stdlib answers it: as HTTP/0.9, the error page without a head."""
    if reply.startswith(b"HTTP/"):
        return int(reply.split(None, 2)[1])
    return int(re.search(rb"Error code: (\d+)", reply).group(1))


def still_serves(service):
    client = ServiceClient(f"http://127.0.0.1:{service.server_port}")
    try:
        return client.healthz()["status"] == "ok"
    finally:
        client.close()


@pytest.mark.parametrize("request_bytes, status", [
    (b"GET /healthz HTTP/1.1\r\n" + b"X-Many: 1\r\n" * 101 + b"\r\n", 431),
    (b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 65527 + b"\r\n\r\n",
     431),
    (b"GET /healthz HTTP/2.0\r\n\r\n", 505),
    (b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n folded\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.x\r\n\r\n", 400),
    (b"POST /evaluate\r\n\r\n", 400),
    (b"GET /healthz HTTP/1.1\r\nX-A: 1\r\n", 400),
], ids=["101-headers", "line-65537", "http-2", "obs-fold",
        "bad-version", "http-0.9-post", "eof-in-head"])
def test_service_refuses_bad_heads(service, request_bytes, status):
    reply = exchange(service, request_bytes, shut=True)
    assert status_of(reply) == status
    assert still_serves(service)


def test_http09_get_still_served(service):
    reply = exchange(service, b"GET /healthz\r\n\r\n")
    assert reply.startswith(b'{"status": "ok"')


def test_expect_100_continue_gets_an_interim_reply(service):
    body = b'{"device": {"node": 55}}'
    reply = exchange(service, b"POST /evaluate HTTP/1.1\r\n"
                     b"Host: x\r\nExpect: 100-continue\r\n"
                     b"Connection: close\r\n"
                     b"Content-Length: %d\r\n\r\n%s" % (len(body), body))
    assert reply.startswith(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 ")


def test_double_slash_path_collapses(service):
    reply = exchange(service, b"GET //healthz HTTP/1.1\r\n"
                     b"Connection: close\r\n\r\n")
    assert status_of(reply) == 200


@pytest.mark.parametrize("framing", [
    b"Content-Length: 2_4\r\n",
    b"Content-Length: +24\r\n",
    b"Content-Length: 0x18\r\n",
    b"Content-Length: 24\r\nTransfer-Encoding: chunked\r\n",
    b"Content-Length: 24\r\nContent-Length: 25\r\n",
], ids=["underscore", "plus-sign", "hex", "length-and-chunked",
        "two-lengths"])
def test_ambiguous_body_framing_is_400_and_closes(service, framing):
    body = b'{"device": {"node": 55}}'
    assert len(body) == 24
    # A keep-alive request: only a refusal that closes the connection
    # lets ``exchange`` see the end of the reply stream.
    reply = exchange(service, b"POST /evaluate HTTP/1.1\r\nHost: x\r\n"
                     b"Content-Type: application/json\r\n"
                     + framing + b"\r\n" + body)
    assert status_of(reply) == 400
    assert b"Connection: close" in reply.split(b"\r\n\r\n")[0]
    client = ServiceClient(f"http://127.0.0.1:{service.server_port}")
    assert client.evaluate(device={"node": 55})["count"] == 1
    client.close()


# ----------------------------------------------------------------------
# The stdlib header parsers are off the request path.
# ----------------------------------------------------------------------
def _stdlib_parser_file(filename):
    parts = Path(filename).parts
    if parts[-2:] == ("http", "client.py"):
        return True
    return len(parts) > 1 and parts[-2] == "email" \
        and parts[-1] != "utils.py"


def test_no_stdlib_header_parser_on_warm_requests(service):
    url = f"http://127.0.0.1:{service.server_port}"
    warm = ServiceClient(url)
    warm.evaluate(device={"node": 44})  # the result cache holds it
    warm.close()
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code.co_filename)

    # Set before the client connects, so the service's handler thread
    # for that connection starts under the hook too.
    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        client = ServiceClient(url)
        for _ in range(5):
            assert client.evaluate(device={"node": 44})["count"] == 1
        client.close()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    ours = {Path(filename).name for filename in seen
            if "repro" in Path(filename).parts}
    assert {"server.py", "wire.py", "client.py"} <= ours
    assert sorted(f for f in seen if _stdlib_parser_file(f)) == []


def test_importing_the_client_loads_no_stdlib_http_parser():
    src = str(Path(repro.__file__).resolve().parents[1])
    code = ("import sys, repro.client; print(sorted({'http.client', "
            "'email.parser', 'repro.service'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.strip() == "[]"
