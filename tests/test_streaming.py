"""Streaming NDJSON mode: framing, incrementality, parity, aborts."""

import json
import socket
import struct
import threading
import time

import pytest

from repro.client import ServiceClient
from repro.engine import EvaluationSession
from repro.errors import ServiceError
from repro.service import create_service
from repro.service import server as server_module
from repro.service.admission import Deadline, DeadlineSession
from repro.service.jsonapi import evaluate_payload
from repro.service.streaming import (evaluate_stream, sweep_stream,
                                     wants_stream)


@pytest.fixture()
def service():
    svc = create_service(host="127.0.0.1", port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture()
def client(service):
    return ServiceClient(f"http://127.0.0.1:{service.server_port}")


@pytest.fixture()
def session():
    return EvaluationSession(capacity=16)


# ----------------------------------------------------------------------
# Generator layer (no HTTP).
# ----------------------------------------------------------------------
class TestGenerators:
    def test_wants_stream(self):
        assert wants_stream({"stream": True})
        assert not wants_stream({"stream": 1})
        assert not wants_stream({})
        assert not wants_stream([])

    def test_evaluate_stream_matches_buffered(self, session):
        payload = {"devices": [{}, {"node": 44}]}
        records = list(evaluate_stream(session, dict(payload)))
        buffered = evaluate_payload(session, payload)
        assert records[-1] == {"done": True, "count": 2}
        assert [r["result"] for r in records[:-1]] \
            == buffered["results"]
        assert [r["index"] for r in records[:-1]] == [0, 1]

    def test_validation_is_eager(self, session):
        with pytest.raises(ServiceError):
            evaluate_stream(session, {"devices": []})
        with pytest.raises(ServiceError):
            evaluate_stream(session, {"device": {}, "pattern": 7})
        with pytest.raises(ServiceError):
            sweep_stream(session, {"kind": "bogus"})
        with pytest.raises(ServiceError):
            sweep_stream(session, {"kind": "sensitivity",
                                   "device": {"nope": 1}})

    def test_mid_stream_error_becomes_record(self, session):
        deadline = Deadline(1e-6)
        time.sleep(0.01)
        wrapped = DeadlineSession(session, deadline)
        records = list(evaluate_stream(wrapped, {"device": {}}))
        assert len(records) == 1
        assert records[0]["index"] == 0
        assert records[0]["status"] == 504
        assert "error" in records[0]


# ----------------------------------------------------------------------
# HTTP layer.
# ----------------------------------------------------------------------
def _raw_stream_exchange(port, payload):
    """One streaming POST over a raw socket; returns (headers, body)."""
    blob = json.dumps(payload).encode()
    request = (b"POST /sweep HTTP/1.1\r\n"
               b"Host: 127.0.0.1\r\n"
               b"Content-Type: application/json\r\n"
               b"Content-Length: %d\r\n\r\n%s" % (len(blob), blob))
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=30) as sock:
        sock.sendall(request)
        sock.settimeout(30)
        data = b""
        while b"\r\n\r\n" not in data:
            data += sock.recv(65536)
        headers, _, body = data.partition(b"\r\n\r\n")
        while not body.endswith(b"0\r\n\r\n"):
            chunk = sock.recv(65536)
            if not chunk:
                break
            body += chunk
    return headers.decode("latin-1"), body


def _parse_chunks(body):
    """Decode chunked transfer framing; returns the chunk payloads."""
    chunks = []
    rest = body
    while rest:
        size_line, _, rest = rest.partition(b"\r\n")
        size = int(size_line, 16)
        if size == 0:
            break
        chunks.append(rest[:size])
        assert rest[size:size + 2] == b"\r\n"
        rest = rest[size + 2:]
    return chunks


class TestStreamingHttp:
    def test_chunk_framing_and_content_type(self, service):
        headers, body = _raw_stream_exchange(
            service.server_port,
            {"kind": "corners", "device": {}, "stream": True})
        assert " 200 " in headers.splitlines()[0]
        assert "application/x-ndjson" in headers
        assert "Transfer-Encoding: chunked" in headers
        assert "Content-Length" not in headers
        chunks = _parse_chunks(body)
        records = [json.loads(chunk) for chunk in chunks]
        assert all(chunk.endswith(b"\n") for chunk in chunks)
        assert records[-1]["done"] is True
        assert records[-1]["count"] == len(records) - 1
        assert all("row" in r for r in records[:-1])

    def test_first_record_arrives_before_sweep_completes(
            self, service, client):
        # The trends sweep cold-builds one model per roadmap node;
        # the stream must hand over row 0 while the admission slot is
        # still held by the ongoing sweep.
        stream = client.sweep_stream("trends")
        first = next(stream)
        assert first["index"] == 0
        probe = ServiceClient(
            f"http://127.0.0.1:{service.server_port}")
        stats = probe.stats()
        assert stats["admission"]["in_flight"] >= 1, \
            "sweep already finished before the first record"
        assert stats["streams"] == 1
        rest = list(stream)
        assert rest[-1]["done"] is True
        assert rest[-1]["count"] >= 10

    def test_streamed_evaluate_matches_buffered_over_http(
            self, client):
        devices = [{"node": 55}, {"node": 44}, {}]
        records = list(client.evaluate_stream(devices=devices))
        buffered = client.evaluate(devices=devices)
        assert [r["result"] for r in records[:-1]] \
            == buffered["results"]
        assert records[-1]["count"] == 3

    def test_streamed_error_request_is_plain_json_error(
            self, client):
        with pytest.raises(ServiceError) as err:
            client.sweep_stream("bogus")
        assert err.value.status == 400

    def test_mid_stream_disconnect_counts_abort(self, service,
                                                monkeypatch):
        # Hold the stream after its first record until the client has
        # reset the socket, so the rest is always written to a dead
        # connection however the threads are scheduled.
        reset = threading.Event()
        real_stream = server_module.sweep_stream

        def held_stream(session, payload):
            records = real_stream(session, payload)

            def hold():
                yield next(records)
                reset.wait(30)
                yield from records
            return hold()

        monkeypatch.setattr(server_module, "sweep_stream", held_stream)
        payload = json.dumps({"kind": "trends",
                              "stream": True}).encode()
        request = (b"POST /sweep HTTP/1.1\r\n"
                   b"Host: 127.0.0.1\r\n"
                   b"Content-Type: application/json\r\n"
                   b"Content-Length: %d\r\n\r\n%s"
                   % (len(payload), payload))
        sock = socket.create_connection(
            ("127.0.0.1", service.server_port), timeout=30)
        try:
            sock.sendall(request)
            sock.settimeout(30)
            sock.recv(1)  # wait for the stream to actually start
            # Hard reset (RST) mid-stream: the server's next chunk
            # write must fail and be tallied, not crash the daemon.
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
        finally:
            reset.set()
        deadline = time.monotonic() + 15
        while time.monotonic() < deadline:
            if service.counters.stream_aborts >= 1:
                break
            time.sleep(0.05)
        assert service.counters.stream_aborts >= 1
        # The service must still answer normally afterwards.
        probe = ServiceClient(
            f"http://127.0.0.1:{service.server_port}")
        assert probe.healthz()["status"] == "ok"


# ----------------------------------------------------------------------
# Dedicated-connection hygiene of client streams.
# ----------------------------------------------------------------------
class TestDedicatedConnectionClose:
    """Streams run on dedicated (non-pooled) connections; the client
    must release them *eagerly* when the stream logically ends — on
    the terminal record, an in-band error record, or an explicit
    abandon — never leaving a socket open until garbage collection.
    """

    def test_closed_after_terminal_record(self, client):
        stream = client.evaluate_stream(devices=[{}, {"node": 65}])
        records = list(stream)
        assert records[-1]["done"] is True
        assert stream.closed is True
        assert stream._conn.sock is None  # socket really released

    def test_closed_on_mid_stream_error_record(self, client):
        # The second trace line is unparsable: the server emits
        # snapshot-less records then an in-band error record.
        stream = client.trace_stream(
            b"0x0 READ 0\n0x10 BOGUS 5\n", device={"node": 55})
        records = list(stream)
        assert "error" in records[-1]
        assert records[-1]["status"] == 400
        assert stream.closed is True
        assert stream._conn.sock is None

    def test_abandoned_stream_closes_idempotently(self, client):
        stream = client.sweep_stream("schemes")
        first = next(stream)
        assert "row" in first
        stream.close()
        assert stream.closed is True
        stream.close()  # idempotent
        with pytest.raises(StopIteration):
            next(stream)

    def test_error_status_never_leaks_a_connection(self, client):
        opened_before = client.connections_opened
        with pytest.raises(ServiceError) as caught:
            client.evaluate_stream(device={"node": 999})
        assert caught.value.status == 400
        assert client.connections_opened == opened_before + 1
