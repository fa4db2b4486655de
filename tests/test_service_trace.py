"""The ``POST /trace`` endpoint: JSON mode, raw chunked uploads."""

import gzip
import json
import socket
import threading

import pytest

from repro.cli import build_parser
from repro.client import ServiceClient
from repro.core.trace import evaluate_trace
from repro.devices import build_device
from repro.engine import BACKENDS, EvaluationSession
from repro.errors import ModelError, ServiceError
from repro.jobs import parse_job_spec
from repro.service import create_service
from repro.core.trace import TraceAccumulator
from repro.service.tracing import (MIN_SNAPSHOT_EVERY,
                                   parse_trace_payload,
                                   parse_trace_query, trace_payload,
                                   trace_result_row,
                                   trace_stream_payload,
                                   trace_stream_records)
from repro.trace import (DEFAULT_CLOCK, STRICT_REFUSAL, AddressDecoder,
                         ColumnarReplayer, commands_from_records,
                         iter_records, replay_trace_file)
from repro.trace.columnar import LINES_PER_BATCH
from repro import DramPowerModel


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


def k6_text(transactions=3000):
    """A deterministic k6 trace with reads, writes and one refresh."""
    lines = []
    for i in range(transactions):
        op = "P_MEM_WR" if i % 3 == 0 else "P_MEM_RD"
        lines.append(f"0x{(i * 64) % (1 << 22):X} {op} {i * 16}")
    lines.append(f"0x0 REF {transactions * 16}")
    return "\n".join(lines) + "\n"


def local_result(text, node=55):
    """The library-side evaluation the service must match exactly."""
    device = build_device(node)
    model = DramPowerModel(device)
    decoder = AddressDecoder.from_device(device)
    records = iter_records(iter(text.splitlines()), "k6")
    commands = commands_from_records(records, decoder, DEFAULT_CLOCK)
    return evaluate_trace(model, commands, strict=False)


class TestQueryParsing:
    def test_defaults(self):
        request = parse_trace_query({})
        assert request.fmt == "k6"
        assert not hasattr(request, "strict")
        assert request.clock == DEFAULT_CLOCK

    def test_full_query(self):
        request = parse_trace_query({
            "node": ["55"], "io_width": ["8"], "format": ["mase"],
            "clock": ["8e8"], "strict": ["false"],
            "snapshot_every": ["5"], "policy": ["bank-row-column"],
            "channel_bits": ["1"], "rank_bits": ["2"],
            "offset_bits": ["3"],
        })
        assert request.device_payload == {"node": 55, "io_width": 8}
        assert request.fmt == "mase"
        assert request.clock == 8e8
        assert request.snapshot_every == MIN_SNAPSHOT_EVERY  # floor
        assert request.policy == "bank-row-column"
        assert (request.channel_bits, request.rank_bits,
                request.offset_bits) == (1, 2, 3)

    def test_unknown_key_rejected(self):
        with pytest.raises(ServiceError, match="bogus"):
            parse_trace_query({"bogus": ["1"]})

    def test_bad_values_rejected(self):
        with pytest.raises(ServiceError, match="format"):
            parse_trace_query({"format": ["xml"]})
        with pytest.raises(ServiceError, match="policy"):
            parse_trace_query({"policy": ["diagonal"]})
        for clock in ("-1", "0", "inf", "nan"):
            with pytest.raises(ServiceError, match="clock"):
                parse_trace_query({"clock": [clock]})
        with pytest.raises(ServiceError, match="clock"):
            parse_trace_payload({"device": {"node": 55},
                                 "text": "0x0 READ 0",
                                 "clock": float("inf")})
        with pytest.raises(ServiceError, match="strict"):
            parse_trace_query({"strict": ["maybe"]})


class TestPayloadParsing:
    def test_requires_device_and_text(self):
        with pytest.raises(ServiceError, match="device"):
            parse_trace_payload({"text": "0x0 READ 0"})
        with pytest.raises(ServiceError, match="text"):
            parse_trace_payload({"device": {"node": 55}})

    def test_decoder_block(self):
        request, text = parse_trace_payload({
            "device": {"node": 55},
            "text": "0x0 READ 0",
            "decoder": {"policy": "bank-row-column",
                        "channel_bits": 1},
        })
        assert text == "0x0 READ 0"
        assert request.policy == "bank-row-column"
        assert request.channel_bits == 1


class TestSocketFreeEvaluation:
    def test_buffered_matches_library(self):
        text = k6_text(600)
        session = EvaluationSession()
        body = trace_payload(session, {"device": {"node": 55},
                                       "text": text})
        local = local_result(text)
        assert body["energy_j"] == local.energy
        assert body["duration_s"] == local.duration
        expected_counts = {command.value: count
                           for command, count in local.counts.items()}
        assert body["counts"] == expected_counts
        assert body["row_conflicts"] == local.row_conflicts

    def test_stream_emits_snapshots_then_done(self):
        text = k6_text(2000)  # expands past one snapshot segment
        session = EvaluationSession()
        records = list(trace_stream_payload(session, {
            "device": {"node": 55},
            "text": text,
            "snapshot_every": MIN_SNAPSHOT_EVERY,
        }))
        assert records, "stream produced nothing"
        assert records[-1].get("done") is True
        snapshots = [r for r in records if "snapshot" in r]
        assert snapshots, "no incremental snapshots emitted"
        counts = [r["snapshot"]["commands"] for r in snapshots]
        assert counts == sorted(counts)
        assert records[-1]["count"] >= counts[-1]

    def test_malformed_line_becomes_error_record(self):
        session = EvaluationSession()
        records = list(trace_stream_payload(session, {
            "device": {"node": 55},
            "text": "0x0 READ 0\n0x10 BOGUS 5\n",
        }))
        assert "error" in records[-1]
        assert "BOGUS" in records[-1]["error"]
        assert records[-1]["status"] == 400


class TestJsonMode:
    def test_buffered_over_http(self, client):
        text = k6_text(400)
        body = client.request("POST", "/trace",
                              {"device": {"node": 55}, "text": text})
        local = local_result(text)
        assert body["energy_j"] == local.energy
        assert body["row_hits"] == local.row_hits
        assert body["counts"]["ref"] == 1

    @pytest.mark.parametrize("line, clock", [
        ("0x40 P_MEM_RD 1" + "0" * 400, 1e9),
        ("0x40 P_MEM_RD 10000000000", 1e-300)],
        ids=["cycle-overflow", "tiny-clock"])
    def test_non_finite_time_is_400(self, client, line, clock):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/trace", {
                "device": {"node": 55}, "clock": clock,
                "text": "0x0 P_MEM_RD 1\n" + line + "\n"})
        assert excinfo.value.status == 400
        assert "2: cycle stamp gives no finite time" in str(
            excinfo.value)

    def test_missing_text_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.request("POST", "/trace",
                           {"device": {"node": 55}})
        assert excinfo.value.status == 400


def batched_library_records(text, snapshot_every, node=55):
    """The records a columnar upload must stream: a library replay fed
    ``min(snapshot_every, LINES_PER_BATCH)`` lines at a time, with a
    snapshot after each full batch that crosses the cadence."""
    device = build_device(node)
    accumulator = TraceAccumulator(DramPowerModel(device), strict=False)
    replayer = ColumnarReplayer(accumulator, "k6",
                                AddressDecoder.from_device(device),
                                DEFAULT_CLOCK)
    batch_lines = min(snapshot_every, LINES_PER_BATCH)
    lines = text.splitlines()
    records, last_snap = [], 0
    for start in range(0, len(lines), batch_lines):
        batch = lines[start:start + batch_lines]
        replayer.feed_lines(batch)
        seen = accumulator.commands_seen
        if len(batch) == batch_lines and seen - last_snap \
                >= snapshot_every:
            records.append({"index": len(records),
                            "snapshot": trace_result_row(
                                accumulator.snapshot(), seen)})
            last_snap = seen
    records.append({"done": True, "count": accumulator.commands_seen,
                    "result": trace_result_row(
                        accumulator.result(),
                        accumulator.commands_seen)})
    return records


class TestRawMode:
    def test_gzipped_chunked_upload_matches_library(self, client):
        text = k6_text(2500)
        blob = gzip.compress(text.encode())
        local = local_result(text)
        # Three parse batches: on every backend the snapshot cadence
        # and every record are those of the batched library replay.
        expect = batched_library_records(text, MIN_SNAPSHOT_EVERY)
        for backend in ("serial", "vector", "auto"):
            records = list(client.trace_stream(
                blob, device={"node": 55},
                snapshot_every=MIN_SNAPSHOT_EVERY, backend=backend))
            assert records[-1].get("done") is True
            final = records[-1]["result"]
            assert final["energy_j"] == local.energy
            assert final["duration_s"] == local.duration
            assert final["row_conflicts"] == local.row_conflicts
            assert any("snapshot" in r for r in records)
            assert records == expect

    def test_wide_decoder_upload_matches_library(self):
        # A 70-bit rank field overflows the columnar kernel's int64
        # masks; the upload must price it like the scalar library.
        text = k6_text(300)
        request = parse_trace_query({"node": ["55"],
                                     "rank_bits": ["70"]})
        records = list(trace_stream_records(
            EvaluationSession(), request, [text.encode()]))
        device = build_device(55)
        decoder = AddressDecoder.from_device(device, rank_bits=70)
        accumulator = TraceAccumulator(DramPowerModel(device),
                                       strict=False)
        accumulator.feed(commands_from_records(
            iter_records(iter(text.splitlines()), "k6"), decoder))
        assert records[-1] == {
            "done": True, "count": accumulator.commands_seen,
            "result": trace_result_row(accumulator.result(),
                                       accumulator.commands_seen)}

    def test_plain_blob_equals_gzipped_blob(self, client):
        text = k6_text(300)
        plain = client.trace(text.encode(), device={"node": 55})
        packed = client.trace(gzip.compress(text.encode()),
                              device={"node": 55})
        assert plain == packed

    def test_file_path_upload(self, client, tmp_path):
        path = tmp_path / "upload.trc.gz"
        text = k6_text(300)
        path.write_bytes(gzip.compress(text.encode()))
        body = client.trace(path, device={"node": 55})
        assert body["energy_j"] == local_result(text).energy

    def test_unknown_query_key_is_400(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.trace(b"0x0 READ 0\n", device={"wat": 1})
        assert excinfo.value.status == 400

    def test_non_finite_time_is_an_in_band_error(self, client):
        records = list(client.trace_stream(
            b"0x0 P_MEM_RD 1\n0x40 P_MEM_RD 1" + b"0" * 400 + b"\n",
            device={"node": 55}))
        assert records[-1]["status"] == 400
        assert "<upload>:2: cycle stamp" in records[-1]["error"]

    def test_malformed_line_raises_from_trace(self, client):
        with pytest.raises(ServiceError, match="BOGUS"):
            client.trace(b"0x0 READ 0\n0x10 BOGUS 5\n",
                         device={"node": 55})

    @pytest.mark.parametrize("head, tail, verdict", [
        (b"18\r\n", b"\r\n0\r\n\r\n", "done"),
        (b"18;name=v\r\n", b"\r\n0\r\n\r\n", "done"),
        (b"0x18\r\n", b"\r\n0\r\n\r\n", 400),
        (b"+18\r\n", b"\r\n0\r\n\r\n", 400),
        (b"1_8\r\n", b"\r\n0\r\n\r\n", 400),
        (b"18\r\n", b"\r\n-0\r\n\r\n", 400),
        (b"18\r\n", b"ZZ0\r\n\r\n", 400),
        (b"-2\r\n18\r\n", b"\r\n0\r\n\r\n", 400),
    ], ids=["plain", "extension", "0x-prefix", "plus-sign",
            "underscore", "minus-zero-last", "no-crlf-after-data",
            "negative-size"])
    def test_chunk_framing_is_checked(self, service, head, tail,
                                      verdict):
        trace = b"0x0 P_MEM_RD 0\n0x4 RD 9\n"  # 0x18 bytes
        request = (b"POST /trace?node=55 HTTP/1.1\r\n"
                   b"Host: 127.0.0.1\r\n"
                   b"Transfer-Encoding: chunked\r\n\r\n")
        with socket.create_connection(
                ("127.0.0.1", service.server_port), timeout=30) as sock:
            sock.sendall(request + head + trace + tail)
            reply = b""
            while True:  # raw uploads always close the connection
                data = sock.recv(65536)
                if not data:
                    break
                reply += data
        _, _, body = reply.partition(b"\r\n\r\n")
        records = []
        while body:
            size_line, _, body = body.partition(b"\r\n")
            size = int(size_line, 16)
            if not size:
                break
            records.append(json.loads(body[:size]))
            body = body[size + 2:]
        last = records[-1]
        if verdict == "done":
            assert last.get("done") is True, last
        else:
            assert last.get("status") == verdict, last


# ----------------------------------------------------------------------
# Concurrent snapshots during an active feed.
# ----------------------------------------------------------------------
class TestConcurrentSnapshot:
    """``snapshot()`` racing ``feed()`` must stay internally
    consistent: every observed aggregate is a valid point-in-time
    view (monotone command count, non-negative monotone energy), and
    the final snapshot still equals one-shot evaluation bit for bit.
    """

    def test_snapshot_during_feed_is_consistent(self):
        text = k6_text(4000)
        device = build_device(55)
        model = DramPowerModel(device)
        decoder = AddressDecoder.from_device(device)
        records = iter_records(iter(text.splitlines()), "k6")
        commands = list(commands_from_records(records, decoder,
                                              DEFAULT_CLOCK))
        accumulator = TraceAccumulator(model, strict=False)
        done = threading.Event()
        views = []
        errors = []

        def observer():
            try:
                while not done.is_set():
                    result = accumulator.snapshot()
                    views.append((result.counts, result.energy,
                                  result.duration))
            except Exception as exc:  # pragma: no cover - the bug
                errors.append(exc)

        watcher = threading.Thread(target=observer)
        watcher.start()
        for start in range(0, len(commands), 50):
            accumulator.feed(commands[start:start + 50])
        done.set()
        watcher.join(timeout=30)
        assert not watcher.is_alive()
        assert errors == []
        assert len(views) > 0
        seen = -1
        last_energy = -1.0
        for counts, energy, duration in views:
            total = sum(counts.values())
            assert total >= seen  # commands only accumulate
            seen = total
            assert energy >= 0.0 and duration >= 0.0
            assert energy >= last_energy  # components only add
            last_energy = energy
        # The race disturbed nothing: final equals one-shot.
        final = accumulator.result()
        alone = evaluate_trace(model, iter(commands), strict=False)
        assert final.energy == alone.energy
        assert final.counts == alone.counts

    def test_streamed_snapshots_are_monotone(self, client):
        """In-band snapshots of a streamed upload are consistent."""
        text = k6_text(2000)
        records = list(client.trace_stream(
            text.encode(), device={"node": 55},
            snapshot_every=MIN_SNAPSHOT_EVERY))
        snapshots = [r["snapshot"] for r in records
                     if "snapshot" in r]
        assert len(snapshots) >= 2
        previous_commands = -1
        previous_energy = -1.0
        for snap in snapshots:
            assert snap["commands"] > previous_commands
            assert snap["energy_j"] >= previous_energy
            previous_commands = snap["commands"]
            previous_energy = snap["energy_j"]
        final = records[-1]["result"]
        assert final["energy_j"] == local_result(text).energy


def _post(service, target, content_type, body):
    """One POST on a raw socket: ``(status code, body bytes)``."""
    with socket.create_connection(
            ("127.0.0.1", service.server_port), timeout=30) as sock:
        sock.sendall(b"POST %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                     b"Content-Type: %s\r\nContent-Length: %d\r\n"
                     b"Connection: close\r\n\r\n"
                     % (target, content_type, len(body)) + body)
        reply = b""
        while True:
            data = sock.recv(65536)
            if not data:
                break
            reply += data
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), payload


class TestStrictRefused:
    """Record traces replay leniently: a true ``strict`` is a 400 with
    the shared reason before any byte is folded, in every request
    shape, never a 200 stream that ends in an in-band error; a false
    one is accepted and does nothing."""

    TWO_LINES = b"0x40 P_MEM_RD 100\n0x1040 P_MEM_WR 200000\n"

    def test_raw_upload_is_400(self, service):
        status, body = _post(service, b"/trace?node=55&strict=1",
                             b"text/plain", self.TWO_LINES)
        assert status == 400
        assert json.loads(body)["error"] == STRICT_REFUSAL

    @pytest.mark.parametrize("stream", [False, True],
                             ids=["buffered", "stream"])
    def test_json_is_400(self, service, stream):
        payload = {"device": {"node": 55}, "strict": True,
                   "text": self.TWO_LINES.decode(), "stream": stream}
        status, body = _post(service, b"/trace", b"application/json",
                             json.dumps(payload).encode())
        assert status == 400
        assert json.loads(body)["error"] == STRICT_REFUSAL

    def test_false_is_accepted(self, client):
        text = k6_text(300)
        expected = local_result(text).energy
        body = client.request("POST", "/trace", {
            "device": {"node": 55}, "text": text, "strict": False})
        assert body["energy_j"] == expected
        # An older client's ``strict=0`` rides in the query string.
        final = client.trace(text.encode(),
                             device={"node": 55, "strict": 0})
        assert final["energy_j"] == expected

    def test_query_values(self):
        for value in ("1", "true", "on"):
            with pytest.raises(ServiceError) as excinfo:
                parse_trace_query({"strict": [value]})
            assert str(excinfo.value) == STRICT_REFUSAL
        for value in ("0", "false", "off", ""):
            parse_trace_query({"strict": [value]})

    #: ``strict`` value -> the one verdict of every surface: accepted
    #: (``None``) or the 400's message.
    VERDICTS = [(True, STRICT_REFUSAL), (False, None),
                ("true", STRICT_REFUSAL), ("false", None), ("0", None),
                ("maybe", "'strict' must be a boolean"),
                (0, "'strict' must be a boolean"),
                (1, "'strict' must be a boolean"),
                (None, "'strict' must be a boolean")]

    @pytest.mark.parametrize("value,verdict", VERDICTS,
                             ids=[repr(value) for value, _ in VERDICTS])
    def test_one_verdict_on_every_surface(self, service, tmp_path,
                                          value, verdict):
        """The query string (text only), JSON ``/trace`` and a
        ``trace`` job submit read ``strict`` alike."""
        def seen(status, body):
            return None if status == 200 else (status,
                                               json.loads(body)["error"])

        payload = {"device": {"node": 55}, "strict": value,
                   "text": self.TWO_LINES.decode()}
        surfaces = {"json": seen(*_post(service, b"/trace",
                                        b"application/json",
                                        json.dumps(payload).encode()))}
        if isinstance(value, str):
            surfaces["query"] = seen(*_post(
                service, b"/trace?node=55&strict=" + value.encode(),
                b"text/plain", self.TWO_LINES))
        path = tmp_path / "two.trc"
        path.write_bytes(self.TWO_LINES)
        try:
            parse_job_spec({"kind": "trace",
                            "params": {"path": str(path),
                                       "strict": value}})
            surfaces["job"] = None
        except ServiceError as exc:
            surfaces["job"] = (exc.status, str(exc))
        expected = None if verdict is None else (400, verdict)
        assert surfaces == dict.fromkeys(surfaces, expected)


class TestBackendSelection:
    """The ``backend`` knob: query/payload parsing and parity."""

    def test_query_accepts_stream_backends(self):
        for backend in ("auto", "serial", "vector"):
            request = parse_trace_query({"backend": [backend]})
            assert request.backend == backend

    def test_query_rejects_process_backend(self):
        # ``process`` is no backend: the engine's unknown-backend
        # error, like any other name.
        with pytest.raises(ServiceError,
                           match="unknown backend 'process'"):
            parse_trace_query({"backend": ["process"]})

    def test_query_rejects_unknown_backend(self):
        with pytest.raises(ServiceError, match="quantum"):
            parse_trace_query({"backend": ["quantum"]})

    def test_strict_vector_matches_serial(self):
        """A strict request is refused the same on every backend."""
        session = EvaluationSession()
        for backend in ("serial", "vector"):
            with pytest.raises(ServiceError) as excinfo:
                trace_payload(session, {
                    "device": {"node": 55}, "text": k6_text(50),
                    "strict": True, "backend": backend})
            assert (str(excinfo.value), excinfo.value.status) \
                == (STRICT_REFUSAL, 400)

    def test_payload_backend_parsing(self):
        request, _ = parse_trace_payload({
            "device": {"node": 55}, "text": "0x0 READ 0",
            "backend": "serial"})
        assert request.backend == "serial"
        with pytest.raises(ServiceError, match="backend"):
            parse_trace_payload({"device": {"node": 55},
                                 "text": "0x0 READ 0",
                                 "backend": 7})
        with pytest.raises(ServiceError,
                           match="unknown backend 'process'"):
            parse_trace_payload({"device": {"node": 55},
                                 "text": "0x0 READ 0",
                                 "backend": "process"})

    def test_serial_backend_matches_default(self):
        """Forcing serial must price identically to the default
        (columnar when numpy is present) path — the endpoint parity
        contract extends across backends."""
        text = k6_text(1500)
        session = EvaluationSession()
        default = trace_payload(session, {"device": {"node": 55},
                                          "text": text})
        forced = trace_payload(session, {"device": {"node": 55},
                                         "text": text,
                                         "backend": "serial"})
        assert forced == default

    def test_serial_stream_over_http(self, client):
        text = k6_text(1200)
        records = list(client.trace_stream(
            text.encode(), device={"node": 55},
            snapshot_every=MIN_SNAPSHOT_EVERY, backend="serial"))
        assert records[-1].get("done") is True
        assert records[-1]["result"]["energy_j"] \
            == local_result(text).energy


class TestOneBackendVocabulary:
    """Sweeps, file replays and uploads name their backend from one
    tuple, ``repro.engine.BACKENDS``: an unknown name is refused with
    one message on every surface, and both CLI ``--backend`` flags
    offer the same choices."""

    MESSAGE = ("unknown backend 'quantum'; choose from "
               + "/".join(BACKENDS))

    def test_unknown_name_gets_one_message(self, service, tmp_path):
        path = tmp_path / "t.trc"
        path.write_text(k6_text(20))
        model = DramPowerModel(build_device(55))
        messages = {}
        with pytest.raises(ModelError) as excinfo:
            EvaluationSession().map([model.device], len,
                                    backend="quantum")
        messages["EvaluationSession.map"] = str(excinfo.value)
        with pytest.raises(ModelError) as excinfo:
            replay_trace_file(model, path, backend="quantum")
        messages["replay_trace_file"] = str(excinfo.value)
        posts = {
            "/sweep": (b"/sweep", b"application/json", json.dumps(
                {"kind": "sensitivity", "backend": "quantum"})),
            "/trace query": (b"/trace?node=55&backend=quantum",
                             b"text/plain", "0x0 READ 0\n"),
            "/trace JSON": (b"/trace", b"application/json", json.dumps(
                {"device": {"node": 55}, "text": "0x0 READ 0",
                 "backend": "quantum"})),
        }
        for name, (target, content_type, body) in posts.items():
            status, reply = _post(service, target, content_type,
                                  body.encode())
            assert status == 400, name
            messages[name] = json.loads(reply)["error"]
        with pytest.raises(ServiceError) as excinfo:
            parse_job_spec({"kind": "montecarlo",
                            "params": {"samples": 4,
                                       "backend": "quantum"}})
        assert excinfo.value.status == 400
        messages["montecarlo job"] = str(excinfo.value)
        assert messages == dict.fromkeys(messages, self.MESSAGE)

    def test_cli_flags_offer_the_same_choices(self, capsys):
        refusals = []
        for command in ("sensitivity", "trace"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    [command, "--backend", "quantum"])
            refusals.append(
                capsys.readouterr().err.rpartition("error: ")[2])
        assert refusals[0] == refusals[1]
        assert all(name in refusals[0] for name in BACKENDS)
