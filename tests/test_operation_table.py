"""One operation table, three reply modes: buffered, stream, job.

Every ``/evaluate`` and ``/sweep`` operation is defined once in
``repro.service.jsonapi``; the buffered reply, the NDJSON stream and
the durable job only differ in how often they call its ``rows``.  The
parity table below checks that they agree row for row, that every
mode refuses the same malformed parameters before any work starts,
and the ``/trace`` paths that share the stream framer.
"""

import json
import threading

import pytest

from repro.analysis.sensitivity import PARAMETERS
from repro.client import NO_RETRY, ServiceClient
from repro.engine import EvaluationSession
from repro.errors import ServiceError
from repro.jobs import JobSpec, parse_job_spec, plan_job
from repro.schemes import ALL_SCHEMES
from repro.service import create_service
from repro.service.jsonapi import evaluate_payload, sweep_payload
from repro.service.streaming import evaluate_stream, sweep_stream
from repro.service.tracing import (MAX_DECODER_BITS, decoder_params,
                                   parse_trace_payload, parse_trace_query)

#: name -> (job kind, payload).  Serial backend throughout: ``auto``
#: may fold a whole buffered family through the vector kernel, which
#: differs from per-unit scalar evaluation at ~1e-15.
CASES = {
    "evaluate": ("evaluate", {
        "devices": [{}, {"node": 44}, {"node": 65, "io_width": 8}],
        "pattern": "rd nop nop nop"}),
    "sensitivity": ("sweep", {"kind": "sensitivity", "device": {},
                              "variation": 0.1, "backend": "serial"}),
    "corners": ("sweep", {"kind": "corners", "device": {},
                          "vendor": True, "backend": "serial"}),
    "trends": ("sweep", {"kind": "trends", "nodes": [90, 55, 44],
                         "io_width": 8, "backend": "serial"}),
    "schemes": ("sweep", {"kind": "schemes", "device": {"node": 44},
                          "backend": "serial"}),
}

#: Kinds whose buffered reply the analysis sorts (by impact, by
#: saving); streams and jobs emit unit order.  Row key -> unit order.
UNIT_ORDER = {
    "sensitivity": ("name", [p.name for p in PARAMETERS]),
    "schemes": ("scheme", [s.name for s in ALL_SCHEMES]),
}


def _buffered(kind, payload):
    session = EvaluationSession()
    if kind == "evaluate":
        return evaluate_payload(session, dict(payload))["results"]
    return sweep_payload(session, dict(payload))["rows"]


def _streamed(kind, payload):
    session = EvaluationSession()
    stream = evaluate_stream if kind == "evaluate" else sweep_stream
    records = list(stream(session, dict(payload, stream=True)))
    assert records[-1] == {"done": True, "count": len(records) - 1}
    assert [r["index"] for r in records[:-1]] == \
        list(range(len(records) - 1))
    key = "result" if kind == "evaluate" else "row"
    return [record[key] for record in records[:-1]]


def _job(kind, payload, chunk_size):
    plan = plan_job(JobSpec(kind, payload, chunk_size),
                    EvaluationSession())
    # Chunks round-trip through the journal as JSON.
    chunks = {index: json.loads(json.dumps(plan.run_chunk(index)))
              for index in range(plan.chunk_count)}
    result = plan.assemble(chunks)
    rows = result["results" if kind == "evaluate" else "rows"]
    assert result["count"] == len(rows)
    return plan.chunk_count, rows


MODES = {
    "stream": _streamed,
    "job-chunk-1": lambda kind, payload: _job(kind, payload, 1)[1],
    "job-one-chunk": lambda kind, payload: _job(kind, payload, 1000)[1],
}


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_mode_matches_buffered(name, mode):
    kind, payload = CASES[name]
    expected = _buffered(kind, payload)
    if name in UNIT_ORDER:
        key, order = UNIT_ORDER[name]
        assert len(expected) == len(order)
        expected = sorted(expected, key=lambda row: order.index(row[key]))
    assert MODES[mode](kind, payload) == expected


def test_job_chunking_follows_the_units():
    assert _job("sweep", CASES["trends"][1], 1)[0] == 3
    assert _job("sweep", CASES["corners"][1], 1)[0] == 1
    assert _job(*CASES["evaluate"], 2)[0] == 2
    assert _job("sweep", CASES["sensitivity"][1], 1000)[0] == 1


# ----------------------------------------------------------------------
# Eager validation: every mode refuses before any model is built.
# ----------------------------------------------------------------------
BAD_SWEEPS = {
    "variation-out-of-range": {"kind": "sensitivity", "variation": 2.0},
    "variation-text": {"kind": "sensitivity", "variation": "abc"},
    "variation-bool": {"kind": "sensitivity", "variation": True},
    "io_width-text": {"kind": "trends", "io_width": "x"},
    "nodes-empty": {"kind": "trends", "nodes": []},
    "nodes-text": {"kind": "trends", "nodes": "55"},
    "vendor-text": {"kind": "corners", "vendor": "false"},
    "vendor-int": {"kind": "corners", "vendor": 0},
    "backend-unknown": {"kind": "schemes", "backend": "bogus"},
    "backend-thread": {"kind": "schemes", "backend": "thread"},
    "backend-process": {"kind": "schemes", "backend": "process"},
    "device-unknown-key": {"kind": "schemes", "device": {"nope": 1}},
}


def _refused(call):
    session = EvaluationSession()
    with pytest.raises(ServiceError) as caught:
        call(session)
    assert caught.value.status == 400
    assert session.stats.size == 0, "work started before the 400"
    return str(caught.value)


@pytest.mark.parametrize("case", sorted(BAD_SWEEPS))
def test_every_mode_refuses_bad_sweep_parameters(case):
    payload = BAD_SWEEPS[case]
    messages = {
        _refused(lambda s: sweep_payload(s, dict(payload))),
        _refused(lambda s: sweep_stream(s, dict(payload, stream=True))),
        _refused(lambda s: parse_job_spec({"kind": "sweep",
                                           "params": payload})),
    }
    assert len(messages) == 1, messages


def test_stream_refusal_is_a_plain_400_over_http():
    svc = create_service(host="127.0.0.1", port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{svc.server_port}")
        with pytest.raises(ServiceError) as caught:
            client.sweep_stream("sensitivity", variation=2.0)
        assert caught.value.status == 400
        client.close()
    finally:
        svc.shutdown()
        svc.server_close()
        thread.join(timeout=5)


# ----------------------------------------------------------------------
# /trace: one decoder parser, one framer.
# ----------------------------------------------------------------------
BAD_DECODERS = {
    "rank_bits-fraction": {"rank_bits": 2.5},
    "channel_bits-negative": {"channel_bits": -1},
    "offset_bits-negative": {"offset_bits": -2},
    "rank_bits-bool": {"rank_bits": True},
    "channel_bits-fraction-text": {"channel_bits": "1.5"},
    "policy-unknown": {"policy": "diagonal"},
    "rank_bits-129": {"rank_bits": MAX_DECODER_BITS + 1},
    "offset_bits-1e9": {"offset_bits": 10**9},
}


def _decoder_fronts(tmp_path):
    """Every reader of a decoder: the parser itself, JSON ``/trace``,
    the ``/trace`` query string and a ``trace`` job submit."""
    path = tmp_path / "t.trc"
    path.write_text("0x0 READ 0\n")
    return (
        decoder_params,
        lambda decoder: parse_trace_payload(
            {"device": {}, "text": "0x0 READ 0", "decoder": decoder}),
        lambda decoder: parse_trace_query(
            {key: [str(value)] for key, value in decoder.items()}),
        lambda decoder: parse_job_spec(
            {"kind": "trace", "params": {"path": str(path),
                                         "decoder": decoder}}),
    )


@pytest.mark.parametrize("case", sorted(BAD_DECODERS))
def test_decoder_parameters_are_refused_everywhere(case, tmp_path):
    decoder = BAD_DECODERS[case]
    for parse in _decoder_fronts(tmp_path):
        with pytest.raises(ServiceError) as caught:
            parse(decoder)
        assert caught.value.status == 400
        assert any(key in str(caught.value) for key in decoder)


def test_decoder_takes_the_widest_fields_everywhere(tmp_path):
    widest = {"channel_bits": MAX_DECODER_BITS,
              "rank_bits": MAX_DECODER_BITS,
              "offset_bits": MAX_DECODER_BITS}
    for parse in _decoder_fronts(tmp_path):
        parse(widest)


def test_decoder_parser_reads_query_text():
    assert decoder_params({"policy": "bank-row-column",
                           "channel_bits": "1", "offset_bits": 3}) \
        == {"policy": "bank-row-column", "channel_bits": 1,
            "offset_bits": 3}
    request, _ = parse_trace_payload({"device": {}, "text": "0x0 READ 0",
                                      "decoder": {"rank_bits": 2}})
    assert (request.rank_bits, request.channel_bits) == (2, 0)


def test_buffered_trace_timeout_is_counted():
    lines = "".join(f"0x{(i * 64) % (1 << 22):X} P_MEM_RD {i * 16}\n"
                    for i in range(60_000))
    payload = {"device": {"node": 55}, "text": lines,
               "backend": "serial"}
    svc = create_service(host="127.0.0.1", port=0)
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{svc.server_port}",
                               retry=NO_RETRY, breaker=None)
        # Warm the model so the budget runs out inside the fold.
        client.request("POST", "/trace", dict(payload, text="0x0 READ 0"))
        with pytest.raises(ServiceError) as caught:
            client.request("POST", "/trace", payload,
                           request_timeout=0.05)
        assert caught.value.status == 504
        assert client.stats()["timeouts"] == 1
        client.close()
    finally:
        svc.shutdown()
        svc.server_close()
        thread.join(timeout=5)
