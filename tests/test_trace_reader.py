"""The one byte → line reader behind trace files and uploads.

``iter_line_batches`` must split exactly like a universal-newline text
file whatever the chunking, and a file replay and an upload of the
same bytes must agree on records, line numbers and errors — including
a truncated gzip stream, which is a typed error on every path.
"""

import gzip
import io
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.devices import build_device
from repro.engine import EvaluationSession
from repro.service import tracing
from repro.service.tracing import (parse_trace_query,
                                   trace_result_row,
                                   trace_stream_records)
from repro import DramPowerModel
from repro.trace import (TraceFormatError, columnar, iter_line_batches,
                         replay_trace_file)

#: Byte pieces the generated streams are built from: ASCII, 2/3/4-byte
#: UTF-8 characters (split across chunks by the chunking below), every
#: line end, and bytes that are not valid UTF-8.
PIECES = [b"a", b"0x1F", b" ", "é".encode(), "€".encode(),
          "𝄞".encode(), b"\n", b"\r", b"\r\n", b"\xff", b"\xe2\x82"]


def text_file_lines(data):
    """The reference split: a universal-newline text file's lines."""
    handle = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                              errors="replace", newline=None)
    return [line[:-1] if line.endswith("\n") else line
            for line in handle]


def chunked(data, sizes):
    """``data`` cut into chunks cycling through ``sizes`` (0 → an
    empty chunk)."""
    chunks, start, turn = [], 0, 0
    while start < len(data):
        size = sizes[turn % len(sizes)]
        chunks.append(data[start:start + size])
        start += size
        turn += 1
    return chunks


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(PIECES), max_size=60),
       st.lists(st.integers(min_value=0, max_value=9), min_size=1,
                max_size=8).filter(any),
       st.integers(min_value=1, max_value=5))
def test_batches_match_text_file_split(pieces, sizes, batch_lines):
    data = b"".join(pieces)
    batches = list(iter_line_batches(chunked(data, sizes), batch_lines))
    assert [line for batch in batches for line in batch] \
        == text_file_lines(data)
    assert all(len(batch) == batch_lines for batch in batches[:-1])
    assert all(batches)


def test_crlf_split_across_blocks_is_one_line_end():
    blocks = [b"0x0 READ 0\r", b"\n0x40 READ 8\r", b"", b"\n"]
    assert list(iter_line_batches(blocks, 10)) \
        == [["0x0 READ 0", "0x40 READ 8"]]


def test_rejects_empty_batches():
    with pytest.raises(ValueError, match="batch_lines"):
        list(iter_line_batches([b"x\n"], 0))


def test_a_handed_out_batch_is_not_held_twice():
    # Blocks of 30 lines, batches of 100: while the consumer holds a
    # batch, the generator's own lists hold less than one batch.
    batches = iter_line_batches([b"x\n" * 30] * 10, 100)
    for batch in batches:
        held = sum(len(value) for value in
                   batches.gi_frame.f_locals.values()
                   if isinstance(value, list) and value is not batch)
        assert held < 100


# ----------------------------------------------------------------------
# File and upload parity.
# ----------------------------------------------------------------------
LINES = ["0x0 P_MEM_RD 0", "0x40 P_MEM_RD 8", "0x80000 P_MEM_WR 16",
         "# comment", "", "0x0 REF 24", "0x40 P_MEM_RD 32"]

ENDINGS = {
    "lf": ["\n"],
    "crlf": ["\r\n"],
    "cr": ["\r"],
    "mixed": ["\r\n", "\n", "\r"],
}


def trace_bytes(lines, ending):
    ends = ENDINGS[ending]
    return "".join(line + ends[i % len(ends)]
                   for i, line in enumerate(lines)).encode()


@pytest.fixture(scope="module")
def model():
    return DramPowerModel(build_device(55))


def upload(data, gzipped=False, backend="auto", chunks=None):
    """Records of a socket-free raw upload of ``data``."""
    request = parse_trace_query({"node": ["55"], "backend": [backend]})
    request.gzipped = gzipped
    if chunks is None:
        # Cut inside the first "\r\n" so the pair straddles two chunks.
        cut = data.find(b"\r\n") + 1 or len(data) // 2
        chunks = [data[:cut], data[cut:]]
    return list(trace_stream_records(EvaluationSession(), request,
                                     chunks))


def file_row(model, path, backend):
    accumulator, _ = replay_trace_file(model, path, fmt="k6",
                                       backend=backend)
    return trace_result_row(accumulator.result(),
                            accumulator.commands_seen)


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_file_and_upload_agree_on_records(ending, model, tmp_path):
    data = trace_bytes(LINES, ending)
    path = tmp_path / "t.trc"
    path.write_bytes(data)
    reference = file_row(model, path, "serial")
    assert reference["commands"] > len(LINES)
    assert file_row(model, path, "vector") == reference
    for backend in ("serial", "auto"):
        records = upload(data, backend=backend)
        assert records[-1]["result"] == reference


@pytest.mark.parametrize("ending", sorted(ENDINGS))
def test_file_and_upload_agree_on_error_lines(ending, model, tmp_path):
    lines = LINES[:2] + ["bad line here x"] + LINES[2:]
    data = trace_bytes(lines, ending)
    path = tmp_path / "bad.trc"
    path.write_bytes(data)
    for backend in ("serial", "vector"):
        with pytest.raises(TraceFormatError) as excinfo:
            replay_trace_file(model, path, fmt="k6", backend=backend)
        assert excinfo.value.line == 3
    for backend in ("serial", "auto"):
        record = upload(data, backend=backend)[-1]
        assert record["status"] == 400
        assert record["error"].startswith("<upload>:3: expected")


def test_error_past_a_batch_boundary(model, tmp_path, monkeypatch):
    """A malformed line just past the first line batch fails at its
    global line number with one text: file replay on every backend
    and an upload of the same bytes (``<upload>`` naming the source)."""
    batch = 1000
    monkeypatch.setattr(columnar, "LINES_PER_BATCH", batch)
    monkeypatch.setattr(tracing, "LINES_PER_BATCH", batch)
    lines = [f"0x{i * 0x40:X} P_MEM_RD {i}" for i in range(batch + 2)]
    lines[-1] = "0x10 BOGUS 5"
    data = trace_bytes(lines, "lf")
    path = tmp_path / "edge.trc"
    path.write_bytes(data)
    errors = set()
    for backend in ("serial", "vector"):
        with pytest.raises(TraceFormatError) as excinfo:
            replay_trace_file(model, path, fmt="k6", backend=backend)
        errors.add((excinfo.value.reason, excinfo.value.line))
    (reason, line), = errors
    assert line == batch + 2
    for backend in ("serial", "auto"):
        record = upload(data, backend=backend)[-1]
        assert record["status"] == 400
        assert record["error"] == f"<upload>:{line}: {reason}"


# ----------------------------------------------------------------------
# Truncated and corrupt gzip streams.
# ----------------------------------------------------------------------
def k6_blob(transactions=20_000):
    text = "".join(f"0x{(i * 0x9ADC0) % (1 << 26):X} P_MEM_RD {i}\n"
                   for i in range(transactions))
    return gzip.compress(text.encode(), mtime=0)


def truncated():
    blob = k6_blob()
    half = blob[:len(blob) // 2]
    partial = zlib.decompressobj(16 + zlib.MAX_WBITS).decompress(half)
    reached = partial.count(b"\n") + (not partial.endswith(b"\n"))
    return half, reached, "gzip stream truncated"


def trailing_garbage():
    blob = k6_blob(100)
    return blob + b"not gzip", 100, "corrupt gzip stream"


@pytest.mark.parametrize("make", [truncated, trailing_garbage])
def test_broken_gzip_is_a_typed_error_on_every_path(make, model,
                                                    tmp_path, capsys):
    data, line, message = make()
    path = tmp_path / "broken.trc.gz"
    path.write_bytes(data)
    for backend in ("serial", "vector"):
        with pytest.raises(TraceFormatError, match=message) as excinfo:
            replay_trace_file(model, path, backend=backend)
        assert excinfo.value.line == line
        assert excinfo.value.source == str(path)
    chunks = [data[i:i + 65536] for i in range(0, len(data), 65536)]
    for backend in ("serial", "auto"):
        records = upload(data, gzipped=True, backend=backend,
                         chunks=chunks)
        assert not any(record.get("done") for record in records)
        assert records[-1]["status"] == 400
        assert records[-1]["error"].startswith(f"<upload>:{line}: "
                                               f"{message}")
    assert main(["trace", str(path)]) != 0
    assert f"{path}:{line}: {message}" in capsys.readouterr().err
