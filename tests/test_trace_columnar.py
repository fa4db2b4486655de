"""Columnar kernel and backend-choice tests.

The columnar fast path is held to one standard: every observable —
energies, counts, durations, even error messages with their global
line numbers — must be bit-identical to the scalar pipeline, across
formats, decode policies, shard geometries and batch boundaries.
"""

import importlib.util
import inspect
import json
import sys

import pytest

from repro import DramPowerModel
from repro.cli import main
from repro.client import ServiceClient
from repro.core.trace import TraceAccumulator, TraceError
from repro.devices import build_device
from repro.engine import numpy_available
from repro.errors import ModelError
from repro.trace import (DEFAULT_CLOCK, STRICT_REFUSAL, AddressDecoder,
                         ColumnarReplayer, TraceFormatError,
                         commands_from_records, evaluate_trace_file,
                         iter_records, parse_columns,
                         replay_lines_columnar, replay_trace_file)

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not installed")


def _lcg(state):
    return (state * 1103515245 + 12345) & 0x7FFFFFFF


def make_lines(fmt, count, address_bits=26, with_refresh=True,
               seed=7):
    """Deterministic trace lines exercising the full address width."""
    lines = []
    state = seed
    mask = (1 << address_bits) - 1
    for i in range(count):
        state = _lcg(state)
        address = (state * 2654435761) & mask
        cycle = i * 4
        if with_refresh and i % 97 == 96:
            op, kind = "REF", "refresh"
        elif state % 3 == 0:
            op, kind = "P_MEM_WR", "write"
        else:
            op, kind = "P_MEM_RD", "read"
        if fmt == "k6":
            lines.append(f"0x{address:x} {op} {cycle}")
        elif fmt == "mase":
            mase_op = {"refresh": "REF", "write": "WRITE",
                       "read": "IFETCH"}[kind]
            lines.append(f"0x{address:x} {mase_op} {cycle}")
        else:
            lines.append(json.dumps({"addr": address, "op": op,
                                     "cycle": cycle}))
    return lines


def _fingerprint(accumulator):
    result = accumulator.result()
    return (result.energy, result.duration, result.counts,
            result.row_hits, result.row_misses, result.row_conflicts,
            result.data_bits, result.breakdown.values,
            accumulator.commands_seen)


def _serial_fingerprint(model, records, decoder):
    accumulator = TraceAccumulator(model, strict=False)
    accumulator.feed(commands_from_records(records, decoder))
    return _fingerprint(accumulator)


def _batches(lines, size):
    """``lines`` cut into consecutive line batches of ``size``."""
    return [lines[start:start + size]
            for start in range(0, len(lines), size)]


@needs_numpy
class TestColumnarParity:
    """vector == serial, bit for bit, across the whole matrix."""

    @pytest.mark.parametrize("fmt", ["k6", "mase", "jsonl"])
    @pytest.mark.parametrize("policy", ["row-bank-column",
                                        "bank-row-column"])
    def test_formats_and_policies(self, fmt, policy, tmp_path):
        device = build_device(55)
        model = DramPowerModel(device)
        decoder = AddressDecoder.from_device(device, policy=policy,
                                             channel_bits=1,
                                             rank_bits=1)
        lines = make_lines(fmt, 3000,
                           address_bits=decoder.address_bits)
        path = tmp_path / f"t.{fmt}.trc"
        path.write_text("\n".join(lines) + "\n")
        serial = evaluate_trace_file(model, path, fmt=fmt,
                                     decoder=decoder,
                                     backend="serial")
        for backend in ("vector", "auto"):
            result = evaluate_trace_file(model, path, fmt=fmt,
                                         decoder=decoder,
                                         backend=backend)
            assert result.energy == serial.energy
            assert result.duration == serial.duration
            assert result.counts == serial.counts
            assert result.row_hits == serial.row_hits
            assert result.breakdown.values == serial.breakdown.values

    def test_batch_boundaries_carry_open_rows(self, ddr3_model):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        lines = make_lines("k6", 500)
        records = list(iter_records(iter(lines), "k6"))
        expect = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        for batch_lines in (1, 3, 17, 499, 10_000):
            accumulator = TraceAccumulator(ddr3_model, strict=False)
            replay_lines_columnar(accumulator,
                                  _batches(lines, batch_lines), "k6",
                                  decoder, DEFAULT_CLOCK)
            assert _fingerprint(accumulator) == expect

    def test_comments_blanks_and_case_match_scalar(self, ddr3_model):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        lines = ["# header", "", "0x100 read 1", "; note",
                 "0x200 Wr 2", "0x100 P_MEM_RD 3", "  ", "0x0 REF 9",
                 "0x300 rd 11"]
        records = list(iter_records(iter(lines), "k6"))
        expect = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        replay_lines_columnar(accumulator, [lines], "k6", decoder,
                              DEFAULT_CLOCK)
        assert _fingerprint(accumulator) == expect

    def test_oversize_addresses_fall_back_exactly(self, ddr3_model):
        # 1 << 70 cannot live in an int64 array: the batch must drop
        # to the scalar fold, splicing the open-row register exactly.
        decoder = AddressDecoder.from_device(ddr3_model.device)
        lines = make_lines("k6", 50)
        lines.insert(25, f"0x{1 << 70:x} READ 99")
        records = list(iter_records(iter(lines), "k6"))
        expect = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        replay_lines_columnar(accumulator, _batches(lines, 10), "k6",
                              decoder, DEFAULT_CLOCK)
        assert _fingerprint(accumulator) == expect


@needs_numpy
class TestErrorParity:
    """The fast path must raise the scalar path's exact errors."""

    def _error_of(self, model, path, fmt, backend):
        decoder = AddressDecoder.from_device(model.device)
        with pytest.raises(TraceFormatError) as excinfo:
            evaluate_trace_file(model, path, fmt=fmt, decoder=decoder,
                                backend=backend)
        return str(excinfo.value), excinfo.value.line

    @pytest.mark.parametrize("bad_line", [
        "0x10 BOGUS 5",          # unknown op
        "0x10 READ",             # wrong arity
        "zz READ 5",             # bad address
        "0x10 READ -5",          # negative cycle
        "0x10 READ nope",        # bad cycle
    ])
    def test_malformed_lines(self, ddr3_model, tmp_path, bad_line):
        lines = make_lines("k6", 40)
        lines.insert(20, bad_line)
        path = tmp_path / "bad.trc"
        path.write_text("\n".join(lines) + "\n")
        serial = self._error_of(ddr3_model, path, "k6", "serial")
        vector = self._error_of(ddr3_model, path, "k6", "vector")
        assert vector == serial
        assert serial[1] == 21  # the global line number, not batch

    def test_blank_plus_six_token_line_goes_scalar(self):
        # A blank line next to a double line keeps the flat token
        # count at 4n-1 but shifts payload into the sentinel slots —
        # the arity check must catch it and the scalar parser must
        # raise its usual error.
        lines = ["0x10 READ 1", "",
                 "0x20 READ 2 0x30 READ 3"]
        with pytest.raises(TraceFormatError) as excinfo:
            parse_columns(lines, "k6", source="t.trc")
        assert "t.trc:3" in str(excinfo.value)

    def test_parse_columns_matches_scalar_records(self):
        lines = make_lines("k6", 200)
        columns = parse_columns(lines, "k6")
        records = list(iter_records(iter(lines), "k6"))
        assert list(columns.addresses) == [r.address for r in records]
        assert list(columns.cycles) == [r.cycle for r in records]
        kinds = {0: "read", 1: "write", 2: "refresh"}
        assert ([kinds[int(code)] for code in columns.kinds]
                == [r.kind for r in records])


class TestStrictRejection:
    """Record traces carry no command timing: every record-replay
    entry point is lenient, and the batch replayer refuses a strict
    accumulator with the one shared reason."""

    @pytest.mark.parametrize("backend", ["auto", "vector"])
    def test_strict_error_matches_serial(self, ddr3_model, backend):
        """The replayer refuses a strict accumulator with the shared
        reason, the same on every backend."""
        decoder = AddressDecoder.from_device(ddr3_model.device)
        errors = []
        for name in ("serial", backend):
            with pytest.raises(TraceError) as excinfo:
                ColumnarReplayer(
                    TraceAccumulator(ddr3_model, strict=True), "k6",
                    decoder, DEFAULT_CLOCK, backend=name)
            errors.append(str(excinfo.value))
        assert errors == [STRICT_REFUSAL, STRICT_REFUSAL]

    def test_entry_points_take_no_strict(self):
        for function in (replay_trace_file, evaluate_trace_file,
                         ServiceClient.trace_stream):
            assert "strict" not in inspect.signature(
                function).parameters, function.__name__

    def test_unknown_backend_rejected(self, ddr3_model, tmp_path):
        path = tmp_path / "s.trc"
        path.write_text("0x100 READ 1\n")
        with pytest.raises(ModelError,
                           match="unknown backend 'quantum'"):
            evaluate_trace_file(ddr3_model, path, backend="quantum")


class TestBackendChoice:
    """``replay_trace_file`` reports the backend that folded."""

    def _used(self, model, tmp_path, backend, **decoder):
        path = tmp_path / "t.trc"
        path.write_text("\n".join(make_lines("k6", 200)) + "\n")
        decoder = AddressDecoder.from_device(model.device, **decoder)
        accumulator, used = replay_trace_file(model, path,
                                              decoder=decoder,
                                              backend=backend)
        return _fingerprint(accumulator), used

    def test_serial_means_serial(self, ddr3_model, tmp_path):
        assert self._used(ddr3_model, tmp_path, "serial")[1] == "serial"

    @needs_numpy
    def test_numpy_means_vector(self, ddr3_model, tmp_path):
        for backend in ("auto", "vector"):
            assert self._used(ddr3_model, tmp_path,
                              backend)[1] == "vector"

    def test_wide_decoder_reports_serial(self, ddr3_model, tmp_path,
                                         capsys):
        """A decoder too wide for int64 masks folds every batch
        scalar, so every backend reports ``serial`` (the CLI too) and
        prices what the serial oracle prices."""
        serial = self._used(ddr3_model, tmp_path, "serial",
                            rank_bits=70)
        for backend in ("auto", "vector"):
            assert self._used(ddr3_model, tmp_path, backend,
                              rank_bits=70) == serial
            assert main(["trace", str(tmp_path / "t.trc"),
                         "--rank-bits", "70",
                         "--backend", backend]) == 0
            assert "backend       : serial\n" in capsys.readouterr().out


def _import_columnar_without_numpy(monkeypatch):
    """A fresh repro.trace.columnar instance with numpy blocked."""
    import repro.trace.columnar as real
    monkeypatch.setitem(sys.modules, "numpy", None)
    spec = importlib.util.spec_from_file_location(
        "repro.trace.columnar", real.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestNoNumpyDegradation:
    """Without numpy every columnar entry point degrades to scalar,
    reports ``serial``, and changes no results."""

    @pytest.mark.parametrize("backend", ["auto", "vector"])
    def test_file_replay_degrades_serially(self, ddr3_model,
                                           monkeypatch, tmp_path,
                                           backend):
        lines = make_lines("k6", 300)
        path = tmp_path / "t.trc"
        path.write_text("\n".join(lines) + "\n")
        decoder = AddressDecoder.from_device(ddr3_model.device)
        expect = _serial_fingerprint(
            ddr3_model, iter_records(iter(lines), "k6"), decoder)
        stub = _import_columnar_without_numpy(monkeypatch)
        # ingest imports the columnar module lazily, so installing
        # the numpy-free instance reroutes the columnar backends.
        monkeypatch.setitem(sys.modules, "repro.trace.columnar", stub)
        accumulator, used = replay_trace_file(
            ddr3_model, path, decoder=decoder, backend=backend)
        assert used == "serial"
        assert _fingerprint(accumulator) == expect

    def test_stub_replayer_folds_scalar(self, ddr3_model,
                                        monkeypatch):
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             channel_bits=1)
        lines = make_lines("k6", 300, address_bits=decoder.address_bits)
        records = list(iter_records(iter(lines), "k6"))
        expect = _serial_fingerprint(ddr3_model, iter(records),
                                     decoder)
        stub = _import_columnar_without_numpy(monkeypatch)
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        replayer = stub.replay_lines_columnar(
            accumulator, _batches(lines, 64), "k6", decoder,
            DEFAULT_CLOCK)
        assert replayer.columnar is False
        assert _fingerprint(accumulator) == expect
