"""Tests for trace-file parsers, address decoding and ingestion."""

import gzip
import itertools
import json
import tracemalloc

import pytest

from repro.core.trace import TraceAccumulator, evaluate_trace
from repro.description import Command
from repro.engine import numpy_available
from repro.trace import (AddressDecoder, ColumnarReplayer,
                         DecodedAddress, TraceFormatError, TraceRecord,
                         commands_from_records,
                         detect_format, evaluate_trace_file,
                         iter_decompressed, iter_jsonl, iter_k6,
                         iter_lines, iter_mase, iter_records,
                         read_trace, replay_trace_file)


class TestK6Parser:
    def test_parses_dramsim_ops(self):
        lines = [
            "0x7FF2C8A0 P_MEM_RD 186",
            "0x7FF2C8B0 P_FETCH 190",
            "0x7FF2C8C0 P_LOCK_RD 194",
            "0x7FF2C8D0 P_MEM_WR 200",
            "0x7FF2C8E0 P_LOCK_WR 204",
        ]
        records = list(iter_k6(lines))
        assert [r.kind for r in records] == [
            "read", "read", "read", "write", "write"]
        assert records[0].address == 0x7FF2C8A0
        assert records[0].cycle == 186
        assert records[0].line == 1

    def test_plain_and_refresh_ops(self):
        lines = ["0x100 READ 1", "0x200 WRITE 2", "0x0 REF 3"]
        kinds = [r.kind for r in iter_k6(lines)]
        assert kinds == ["read", "write", "refresh"]

    def test_comments_and_blanks_skipped(self):
        lines = ["# header", "", "; note", "// other", "0x10 READ 5"]
        records = list(iter_k6(lines))
        assert len(records) == 1
        assert records[0].line == 5

    def test_wrong_column_count(self):
        with pytest.raises(TraceFormatError) as excinfo:
            list(iter_k6(["0x10 READ"], source="t.trc"))
        assert excinfo.value.line == 1
        assert "t.trc:1:" in str(excinfo.value)

    def test_unknown_operation(self):
        lines = ["0x10 READ 1", "0x20 BOGUS 2"]
        with pytest.raises(TraceFormatError, match="BOGUS") as excinfo:
            list(iter_k6(lines))
        assert excinfo.value.line == 2

    def test_bad_address_and_cycle(self):
        with pytest.raises(TraceFormatError, match="address"):
            list(iter_k6(["zz READ 1"]))
        with pytest.raises(TraceFormatError, match="cycle"):
            list(iter_k6(["0x10 READ x9"]))


class TestMaseParser:
    def test_ifetch_reads(self):
        lines = ["0x2971CFA0 IFETCH 62", "0x100 WRITE 70"]
        records = list(iter_mase(lines))
        assert [r.kind for r in records] == ["read", "write"]

    def test_rejects_k6_vocabulary(self):
        with pytest.raises(TraceFormatError, match="P_MEM_RD"):
            list(iter_mase(["0x10 P_MEM_RD 1"]))


class TestJsonlParser:
    def test_parses_objects(self):
        lines = [
            json.dumps({"address": "0x100", "op": "read", "cycle": 4}),
            json.dumps({"addr": 512, "kind": "write", "time": 9}),
        ]
        records = list(iter_jsonl(lines))
        assert records[0] == TraceRecord(0x100, "read", 4, line=1)
        assert records[1] == TraceRecord(512, "write", 9, line=2)

    def test_missing_fields(self):
        with pytest.raises(TraceFormatError, match="address"):
            list(iter_jsonl(['{"op": "read", "cycle": 1}']))
        with pytest.raises(TraceFormatError, match="cycle"):
            list(iter_jsonl(['{"address": 16, "op": "read"}']))

    def test_invalid_json(self):
        with pytest.raises(TraceFormatError, match="JSON") as excinfo:
            list(iter_jsonl(["not json"]))
        assert excinfo.value.line == 1


class TestFormatDispatch:
    def test_detects_each_format(self):
        assert detect_format('{"address": 1}') == "jsonl"
        assert detect_format("0x10 IFETCH 3") == "mase"
        assert detect_format("0x10 P_MEM_RD 3") == "k6"

    def test_unknown_format_name(self):
        with pytest.raises(TraceFormatError, match="unknown trace"):
            iter_records([], "xml")


class TestByteStreams:
    def test_iter_lines_reassembles_split_chunks(self):
        text = "0x10 READ 1\n0x20 WRITE 2\n0x30 READ 3"
        blob = text.encode()
        chunks = [blob[i:i + 5] for i in range(0, len(blob), 5)]
        assert list(iter_lines(chunks)) == text.split("\n")

    def test_iter_decompressed_round_trip(self):
        payload = b"0x10 READ 1\n" * 500
        blob = gzip.compress(payload)
        chunks = [blob[i:i + 7] for i in range(0, len(blob), 7)]
        assert b"".join(iter_decompressed(chunks)) == payload

    def test_iter_decompressed_multi_member(self):
        blob = gzip.compress(b"0x10 READ 1\n") \
            + gzip.compress(b"0x20 WRITE 2\n")
        joined = b"".join(iter_decompressed([blob]))
        assert joined == b"0x10 READ 1\n0x20 WRITE 2\n"


class TestReadTrace:
    def test_gzip_file_sniffed_by_magic(self, tmp_path):
        path = tmp_path / "trace.bin"  # no .gz suffix on purpose
        path.write_bytes(gzip.compress(b"0x10 READ 1\n0x20 WRITE 2\n"))
        records = list(read_trace(path))
        assert [r.kind for r in records] == ["read", "write"]

    def test_auto_detects_past_comment_header(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_text("# comment\n0x10 IFETCH 1\n0x20 READ 2\n")
        records = list(read_trace(path))
        assert len(records) == 2
        assert records[0].kind == "read"

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_text("0x10 READ 1\nbroken line here extra\n")
        with pytest.raises(TraceFormatError) as excinfo:
            list(read_trace(path))
        assert excinfo.value.line == 2
        assert "bad.trc:2:" in str(excinfo.value)


class TestAddressDecoder:
    @pytest.mark.parametrize("policy", ["row-bank-column",
                                        "bank-row-column"])
    def test_round_trip(self, policy):
        decoder = AddressDecoder(bank_bits=3, row_bits=14, col_bits=10,
                                 channel_bits=1, rank_bits=2,
                                 offset_bits=2, policy=policy)
        decoded = DecodedAddress(channel=1, rank=3, bank=5, row=9001,
                                 column=321)
        assert decoder.decode(decoder.encode(decoded)) == decoded

    def test_policies_place_bank_differently(self):
        kwargs = dict(bank_bits=3, row_bits=14, col_bits=10)
        page = AddressDecoder(policy="row-bank-column", **kwargs)
        bank = AddressDecoder(policy="bank-row-column", **kwargs)
        address = 0b101 << 10  # three bits just above the column
        assert page.decode(address).bank == 0b101
        assert bank.decode(address).row == 0b101

    def test_sequential_addresses_walk_columns(self):
        decoder = AddressDecoder(bank_bits=3, row_bits=14, col_bits=10,
                                 offset_bits=1)
        first = decoder.decode(0)
        second = decoder.decode(2)
        assert (first.row, first.bank) == (second.row, second.bank)
        assert second.column == first.column + 1

    def test_flat_bank_spans_channel_and_rank(self):
        decoder = AddressDecoder(bank_bits=3, row_bits=14, col_bits=10,
                                 channel_bits=1, rank_bits=1)
        low = decoder.flat_bank(DecodedAddress(bank=7))
        high = decoder.flat_bank(DecodedAddress(channel=1, rank=1,
                                                bank=0))
        assert low == 7
        # ((channel << rank_bits) | rank) << bank_bits = 0b11 << 3
        assert high == 24

    def test_encode_rejects_out_of_range_fields(self):
        decoder = AddressDecoder(bank_bits=3, row_bits=14, col_bits=10)
        with pytest.raises(Exception, match="bank 8"):
            decoder.encode(DecodedAddress(bank=8))

    def test_bad_policy_rejected(self):
        with pytest.raises(Exception, match="policy"):
            AddressDecoder(bank_bits=3, row_bits=14, col_bits=10,
                           policy="column-major")

    def test_from_device_matches_geometry(self, ddr3_device):
        decoder = AddressDecoder.from_device(ddr3_device)
        spec = ddr3_device.spec
        assert decoder.bank_bits == spec.bank_bits
        assert decoder.row_bits == spec.row_bits
        assert decoder.col_bits == spec.col_bits
        top = decoder.decode((1 << decoder.address_bits) - 1)
        assert top.bank == (1 << spec.bank_bits) - 1


class TestOpenPageExpansion:
    def _decoder(self):
        return AddressDecoder(bank_bits=3, row_bits=14, col_bits=10,
                              offset_bits=2)

    def test_row_switch_emits_precharge_and_activate(self):
        decoder = self._decoder()
        row_stride = 1 << (decoder.offset_bits + decoder.col_bits
                           + decoder.bank_bits)
        records = [
            TraceRecord(0, "read", 0),
            TraceRecord(4, "read", 10),          # same row: hit
            TraceRecord(row_stride, "write", 20),  # new row: PRE+ACT
        ]
        commands = list(commands_from_records(records, decoder))
        ops = [c.command for c in commands]
        assert ops == [Command.ACT, Command.RD, Command.RD,
                       Command.PRE, Command.ACT, Command.WR]

    def test_refresh_closes_open_row(self):
        decoder = self._decoder()
        records = [
            TraceRecord(0, "read", 0),
            TraceRecord(0, "refresh", 50),
            TraceRecord(0, "read", 100),
        ]
        ops = [c.command
               for c in commands_from_records(records, decoder)]
        assert ops == [Command.ACT, Command.RD, Command.PRE,
                       Command.REF, Command.ACT, Command.RD]

    def test_clock_scales_times(self, ddr3_model):
        decoder = self._decoder()
        records = [TraceRecord(0, "read", 800)]
        commands = list(commands_from_records(records, decoder,
                                              clock=800e6))
        assert commands[-1].time == pytest.approx(1e-6)
        for clock in (0.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="clock"):
                list(commands_from_records(records, decoder,
                                           clock=clock))
            with pytest.raises(ValueError, match="clock"):
                ColumnarReplayer(TraceAccumulator(ddr3_model,
                                                  strict=False),
                                 "k6", decoder, clock)


class TestEvaluateTraceFile:
    def _write_trace(self, tmp_path, n=400):
        lines = []
        for i in range(n):
            op = "P_MEM_WR" if i % 3 == 0 else "P_MEM_RD"
            lines.append(f"0x{(i * 64) % (1 << 20):X} {op} {i * 16}")
        lines.append(f"0x0 REF {n * 16}")
        path = tmp_path / "trace.trc.gz"
        path.write_bytes(gzip.compress("\n".join(lines).encode()))
        return path, n

    def test_end_to_end_matches_manual_fold(self, tmp_path,
                                            ddr3_model):
        path, n = self._write_trace(tmp_path)
        result = evaluate_trace_file(ddr3_model, path)
        decoder = AddressDecoder.from_device(ddr3_model.device)
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        accumulator.feed(commands_from_records(read_trace(path),
                                               decoder))
        manual = accumulator.result()
        assert result.counts[Command.RD] \
            + result.counts[Command.WR] == n
        assert result.counts[Command.REF] == 1
        assert result.energy == manual.energy
        assert result.counts == manual.counts

    def test_streamed_chunks_match_file_path(self, tmp_path,
                                             ddr3_model):
        path, _ = self._write_trace(tmp_path)
        one_shot = evaluate_trace_file(ddr3_model, path)
        blob = path.read_bytes()
        chunks = [blob[i:i + 256] for i in range(0, len(blob), 256)]
        decoder = AddressDecoder.from_device(ddr3_model.device)
        records = iter_records(
            iter_lines(iter_decompressed(chunks)), "k6")
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        accumulator.feed(commands_from_records(records, decoder))
        streamed = accumulator.result()
        assert streamed.energy == one_shot.energy
        assert streamed.counts == one_shot.counts
        assert streamed.duration == one_shot.duration


class TestFileReplayMemory:
    """``replay_trace_file`` streams a file in bounded memory: its
    peak stays under a budget that holding the expanded commands
    would exceed.  ``vector`` replays 400,000 transactions (1.2 M
    commands) under 64 MB; the slower ``serial`` fold replays 10,000
    (30,000 commands) under 2 MB."""

    @staticmethod
    def _write(path, transactions, address_bits):
        state = 0x2C011
        mask = (1 << address_bits) - 1
        lines = []
        for i in range(transactions):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            op = "P_MEM_WR" if state % 3 == 0 else "P_MEM_RD"
            address = (state * 2654435761) & mask
            lines.append(f"0x{address:X} {op} {i * 16}\n")
            if i % 50_000 == 49_999:
                lines.append(f"0x0 REF {i * 16 + 8}\n")
        path.write_bytes(gzip.compress("".join(lines).encode(),
                                       compresslevel=1))

    @pytest.mark.parametrize("backend,transactions,budget", [
        pytest.param("vector", 400_000, 64 * 2 ** 20,
                     marks=pytest.mark.skipif(
                         not numpy_available(),
                         reason="numpy not installed")),
        ("serial", 10_000, 2 * 2 ** 20),
    ], ids=["vector", "serial"])
    def test_peak_stays_under_budget(self, tmp_path, ddr3_model,
                                     backend, transactions, budget):
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             channel_bits=1,
                                             rank_bits=1)
        path = tmp_path / "big.trc.gz"
        self._write(path, transactions, decoder.address_bits)
        tracemalloc.start()
        try:
            accumulator, used = replay_trace_file(
                ddr3_model, path, decoder=decoder, backend=backend)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert used == backend
        commands = accumulator.commands_seen
        assert commands > 2.9 * transactions  # every access misses
        assert peak < budget, f"peak {peak} bytes"
        # What the expanded commands would take if held in a list,
        # priced from a short prefix.
        tracemalloc.start()
        try:
            held = list(itertools.islice(commands_from_records(
                read_trace(path), decoder), 2000))
            per_command = tracemalloc.get_traced_memory()[0] / len(held)
        finally:
            tracemalloc.stop()
        assert per_command * commands > 1.5 * budget


class TestNonFiniteTimes:
    """A record whose ``cycle / clock`` is no finite float is a format
    error at its line on every backend, never an OverflowError or an
    infinite duration."""

    CASES = [
        ("0x0 REF 1\n0x40 P_MEM_RD 1" + "0" * 400 + "\n", 1e9),
        ("0x0 REF 1\n0x40 P_MEM_RD 10000000000\n", 1e-300),
    ]

    @pytest.mark.parametrize("text, clock", CASES,
                             ids=["cycle-overflow", "tiny-clock"])
    def test_every_backend_raises_at_the_line(self, ddr3_model,
                                              tmp_path, text, clock):
        path = tmp_path / "t.trc"
        path.write_text(text)
        errors = set()
        for backend in ("serial", "vector"):
            with pytest.raises(TraceFormatError) as excinfo:
                evaluate_trace_file(ddr3_model, path, clock=clock,
                                    backend=backend)
            assert excinfo.value.line == 2
            errors.add(str(excinfo.value))
        assert len(errors) == 1
        assert errors.pop().startswith(
            f"{path}:2: cycle stamp gives no finite time")

    @pytest.mark.parametrize("text, clock", CASES,
                             ids=["cycle-overflow", "tiny-clock"])
    def test_record_streams_raise_at_the_line(self, ddr3_model, text,
                                              clock):
        """An in-memory record stream folds through the scalar pieces
        and fails at the same line as a file."""
        decoder = AddressDecoder.from_device(ddr3_model.device)
        records = iter_records(iter(text.splitlines()), "k6")
        with pytest.raises(TraceFormatError) as excinfo:
            TraceAccumulator(ddr3_model, strict=False).feed(
                commands_from_records(records, decoder, clock))
        assert excinfo.value.line == 2


class TestDecoderEdgeGeometries:
    """Decoder corner cases: zero-width channel/rank fields, maximal
    row widths, and field-layout consistency — each geometry must
    decode identically through the scalar and columnar paths."""

    def _parity(self, decoder, lines, ddr3_model, tmp_path):
        """The serial result of ``lines`` replayed from a file, which
        every other backend must match."""
        path = tmp_path / "edge.trc"
        path.write_text("\n".join(lines) + "\n")
        serial = evaluate_trace_file(ddr3_model, path, decoder=decoder,
                                     backend="serial")
        for backend in ("vector", "auto"):
            result = evaluate_trace_file(ddr3_model, path,
                                         decoder=decoder,
                                         backend=backend)
            assert result.energy == serial.energy
            assert result.counts == serial.counts
            assert result.row_hits == serial.row_hits
        return serial

    def _lines(self, decoder, count=400):
        lines = []
        state = 29
        mask = (1 << decoder.address_bits) - 1
        for i in range(count):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            address = (state * 2654435761) & mask
            lines.append(f"0x{address:x} READ {i * 4}")
        return lines

    def test_zero_channel_and_rank_bits(self, ddr3_model, tmp_path):
        decoder = AddressDecoder.from_device(ddr3_model.device)
        assert decoder.channel_bits == 0 and decoder.rank_bits == 0
        assert decoder.num_shards == 1
        lines = self._lines(decoder)
        self._parity(decoder, lines, ddr3_model, tmp_path)

    def test_max_width_rows(self, ddr3_model, tmp_path):
        decoder = AddressDecoder(bank_bits=1, row_bits=30, col_bits=1,
                                 rank_bits=1, offset_bits=0)
        top = decoder.encode(DecodedAddress(rank=1,
                                            row=(1 << 30) - 1,
                                            bank=1, column=1))
        decoded = decoder.decode(top)
        assert decoded.row == (1 << 30) - 1
        assert decoder.flat_bank(decoded) >> decoder.bank_bits == 1
        lines = self._lines(decoder)
        self._parity(decoder, lines, ddr3_model, tmp_path)

    def test_wide_fields_fold_scalar(self, ddr3_model, tmp_path):
        # A 70-bit rank field overflows the int64 masks of the
        # columnar kernel: every backend must price it scalar, the
        # scalar pieces on a record stream too.
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             rank_bits=70)
        assert decoder.address_bits >= 64
        lines = self._lines(decoder)
        serial = self._parity(decoder, lines, ddr3_model, tmp_path)
        stream = TraceAccumulator(ddr3_model, strict=False).feed(
            commands_from_records(iter_records(iter(lines), "k6"),
                                  decoder)).result()
        assert stream.energy == serial.energy
        assert stream.counts == serial.counts

    @pytest.mark.parametrize("policy", ["row-bank-column",
                                        "bank-row-column"])
    def test_pair_index_matches_flat_bank(self, policy, ddr3_model):
        """The columnar kernel's (channel, rank) index — one shift and
        mask over the raw address — is what ``flat_bank`` puts above
        the bank bits, under every policy."""
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             policy=policy,
                                             channel_bits=2,
                                             rank_bits=1)
        rank_shift = decoder.field_layout()["rank"][0]
        state = 97
        mask = (1 << decoder.address_bits) - 1
        seen = set()
        for _ in range(500):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            address = (state * 2654435761) & mask
            pair = (address >> rank_shift) & (decoder.num_shards - 1)
            flat = decoder.flat_bank(decoder.decode(address))
            assert pair == flat >> decoder.bank_bits
            seen.add(pair)
        assert seen == set(range(decoder.num_shards))

    @pytest.mark.parametrize("policy", ["row-bank-column",
                                        "bank-row-column"])
    def test_field_layout_matches_decode(self, policy, ddr3_model):
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             policy=policy,
                                             channel_bits=1,
                                             rank_bits=2)
        layout = decoder.field_layout()
        assert sum(width for _, width in layout.values()) \
            + decoder.offset_bits == decoder.address_bits
        address = (1 << decoder.address_bits) - 12345
        decoded = decoder.decode(address)
        for name, (shift, width) in layout.items():
            assert (address >> shift) & ((1 << width) - 1) \
                == getattr(decoded, name)


class TestDetectFormatAmbiguity:
    """Ambiguous first lines must sniff deterministically — and both
    parse paths must then agree on the result."""

    def test_three_token_lines_default_to_k6(self):
        # "READ" is in both vocabularies; k6 wins the tie.
        assert detect_format("0x100 READ 5") == "k6"
        assert detect_format("0x100 WRITE 5") == "k6"
        assert detect_format("0x100 REF 5") == "k6"

    def test_ifetch_selects_mase(self):
        assert detect_format("0x100 IFETCH 5") == "mase"
        assert detect_format("0x100 ifetch 5") == "mase"

    def test_json_object_selects_jsonl(self):
        assert detect_format('{"addr": 256, "op": "read", '
                             '"cycle": 5}') == "jsonl"

    def test_ambiguous_lines_agree_across_parsers(self, ddr3_model):
        # Lines legal under both k6 and mase vocabularies must price
        # identically whichever parser the sniff picks.
        lines = ["0x100 READ 1", "0x2100 WRITE 2", "0x100 REF 3",
                 "0x4100 read 4"]
        decoder = AddressDecoder.from_device(ddr3_model.device)

        def result_for(fmt):
            records = iter_records(iter(lines), fmt)
            accumulator = TraceAccumulator(ddr3_model, strict=False)
            accumulator.feed(commands_from_records(records, decoder))
            return accumulator.result()

        k6 = result_for("k6")
        mase = result_for("mase")
        assert k6.energy == mase.energy
        assert k6.counts == mase.counts

    def test_sniff_skips_comments(self, tmp_path, ddr3_model):
        from repro.trace import resolve_trace_format
        path = tmp_path / "sniff.trc"
        path.write_text("# mase-style trace\n; more header\n"
                        "0x100 IFETCH 5\n")
        assert resolve_trace_format(path) == "mase"
        assert resolve_trace_format(path, "k6") == "k6"
        assert resolve_trace_format(path, "auto") == "mase"

    def test_empty_file_defaults_to_k6(self, tmp_path):
        from repro.trace import resolve_trace_format
        path = tmp_path / "empty.trc"
        path.write_text("# only comments\n\n")
        assert resolve_trace_format(path) == "k6"
