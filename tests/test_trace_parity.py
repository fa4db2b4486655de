"""Parity suite: chunked streaming evaluation == one-shot, bit for bit.

The contract behind the ``/trace`` endpoint and the CLI file mode is
that feeding a trace to :class:`TraceAccumulator` in arbitrary chunks
(with snapshots taken in between) produces *exactly* the result of
:func:`evaluate_trace` on the whole trace — same floats, same counts.
This suite pins that across the workload generators, the device
corpus and several chunk sizes.
"""

import pytest

from repro import DramPowerModel
from repro.core.trace import TraceAccumulator, evaluate_trace
from repro.workloads import (copy_trace, pointer_chase_trace,
                             random_trace, streaming_trace)

WORKLOADS = [
    ("streaming", lambda d: streaming_trace(d, 400,
                                            read_fraction=0.7)),
    ("random", lambda d: random_trace(d, 400, row_hit_rate=0.4,
                                      seed=3)),
    ("random-refresh", lambda d: random_trace(d, 300,
                                              with_refresh=True,
                                              seed=5)),
    ("copy", lambda d: copy_trace(d, 4)),
    ("pointer-chase", lambda d: pointer_chase_trace(d, 300, seed=2)),
]

CHUNK_SIZES = (1, 7, 1000)


@pytest.fixture(scope="module")
def device_models(all_devices):
    return [(device, DramPowerModel(device))
            for device in all_devices]


def _chunked(model, trace, size):
    accumulator = TraceAccumulator(model)
    for start in range(0, len(trace), size):
        accumulator.feed(trace[start:start + size])
        # Snapshots must be pure reads: taking one mid-stream must not
        # perturb the final result.
        accumulator.snapshot()
    return accumulator.result()


def _assert_identical(one, two):
    assert one.energy == two.energy
    assert one.duration == two.duration
    assert one.breakdown.values == two.breakdown.values
    assert one.counts == two.counts
    assert one.data_bits == two.data_bits
    assert one.row_hits == two.row_hits
    assert one.row_misses == two.row_misses
    assert one.row_conflicts == two.row_conflicts


@pytest.mark.parametrize("name,build",
                         WORKLOADS, ids=[w[0] for w in WORKLOADS])
def test_chunked_matches_oneshot(name, build, device_models):
    for device, model in device_models:
        trace = build(device)
        one_shot = evaluate_trace(model, trace)
        for size in CHUNK_SIZES:
            chunked = _chunked(model, trace, size)
            _assert_identical(one_shot, chunked)


def test_feed_returns_self_for_chaining(device_models):
    device, model = device_models[0]
    trace = streaming_trace(device, 50)
    result = TraceAccumulator(model).feed(trace).result()
    _assert_identical(result, evaluate_trace(model, trace))


def test_generator_and_list_inputs_agree(device_models):
    device, model = device_models[0]
    trace = random_trace(device, 200, seed=9)
    from_list = evaluate_trace(model, trace)
    from_generator = evaluate_trace(model, iter(trace))
    _assert_identical(from_list, from_generator)


# ----------------------------------------------------------------------
# Rank-sharded replay: merged shard states == serial one-shot replay.
# ----------------------------------------------------------------------
from repro.core.trace import TraceError
from repro.trace import (AddressDecoder, ColumnarReplayer,
                         accumulate_records, commands_from_records,
                         evaluate_trace_file, fold_file_shards,
                         iter_records)
from repro.trace.ingest import DEFAULT_CLOCK


def _shard_lines(fmt, count, address_bits, seed=11):
    """Deterministic trace text covering every (channel, rank) shard."""
    import json as _json
    lines = []
    state = seed
    mask = (1 << address_bits) - 1
    for i in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        address = (state * 2654435761) & mask
        if i % 89 == 88:
            op = "REF"
        elif state % 3 == 0:
            op = "WRITE"
        else:
            op = "READ"
        if fmt == "jsonl":
            lines.append(_json.dumps({"addr": address, "op": op,
                                      "cycle": i * 4}))
        else:
            lines.append(f"0x{address:x} {op} {i * 4}")
    return lines


def _result_key(result):
    return (result.energy, result.duration, result.counts,
            result.row_hits, result.row_misses, result.row_conflicts,
            result.data_bits, result.breakdown.values)


class TestShardedReplayParity:
    @pytest.mark.parametrize("fmt", ["k6", "mase", "jsonl"])
    @pytest.mark.parametrize("policy", ["row-bank-column",
                                        "bank-row-column"])
    def test_shard_fold_merge_matches_serial(self, fmt, policy,
                                             ddr3_model, tmp_path):
        """Folding each shard range separately and merging in shard
        order must reproduce serial replay exactly (in-process, so
        the whole matrix stays fast)."""
        from repro.core.trace import TraceAccumulator

        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             policy=policy,
                                             channel_bits=1,
                                             rank_bits=1)
        lines = _shard_lines(fmt, 1200, decoder.address_bits)
        path = tmp_path / f"s.{fmt}.trc"
        path.write_text("\n".join(lines) + "\n")
        from repro.trace import replay_trace_file
        serial, backend = replay_trace_file(ddr3_model, path, fmt=fmt,
                                            decoder=decoder,
                                            backend="serial")
        assert backend == "serial"
        merged = TraceAccumulator(ddr3_model, strict=False)
        bounds = (0, 1, 3, decoder.num_shards)
        for low, high in zip(bounds, bounds[1:]):
            piece = fold_file_shards(ddr3_model, path, fmt, decoder,
                                     DEFAULT_CLOCK, range(low, high))
            merged.merge(piece)
        assert (_result_key(merged.result())
                == _result_key(serial.result()))
        assert merged.commands_seen == serial.commands_seen

    @pytest.mark.parametrize("backend", ["serial", "vector"])
    def test_range_masked_fold_matches_filtered_oracle(
            self, backend, ddr3_model):
        """A shard range masks by its bounds (a 2**70 stop costs
        nothing) and folds exactly the records a scalar filter
        keeps, on the columnar and the scalar replay path."""
        from repro.core.trace import TraceAccumulator

        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             channel_bits=1,
                                             rank_bits=1)
        lines = _shard_lines("k6", 1500, decoder.address_bits)
        masked = TraceAccumulator(ddr3_model, strict=False)
        replayer = ColumnarReplayer(masked, "k6", decoder,
                                    DEFAULT_CLOCK,
                                    shards=range(1, 2 ** 70),
                                    backend=backend)
        replayer.feed_lines(lines[:700])
        replayer.feed_lines(lines[700:])
        kept = [record for record in iter_records(iter(lines), "k6")
                if decoder.shard_of(record.address) >= 1]
        oracle = TraceAccumulator(ddr3_model, strict=False)
        oracle.feed(commands_from_records(kept, decoder,
                                          DEFAULT_CLOCK))
        assert 0 < len(kept) < len(lines)
        assert (_result_key(masked.result())
                == _result_key(oracle.result()))
        assert masked.commands_seen == oracle.commands_seen

    def test_record_streams_refuse_process(self, ddr3_model):
        """``process`` is an unknown backend like any other name."""
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             rank_bits=2)
        lines = _shard_lines("k6", 10, decoder.address_bits)
        for backend in ("thread", "process"):
            records = iter_records(iter(lines), "k6")
            with pytest.raises(TraceError,
                               match="unknown trace backend"):
                accumulate_records(ddr3_model, records,
                                   decoder=decoder, backend=backend)

    def test_empty_and_full_shard_ranges(self, ddr3_model, tmp_path):
        decoder = AddressDecoder.from_device(ddr3_model.device,
                                             channel_bits=1)
        lines = _shard_lines("k6", 300, decoder.address_bits)
        path = tmp_path / "e.trc"
        path.write_text("\n".join(lines) + "\n")
        empty = fold_file_shards(ddr3_model, path, "k6", decoder,
                                 DEFAULT_CLOCK, [])
        assert empty.commands_seen == 0
        serial = evaluate_trace_file(ddr3_model, path,
                                     decoder=decoder,
                                     backend="serial")
        full = fold_file_shards(ddr3_model, path, "k6", decoder,
                                DEFAULT_CLOCK,
                                range(decoder.num_shards))
        assert _result_key(full.result()) == _result_key(serial)
