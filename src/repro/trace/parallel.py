"""Rank-sharded process-parallel trace replay with exact merge.

A trace decoded with nonzero ``channel_bits``/``rank_bits`` splits
into ``decoder.num_shards`` independent replays: the shard index
occupies the top bits of every flat bank, so bank state never crosses
a shard boundary and lenient replay of each shard is oblivious to the
others.  Each worker process opens the trace file itself, parses every
line (the parse cannot be sharded — shard membership needs the decoded
address) and folds only its shard set through the batch replayer —
columnar when numpy is present, scalar otherwise.  The workers return
:meth:`~repro.core.trace.TraceAccumulator.export_state` dictionaries
and the parent merges them with
:meth:`~repro.core.trace.TraceAccumulator.merge_state`; counts sum as
integers, time watermarks take maxima, and energy is derived once from
the merged counts — so the merged result is byte-identical to a
serial one-shot replay of the same file.

Pool-loss handling mirrors :mod:`repro.engine.executor`: shard sets
lost to a broken pool degrade to in-process folding, results
unchanged.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.model import DramPowerModel
from ..core.trace import TraceAccumulator
from ..description import DramDescription
from ..engine.executor import default_jobs, shard
from .columnar import replay_lines_columnar
from .decoder import AddressDecoder
from .formats import open_trace_lines


def shard_assignments(shards: int,
                      workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` shard-id ranges, one per worker.

    Delegates to the engine's balanced :func:`~repro.engine.executor.
    shard` splitter so at most ``workers`` ranges cover all shard ids
    in order — merging per-range states in range order reproduces the
    serial result exactly.
    """
    return shard(shards, workers)


def fold_file_shards(model: DramPowerModel, path, fmt: str,
                     decoder: AddressDecoder, clock: float,
                     shard_ids: Iterable[int]) -> TraceAccumulator:
    """Replay only the given (channel, rank) shards of one file.

    The single-process shard fold shared by pool workers, the
    in-process degradation path and the durable ``trace`` job kind:
    one batch replay masked to the wanted shards.
    """
    accumulator = TraceAccumulator(model, strict=False)
    wanted = frozenset(int(index) for index in shard_ids)
    if not wanted:
        return accumulator
    everything = len(wanted) >= decoder.num_shards
    with open_trace_lines(path) as lines:
        return replay_lines_columnar(
            accumulator, lines, fmt, decoder, clock, source=str(path),
            shards=None if everything else wanted)


def _replay_file_shards(device: DramDescription, path: str, fmt: str,
                        decoder: AddressDecoder, clock: float,
                        shard_ids: Tuple[int, ...]) -> Dict:
    """Worker entry point: fold one shard range, return its state."""
    model = DramPowerModel(device)
    accumulator = fold_file_shards(model, path, fmt, decoder, clock,
                                   shard_ids)
    return accumulator.export_state()


def evaluate_file_sharded(model: DramPowerModel, path, fmt: str,
                          decoder: AddressDecoder, clock: float,
                          jobs: Optional[int] = None
                          ) -> TraceAccumulator:
    """Shard-parallel replay of one trace file, merged exactly.

    Splits the decoder's (channel, rank) shards across process
    workers (each worker re-parses the file — parsing cannot be
    sharded — and folds only its shard set), then merges the worker
    states in shard order.  A broken pool degrades the lost ranges to
    in-process folding; either way the returned accumulator snapshots
    byte-identically to serial one-shot replay.
    """
    shards = decoder.num_shards
    workers = jobs if jobs is not None else default_jobs()
    workers = max(1, min(workers, shards))
    ranges = shard_assignments(shards, workers)
    if len(ranges) <= 1:
        return fold_file_shards(model, path, fmt, decoder, clock,
                                range(shards))
    states: Dict[int, Dict] = {}
    lost: List[int] = []
    try:
        with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
            futures = {}
            for index, (low, high) in enumerate(ranges):
                futures[index] = pool.submit(
                    _replay_file_shards, model.device, str(path), fmt,
                    decoder, clock, tuple(range(low, high)))
            for index, future in futures.items():
                try:
                    states[index] = future.result()
                except BrokenExecutor:
                    lost.append(index)
    except (BrokenExecutor, OSError):
        lost = [index for index in range(len(ranges))
                if index not in states]
    for index in sorted(lost):
        low, high = ranges[index]
        states[index] = fold_file_shards(
            model, path, fmt, decoder, clock,
            range(low, high)).export_state()
    merged = TraceAccumulator(model, strict=False)
    for index in range(len(ranges)):
        merged.merge_state(states[index])
    return merged
