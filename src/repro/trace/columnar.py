"""Columnar fast path: batch parse, vectorized decode, batched fold.

The scalar pipeline walks a trace one line → one record → a handful of
commands at a time, all in interpreted Python; it is correct and
constant-memory but tops out around 0.2 M commands/s.  This module
processes the same pipeline in *batches of lines*:

* **parse** — a batch of k6/mase lines becomes three column arrays via
  one C-level tokenization pass: the lines are joined around a
  sentinel token and split once, which yields exactly four tokens per
  line (address, op, cycle, sentinel) *iff* every line is a
  well-formed three-token payload.  Any structural mismatch — blank
  lines, comments, wrong arity, unknown ops, bad numbers — drops the
  whole batch to the scalar parser, which raises the exact
  :class:`~repro.trace.formats.TraceFormatError` (same message, same
  global line number) the scalar path would have raised.  NDJSON
  always parses scalar (``json.loads`` dominates regardless) and only
  the decode/fold is columnar.

* **decode** — :meth:`AddressDecoder.field_layout` turns the bit-slice
  policy into shift/mask pairs applied to the whole address array.

* **fold** — open-page expansion reduces to per-bank row-transition
  detection: a stable argsort by flat bank turns the batch into
  per-bank runs, the previous-row array (seeded from the carried
  open-row registers at run starts) marks misses, and the lenient
  fold collapses to count deltas absorbed through
  :meth:`~repro.core.trace.TraceAccumulator.absorb_batch`.  Energy is
  derived from counts by the unchanged ``snapshot`` code, so columnar
  and scalar replay are bit-for-bit identical — the scalar path stays
  on as the oracle, and the parity suite holds them together.

Backends take the engine's names (:data:`repro.engine.BACKENDS`):
every name but ``serial`` asks for the kernel.  numpy is optional (the
``repro[vector]`` extra), mirroring :mod:`repro.engine.vector`: with
numpy missing the replayer folds every batch scalar, results
unchanged, and :func:`~repro.trace.ingest.replay_trace_file` reports
``serial``.  Record traces carry no command timing, so replay is
lenient only: a strict accumulator is refused with
:data:`~repro.trace.ingest.STRICT_REFUSAL`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    _np = None

from ..core.trace import TraceAccumulator, TraceError
from ..description import Command
from .decoder import AddressDecoder
from .formats import K6_OPS, MASE_OPS, TraceRecord, iter_records
from .ingest import STRICT_REFUSAL, clock_period, commands_from_records

#: Lines per parse batch for file/stream replay — large enough to
#: amortize the per-batch array staging, small enough that a batch of
#: 80-char lines stays ~5 MB of working set.
LINES_PER_BATCH = 65_536

#: Token that can never appear inside a whitespace-split trace line —
#: joining a batch around it makes per-line token arity checkable on
#: the flat token list.
_SENTINEL = "\x00"

#: Canonical record kinds as small integer codes for array work.
_READ, _WRITE, _REFRESH = 0, 1, 2

_KIND_CODES = {"read": _READ, "write": _WRITE, "refresh": _REFRESH}


def _op_codes(ops: Dict[str, str]) -> Dict[str, int]:
    """Vocabulary → kind-code map with upper-case aliases, so the hot
    loop skips ``str.lower`` for the common all-caps trace ops."""
    codes = {}
    for op, kind in ops.items():
        codes[op] = _KIND_CODES[kind]
        codes[op.upper()] = _KIND_CODES[kind]
    return codes


_CODE_MAPS = {"k6": _op_codes(K6_OPS), "mase": _op_codes(MASE_OPS)}


class _ColumnarOverflow(Exception):
    """A batch carries integers no int64 array can hold, or a time no
    float can; the caller replays that batch through the scalar
    pipeline instead, which raises the exact error if there is one."""


# ----------------------------------------------------------------------
# Batch parsing.
# ----------------------------------------------------------------------
class TraceColumns:
    """One parsed batch as (addresses, kinds, cycles) int arrays."""

    def __init__(self, addresses, kinds, cycles):
        self.addresses = addresses
        self.kinds = kinds
        self.cycles = cycles

    def __len__(self) -> int:
        return int(self.addresses.shape[0])


def _columns_from_records(records: Iterable[TraceRecord]
                          ) -> TraceColumns:
    """Columns via the scalar record parser (the fallback path and
    the whole story for NDJSON).  Raises exactly what the scalar
    pipeline raises; raises :class:`_ColumnarOverflow` for integers
    beyond int64."""
    addresses: List[int] = []
    kinds: List[int] = []
    cycles: List[int] = []
    for record in records:
        addresses.append(record.address)
        kinds.append(_KIND_CODES[record.kind])
        cycles.append(record.cycle)
    try:
        return TraceColumns(
            _np.array(addresses, dtype=_np.int64),
            _np.array(kinds, dtype=_np.int8),
            _np.array(cycles, dtype=_np.int64))
    except OverflowError:
        raise _ColumnarOverflow() from None


def parse_columns(lines: Sequence[str], fmt: str,
                  source: str = "<trace>",
                  start: int = 1) -> TraceColumns:
    """Parse one batch of trace lines into column arrays.

    The fast path handles uniform three-token k6/mase batches in a
    single split; anything else (comments, blank lines, malformed
    payloads, NDJSON) re-parses the batch through the scalar parser —
    slower, but byte-identical in both results and errors.  ``start``
    is the global 1-based line number of ``lines[0]``.
    """
    if _np is None:
        raise TraceError("columnar parsing requires numpy "
                         "(the repro[vector] extra)", 0.0, None)
    n = len(lines)
    if n == 0:
        return TraceColumns(_np.empty(0, dtype=_np.int64),
                            _np.empty(0, dtype=_np.int8),
                            _np.empty(0, dtype=_np.int64))
    codes = _CODE_MAPS.get(fmt)
    if codes is not None:
        columns = _parse_tokenized(lines, n, codes)
        if columns is not None:
            return columns
    # Scalar fallback: exact errors, exact records, global numbering.
    return _columns_from_records(
        iter_records(iter(lines), fmt, source=source, start=start))


def _parse_tokenized(lines: Sequence[str], n: int,
                     codes: Dict[str, int]) -> Optional[TraceColumns]:
    """The sentinel-join fast path; ``None`` means "go scalar"."""
    flat = (" " + _SENTINEL + " ").join(lines).split()
    # A well-formed batch is exactly (addr op cycle sentinel)* — the
    # sentinel positions prove per-line arity on the flat list (a
    # blank line next to a six-token line keeps the total but shifts
    # a payload token into a sentinel slot).
    if len(flat) != 4 * n - 1:
        return None
    if n > 1 and set(flat[3::4]) != {_SENTINEL}:
        return None
    try:
        addresses = [int(token, 16) for token in flat[0::4]]
        cycles = [int(token, 0) for token in flat[2::4]]
    except ValueError:
        return None
    op_tokens = flat[1::4]
    try:
        kinds = [codes[token] for token in op_tokens]
    except KeyError:
        try:
            kinds = [codes[token.lower()] for token in op_tokens]
        except KeyError:
            return None
    try:
        address_array = _np.array(addresses, dtype=_np.int64)
        cycle_array = _np.array(cycles, dtype=_np.int64)
    except OverflowError:
        return None
    if int(address_array.min()) < 0 or int(cycle_array.min()) < 0:
        return None  # scalar parser raises the negative-value error
    return TraceColumns(address_array,
                        _np.array(kinds, dtype=_np.int8),
                        cycle_array)


# ----------------------------------------------------------------------
# Batched open-page expansion and fold.
# ----------------------------------------------------------------------
def fold_columns(accumulator: TraceAccumulator, columns: TraceColumns,
                 decoder: AddressDecoder, period: float,
                 open_rows: Dict[int, int]) -> None:
    """Expand and fold one parsed batch into ``accumulator``.

    Mirrors the scalar ``commands_from_records`` + ``feed`` pipeline
    exactly: per flat bank, a transaction to a row other than the open
    one costs PRE (when a row was open) + ACT, refresh costs PRE (when
    open) + REF, and every access to the already-open row is a row
    hit except the one its activate paid for.  ``open_rows`` is the
    carried open-row register, updated in place.  A batch whose last
    time is not finite raises :class:`_ColumnarOverflow` before
    anything is folded.
    """
    n = len(columns)
    if n == 0:
        return
    layout = decoder.field_layout()
    addresses = columns.addresses
    kinds = columns.kinds
    cycles = columns.cycles
    # int * float in Python mirrors the scalar per-record time product
    # bit for bit (multiplication by a positive period is monotone, so
    # the max cycle carries the max time).
    last_time = int(cycles.max()) * period
    if not math.isfinite(last_time):
        raise _ColumnarOverflow()
    bank_shift, bank_bits = layout["bank"]
    row_shift, row_bits = layout["row"]
    rank_shift = layout["rank"][0]
    bank = (addresses >> bank_shift) & ((1 << bank_bits) - 1)
    row = (addresses >> row_shift) & ((1 << row_bits) - 1)
    channel_rank = (addresses >> rank_shift) & (decoder.num_shards - 1)
    flat = (channel_rank << bank_bits) | bank

    order = _np.argsort(flat, kind="stable")
    flat_sorted = flat[order]
    row_sorted = row[order]
    kind_sorted = kinds[order]
    is_refresh = kind_sorted == _REFRESH
    # Open row *after* each record: refresh closes the bank (-1).
    effective = _np.where(is_refresh, _np.int64(-1), row_sorted)
    previous = _np.empty(n, dtype=_np.int64)
    previous[1:] = effective[:-1]
    run_start = _np.empty(n, dtype=bool)
    run_start[0] = True
    run_start[1:] = flat_sorted[1:] != flat_sorted[:-1]
    start_positions = _np.flatnonzero(run_start)
    run_banks = flat_sorted[start_positions].tolist()
    carried = [open_rows.get(b, -1) for b in run_banks]
    carried = [-1 if value is None else value for value in carried]
    previous[start_positions] = carried

    access = ~is_refresh
    miss = access & (previous != row_sorted)
    precharge = (previous >= 0) & (miss | is_refresh)
    n_act = int(miss.sum())
    n_pre = int(precharge.sum())
    n_access = int(access.sum())
    reads = int((kind_sorted == _READ).sum())
    refreshes = int(is_refresh.sum())

    # Carry the open-row register (and the accumulator's bank view)
    # forward from each run's final record.
    end_positions = _np.append(start_positions[1:] - 1, n - 1)
    bank_rows: Dict[int, Optional[int]] = {}
    for bank_id, final in zip(run_banks,
                              effective[end_positions].tolist()):
        bank_id = int(bank_id)
        if final < 0:
            open_rows.pop(bank_id, None)
            bank_rows[bank_id] = None
        else:
            open_rows[bank_id] = int(final)
            bank_rows[bank_id] = int(final)

    counts = {Command.ACT: n_act, Command.PRE: n_pre,
              Command.RD: reads, Command.WR: n_access - reads,
              Command.REF: refreshes}
    accumulator.absorb_batch(counts, row_hits=n_access - n_act,
                             commands=n + n_act + n_pre,
                             last_time=last_time, bank_rows=bank_rows)


# ----------------------------------------------------------------------
# Streaming drivers.
# ----------------------------------------------------------------------
class ColumnarReplayer:
    """Batched lenient replay into a :class:`TraceAccumulator`, which
    file and upload replay share.

    Feed line batches with :meth:`feed_lines`.  ``columnar`` holds on
    any backend but ``serial`` with numpy present and a decoder whose
    fields fit int64 masks (``address_bits < 64``).  There a batch
    folds through :func:`fold_columns`; every other batch, and one
    carrying integers beyond int64 or a time beyond any float, folds
    through the scalar pipeline.  The replayer tracks global line
    numbers (for exact error parity) and carries the open-row register
    across batches of either kind.  A strict accumulator is refused
    with :data:`~repro.trace.ingest.STRICT_REFUSAL`.
    """

    def __init__(self, accumulator: TraceAccumulator,
                 fmt: str, decoder: AddressDecoder,
                 clock: float, source: str = "<trace>",
                 backend: str = "vector"):
        if accumulator.strict:
            raise TraceError(STRICT_REFUSAL, 0.0, None)
        self.period = clock_period(clock)
        self.accumulator = accumulator
        self.fmt = fmt
        self.decoder = decoder
        self.clock = clock
        self.source = source
        self.columnar = (backend != "serial" and _np is not None
                         and decoder.address_bits < 64)
        self.open_rows: Dict[int, int] = {}
        self._next_line = 1

    def feed_lines(self, lines: Sequence[str]) -> None:
        """Parse and fold one batch of lines: through the count
        reduction when ``columnar`` holds and the batch fits it, else
        through the scalar pipeline, which shares the open-row
        register so the two splice exactly."""
        start = self._next_line
        self._next_line += len(lines)
        if self.columnar:
            try:
                columns = parse_columns(lines, self.fmt,
                                        source=self.source, start=start)
                fold_columns(self.accumulator, columns, self.decoder,
                             self.period, self.open_rows)
                return
            except _ColumnarOverflow:
                pass  # this batch goes through the scalar pipeline
        self.accumulator.feed(commands_from_records(
            iter_records(iter(lines), self.fmt, source=self.source,
                         start=start),
            self.decoder, self.clock, open_rows=self.open_rows,
            source=self.source))


def replay_lines_columnar(accumulator: TraceAccumulator,
                          line_batches: Iterable[Sequence[str]],
                          fmt: str, decoder: AddressDecoder,
                          clock: float, source: str = "<trace>"
                          ) -> ColumnarReplayer:
    """Drive a stream of line batches (as
    :func:`~repro.trace.formats.iter_line_batches` yields them) through
    one replayer; returns it, so ``columnar`` tells whether the kernel
    folded."""
    replayer = ColumnarReplayer(accumulator, fmt, decoder, clock,
                                source=source)
    for batch in line_batches:
        replayer.feed_lines(batch)
    return replayer
