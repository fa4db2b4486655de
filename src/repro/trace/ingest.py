"""Streaming ingestion: external trace records → timed DRAM commands.

The pipeline is lazy end to end: file lines → :class:`TraceRecord`
stream → open-page command expansion → :class:`TraceAccumulator` fold.
Nothing materializes the trace, so multi-billion-command files evaluate
in bounded memory.  :func:`replay_trace_file` runs that scalar oracle
on the ``serial`` backend; on any other it feeds the file's line
batches to the batch replayer of :mod:`repro.trace.columnar`, exactly
as a ``/trace`` upload does.

Open-page expansion keeps one open-row register per bank: a transaction
to a closed row emits ``PRE`` (when another row is open) + ``ACT``
before the column access, all stamped with the transaction's own time.
Record traces carry no command-level timing (a strict replay would stop
at its first access's tRCD check), so every path replays them leniently
and refuses strict replay with :data:`STRICT_REFUSAL`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..core.model import DramPowerModel
from ..core.trace import TraceAccumulator, TraceCommand, TraceResult
from ..description import Command
from ..engine import resolve_backend
from .decoder import AddressDecoder
from .formats import (TraceFormatError, TraceRecord, detect_format,
                      iter_line_batches, iter_records, open_trace_bytes,
                      open_trace_lines)


#: Default cycle clock (Hz) when a trace does not state one: 1 GHz, so
#: cycle stamps read directly as nanoseconds.
DEFAULT_CLOCK = 1e9

#: Why every record-trace surface refuses strict replay.
STRICT_REFUSAL = ("record traces (k6, mase, NDJSON) carry no command "
                  "timing, so they replay leniently; strict legality "
                  "checking applies only to timed command traces")


def clock_period(clock: float) -> float:
    """Seconds per cycle of a ``clock`` in Hz, which must be positive
    and finite (an infinite clock would stamp every command t = 0)."""
    if not 0 < clock < math.inf:
        raise ValueError("clock must be positive and finite")
    return 1.0 / clock


def commands_from_records(records: Iterable[TraceRecord],
                          decoder: AddressDecoder,
                          clock: float = DEFAULT_CLOCK,
                          open_rows: Optional[Dict[int, int]] = None,
                          source: str = "<trace>"
                          ) -> Iterator[TraceCommand]:
    """Expand transaction records into an open-page command stream.

    ``open_rows`` optionally supplies (and keeps receiving) the
    per-bank open-row register, so a caller alternating between this
    scalar expansion and the columnar batch kernel hands the carried
    state back and forth and the combined stream stays bit-identical
    to a single-path run.  A record whose time ``cycle / clock`` is
    not a finite float raises :class:`TraceFormatError` at its line.
    """
    period = clock_period(clock)
    if open_rows is None:
        open_rows = {}
    for record in records:
        decoded = decoder.decode(record.address)
        bank = decoder.flat_bank(decoded)
        try:
            time = record.cycle * period
        except OverflowError:  # a cycle beyond any float
            time = math.inf
        if time == math.inf:
            raise TraceFormatError(
                f"cycle stamp gives no finite time at a {clock:g} Hz "
                "clock", record.line, source)
        if record.kind == "refresh":
            if open_rows.pop(bank, None) is not None:
                yield TraceCommand(time, Command.PRE, bank)
            yield TraceCommand(time, Command.REF, bank)
            continue
        row = decoded.row
        open_row = open_rows.get(bank)
        if open_row != row:
            if open_row is not None:
                yield TraceCommand(time, Command.PRE, bank)
            yield TraceCommand(time, Command.ACT, bank, row)
            open_rows[bank] = row
        kind = Command.RD if record.kind == "read" else Command.WR
        yield TraceCommand(time, kind, bank, row)


def read_trace(path, fmt: Optional[str] = None,
               source: Optional[str] = None) -> Iterator[TraceRecord]:
    """Yield records from a (possibly gzipped) trace file lazily.

    ``fmt`` of ``None`` or ``"auto"`` sniffs the format from the first
    payload line.
    """
    fmt = resolve_trace_format(path, fmt)
    source = source or str(path)
    with open_trace_lines(path, source) as lines:
        yield from iter_records(lines, fmt, source=source)


def resolve_trace_format(path, fmt: Optional[str] = None) -> str:
    """The concrete format of a trace file: sniffed when ``fmt`` is
    ``None`` or ``"auto"``, passed through otherwise.

    A ``trace`` job sniffs once at planning, so its result names the
    format it replayed.
    """
    if fmt is not None and fmt != "auto":
        return fmt
    with open_trace_lines(path) as lines:
        for line in lines:
            stripped = line.strip()
            if stripped and not stripped.startswith(("#", ";")):
                return detect_format(line)
    return "k6"


def replay_trace_file(model: DramPowerModel, path,
                      fmt: Optional[str] = None,
                      decoder: Optional[AddressDecoder] = None,
                      clock: float = DEFAULT_CLOCK,
                      backend: str = "auto"
                      ) -> Tuple[TraceAccumulator, str]:
    """Replay an external trace file leniently on the chosen backend.

    Returns ``(accumulator, backend_used)``.  ``backend`` is a name
    of :data:`repro.engine.BACKENDS`.  ``serial`` runs the scalar
    oracle: records → commands → :meth:`TraceAccumulator.feed`.  Any
    other feeds the file's line batches to
    :func:`~repro.trace.columnar.replay_lines_columnar`;
    ``backend_used`` is ``vector`` when its columnar kernel ran (numpy
    present, a decoder that fits int64 masks) and ``serial``
    otherwise.  Both produce bit-for-bit identical aggregates and
    errors, so the choice is purely a throughput decision.
    """
    backend = resolve_backend(backend)
    if decoder is None:
        decoder = AddressDecoder.from_device(model.device)
    resolved_fmt = resolve_trace_format(path, fmt)
    accumulator = TraceAccumulator(model, strict=False)
    if backend == "serial":
        accumulator.feed(commands_from_records(
            read_trace(path, resolved_fmt), decoder, clock,
            source=str(path)))
        return accumulator, "serial"
    from .columnar import LINES_PER_BATCH, replay_lines_columnar
    blocks = open_trace_bytes(path)
    try:
        replayer = replay_lines_columnar(
            accumulator,
            iter_line_batches(blocks, LINES_PER_BATCH, str(path)),
            resolved_fmt, decoder, clock, source=str(path))
    finally:
        blocks.close()
    return accumulator, "vector" if replayer.columnar else "serial"


def evaluate_trace_file(model: DramPowerModel, path,
                        fmt: Optional[str] = None,
                        decoder: Optional[AddressDecoder] = None,
                        clock: float = DEFAULT_CLOCK,
                        backend: str = "auto") -> TraceResult:
    """One-call evaluation of an external trace file."""
    accumulator, _ = replay_trace_file(model, path, fmt=fmt,
                                       decoder=decoder, clock=clock,
                                       backend=backend)
    return accumulator.result()

