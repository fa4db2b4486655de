"""Streaming ingestion: external trace records → timed DRAM commands.

The pipeline is lazy end to end: file lines → :class:`TraceRecord`
stream → open-page command expansion → :class:`TraceAccumulator` fold.
Nothing materializes the trace, so multi-billion-command files evaluate
in bounded memory.

Open-page expansion keeps one open-row register per bank: a transaction
to a closed row emits ``PRE`` (when another row is open) + ``ACT``
before the column access, all stamped with the transaction's own time —
external traces carry no command-level timing, so expanded traces are
evaluated with ``strict=False``.
"""

from __future__ import annotations

import itertools
import os
from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..core.model import DramPowerModel
from ..core.trace import (TraceAccumulator, TraceCommand, TraceError,
                          TraceResult)
from ..description import Command
from .decoder import AddressDecoder
from .formats import (TraceRecord, detect_format, iter_records,
                      open_trace_lines)


#: Default cycle clock (Hz) when a trace does not state one: 1 GHz, so
#: cycle stamps read directly as nanoseconds.
DEFAULT_CLOCK = 1e9

#: Replay backends accepted by the file/record entry points.  ``auto``
#: defers to :func:`~repro.trace.columnar.choose_trace_backend`.
TRACE_BACKENDS = ("serial", "vector", "process")


def commands_from_records(records: Iterable[TraceRecord],
                          decoder: AddressDecoder,
                          clock: float = DEFAULT_CLOCK,
                          open_rows: Optional[Dict[int, int]] = None
                          ) -> Iterator[TraceCommand]:
    """Expand transaction records into an open-page command stream.

    ``open_rows`` optionally supplies (and keeps receiving) the
    per-bank open-row register, so a caller alternating between this
    scalar expansion and the columnar batch kernel hands the carried
    state back and forth and the combined stream stays bit-identical
    to a single-path run.
    """
    if clock <= 0:
        raise ValueError("clock must be positive")
    period = 1.0 / clock
    if open_rows is None:
        open_rows = {}
    for record in records:
        decoded = decoder.decode(record.address)
        bank = decoder.flat_bank(decoded)
        time = record.cycle * period
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
    source = source or str(path)
    with open_trace_lines(path, source) as lines:
        if fmt is None or fmt == "auto":
            fmt = "k6"
            head = []
            for line in lines:
                head.append(line)
                stripped = line.strip()
                if stripped and not stripped.startswith(("#", ";")):
                    fmt = detect_format(line)
                    break
            lines = itertools.chain(head, lines)
        yield from iter_records(lines, fmt, source=source)


def resolve_trace_format(path, fmt: Optional[str] = None) -> str:
    """The concrete format of a trace file: sniffed when ``fmt`` is
    ``None`` or ``"auto"``, passed through otherwise.

    Sharded replay needs the sniff done once in the parent so every
    worker parses with the same format.
    """
    if fmt is not None and fmt != "auto":
        return fmt
    with open_trace_lines(path) as lines:
        for line in lines:
            stripped = line.strip()
            if stripped and not stripped.startswith(("#", ";")):
                return detect_format(line)
    return "k6"


def _resolve_backend(backend: Optional[str]) -> str:
    if backend is None:
        return "auto"
    if backend != "auto" and backend not in TRACE_BACKENDS:
        raise TraceError(
            f"unknown trace backend {backend!r}; choose from "
            + "/".join(TRACE_BACKENDS + ("auto",)), 0.0, None)
    return backend


def replay_trace_file(model: DramPowerModel, path,
                      fmt: Optional[str] = None,
                      decoder: Optional[AddressDecoder] = None,
                      clock: float = DEFAULT_CLOCK,
                      strict: bool = False,
                      backend: str = "auto",
                      jobs: Optional[int] = None
                      ) -> Tuple[TraceAccumulator, str]:
    """Replay an external trace file on the chosen backend.

    Returns ``(accumulator, backend_used)``.  ``backend="auto"``
    weighs serial vs the columnar kernel vs rank-sharded processes
    (:func:`~repro.trace.columnar.choose_trace_backend`); every
    backend produces bit-for-bit identical aggregates, so the choice
    is purely a throughput decision.  Strict replay needs per-command
    timing state the batched paths discard, so ``vector`` and
    ``process`` reject ``strict=True``; ``auto`` quietly stays
    serial.  An explicit ``vector`` request without numpy degrades to
    serial and fires the one-time downgrade marker, exactly like
    :mod:`repro.engine.vector`.
    """
    from .columnar import (choose_trace_backend, columnar_available,
                           record_downgrade, replay_lines_columnar)
    if decoder is None:
        decoder = AddressDecoder.from_device(model.device)
    resolved_fmt = resolve_trace_format(path, fmt)
    backend = _resolve_backend(backend)
    if backend == "auto":
        try:
            size: Optional[int] = os.path.getsize(path)
        except OSError:
            size = None
        backend = choose_trace_backend(strict=strict,
                                       shards=decoder.num_shards,
                                       jobs=jobs, size_bytes=size)
    elif backend in ("vector", "process") and strict:
        raise TraceError(
            f"the {backend} backend replays batched/sharded and "
            "cannot honour strict=True; use backend='serial' for "
            "strict legality checking", 0.0, None)
    if backend == "vector" and not columnar_available():
        record_downgrade()
        backend = "serial"
    if backend == "vector":
        accumulator = TraceAccumulator(model, strict=False)
        with open_trace_lines(path) as lines:
            replay_lines_columnar(accumulator, lines, resolved_fmt,
                                  decoder, clock, source=str(path))
        return accumulator, "vector"
    if backend == "process":
        from .parallel import evaluate_file_sharded
        accumulator = evaluate_file_sharded(model, path, resolved_fmt,
                                            decoder, clock, jobs=jobs)
        return accumulator, "process"
    accumulator = TraceAccumulator(model, strict=strict)
    accumulator.feed(commands_from_records(
        read_trace(path, resolved_fmt), decoder, clock))
    return accumulator, "serial"


def evaluate_trace_file(model: DramPowerModel, path,
                        fmt: Optional[str] = None,
                        decoder: Optional[AddressDecoder] = None,
                        clock: float = DEFAULT_CLOCK,
                        strict: bool = False,
                        backend: str = "auto",
                        jobs: Optional[int] = None) -> TraceResult:
    """One-call evaluation of an external trace file."""
    accumulator, _ = replay_trace_file(model, path, fmt=fmt,
                                       decoder=decoder, clock=clock,
                                       strict=strict, backend=backend,
                                       jobs=jobs)
    return accumulator.result()


def accumulate_records(model: DramPowerModel,
                       records: Iterable[TraceRecord],
                       decoder: Optional[AddressDecoder] = None,
                       clock: float = DEFAULT_CLOCK,
                       strict: bool = False,
                       backend: str = "auto",
                       jobs: Optional[int] = None
                       ) -> TraceAccumulator:
    """Fold a record stream into a fresh :class:`TraceAccumulator`.

    ``backend="auto"`` picks the columnar kernel for lenient replay
    when numpy is present and serial otherwise — never processes,
    which would have to materialize the stream; an explicit
    ``backend="process"`` accepts that cost and runs the rank-sharded
    pool over the materialized records.
    """
    from .columnar import (columnar_available, record_downgrade,
                           replay_records_columnar)
    if decoder is None:
        decoder = AddressDecoder.from_device(model.device)
    backend = _resolve_backend(backend)
    if backend == "auto":
        backend = ("vector" if not strict and columnar_available()
                   else "serial")
        if not strict and not columnar_available():
            record_downgrade()
    elif backend in ("vector", "process") and strict:
        raise TraceError(
            f"the {backend} backend replays batched/sharded and "
            "cannot honour strict=True; use backend='serial' for "
            "strict legality checking", 0.0, None)
    if backend == "vector" and not columnar_available():
        record_downgrade()
        backend = "serial"
    if backend == "vector":
        accumulator = TraceAccumulator(model, strict=False)
        return replay_records_columnar(accumulator, records, decoder,
                                       clock)
    if backend == "process":
        from .parallel import replay_records_sharded
        return replay_records_sharded(model, list(records), decoder,
                                      clock, jobs=jobs)
    accumulator = TraceAccumulator(model, strict=strict)
    accumulator.feed(commands_from_records(records, decoder, clock))
    return accumulator
