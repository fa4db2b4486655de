"""Timed command-trace evaluation (streaming, constant memory).

The paper's pattern mechanism evaluates a steady-state loop; system
studies (the §V references: memory-controller power management, mini-rank
scheduling…) need to price an arbitrary *trace* of timed commands.  This
module provides that: a bank-state machine with full timing-legality
checking (tRC, tRRD, tFAW, tRCD, tRAS, tRP, tRFC) and energy integration
over the trace.

Energy accounting is identical to the pattern engine: each command
occurrence costs its per-operation energy, the background runs for the
trace duration, and each :attr:`Command.REF` costs ``rows_per_refresh``
row cycles — an activate + precharge energy pair per refreshed row,
mirroring the IDD5B construction in :mod:`repro.core.idd`.

Evaluation is a single-pass fold over the command iterable:
:class:`TraceAccumulator` holds only per-bank protocol state and the
running counts, so traces of any length evaluate in bounded memory and
can be fed in chunks with :meth:`TraceAccumulator.snapshot` exposing
intermediate aggregates.  Because the final energy is computed purely
from the accumulated counts, chunked and one-shot evaluation are
bit-for-bit identical.

Strictness: with ``strict=True`` every protocol and timing violation
raises :class:`TraceError`; with ``strict=False`` the trace is priced as
given — out-of-order timestamps (common in merged external simulator
traces) are clamped to the latest time seen, and accesses to a row other
than the open one are tallied as ``row_conflicts`` instead of raising.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..description import Command
from ..errors import ModelError
from .model import DramPowerModel
from .operations import EnergyBreakdown


#: Tolerance for timing comparisons (s) — absorbs float rounding when
#: commands sit exactly on a timing boundary.
TIMING_EPSILON = 1e-12

#: Commands priced directly from their per-operation energy, in the
#: fixed order the energy fold adds them (order is part of the
#: bit-for-bit parity contract between chunked and one-shot paths).
_PRICED_COMMANDS = (Command.ACT, Command.PRE, Command.RD, Command.WR)


class TraceError(ModelError):
    """A trace is illegal: protocol or timing violation.

    ``index`` is the zero-based position of the offending command when
    known; validation errors raised before a command joins a trace
    (e.g. from :meth:`TraceCommand.__post_init__`) carry ``index=None``
    and format without positional context.
    """

    def __init__(self, message: str, time: float = 0.0,
                 index: Optional[int] = 0):
        self.time = time
        self.index = index
        if index is None:
            super().__init__(message)
        else:
            super().__init__(f"command {index} @ {time * 1e9:.2f} ns: "
                             f"{message}")


@dataclass(frozen=True)
class TraceCommand:
    """One timed command of a trace."""

    time: float
    """Issue time (s), non-decreasing along the trace."""
    command: Command
    """Command mnemonic (ACT / PRE / RD / WR / REF; NOP is ignored)."""
    bank: int = 0
    """Target bank."""
    row: int = 0
    """Target row (ACT and column accesses) — row-hit bookkeeping."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "command", Command(self.command))
        if self.time < 0:
            raise TraceError("command time must not be negative",
                             self.time, None)
        if self.bank < 0:
            raise TraceError("bank must not be negative",
                             self.time, None)


@dataclass
class _BankState:
    """Protocol state of one bank during trace replay."""

    active_row: Optional[int] = None
    last_act: float = float("-inf")
    last_pre: float = float("-inf")
    last_ref: float = float("-inf")
    last_read: float = float("-inf")
    write_data_end: float = float("-inf")
    pending_access: bool = field(default=False)
    """True between an ACT and its first matching column access (that
    first access is the row miss the ACT paid for, not a hit)."""

    @property
    def is_active(self) -> bool:
        return self.active_row is not None


@dataclass(frozen=True)
class TraceResult:
    """Energy and statistics of one evaluated trace."""

    device_name: str
    vdd: float
    """External supply voltage of the device (V)."""
    duration: float
    """Trace duration (s): last command time + one row cycle."""
    counts: Dict[Command, int]
    """Commands executed, by type."""
    energy: float
    """Total energy drawn from Vdd (J), including background."""
    breakdown: EnergyBreakdown
    """Energy by component category (J)."""
    data_bits: float
    """Bits transferred by the reads and writes of the trace."""
    row_hits: int
    """Column accesses that reused the already-open row."""
    row_misses: int
    """Activates issued (each opens a row for subsequent accesses)."""
    row_conflicts: int = 0
    """Column accesses addressed to a row other than the open one
    (only tallied with ``strict=False``; strict replay raises)."""

    @property
    def average_power(self) -> float:
        """Mean power over the trace (W)."""
        return self.energy / self.duration

    @property
    def average_current(self) -> float:
        """Mean Vdd current over the trace (A)."""
        return self.average_power / self.vdd

    @property
    def energy_per_bit(self) -> float:
        """Energy per transferred bit (J); inf for a data-free trace."""
        if self.data_bits <= 0:
            return float("inf")
        return self.energy / self.data_bits

    @property
    def row_hit_rate(self) -> float:
        """Fraction of column accesses hitting the open row."""
        total = self.row_hits + self.row_misses + self.row_conflicts
        if total == 0:
            return 0.0
        return self.row_hits / total


class TraceAccumulator:
    """Streaming trace evaluator: feed commands in chunks, snapshot
    aggregates at any point.

    Holds per-bank protocol state, the rolling tFAW activate window and
    per-command counts — memory is O(banks), independent of trace
    length.  :meth:`snapshot` (and its alias :meth:`result`) derive the
    energy breakdown purely from the counts, so any chunking of the
    same command stream yields bit-for-bit identical results.
    """

    def __init__(self, model: DramPowerModel, strict: bool = True):
        self.model = model
        self.strict = strict
        device = model.device
        self._device = device
        self._timing = device.timing
        self._n_banks = device.spec.banks
        self._burst = device.spec.burst_length / device.spec.datarate
        self._banks: Dict[int, _BankState] = {}
        # Strict-mode activation bookkeeping.  The window holds only
        # the activate times still inside the tFAW horizon (pruned
        # incrementally, so it never exceeds four entries on a legal
        # trace); the two "last activate" registers answer the tRRD
        # and tRRD_L checks in O(1) instead of scanning the window.
        # Lenient replay never reads any of them, so it skips the
        # maintenance entirely — O(1) time and O(banks) memory per
        # command even for ACT-dense traces.
        self._act_window: deque = deque()
        self._last_act_time = float("-inf")
        self._group_last_act: Dict[int, float] = {}
        self.counts: Dict[Command, int] = {c: 0 for c in Command}
        self._last_time = 0.0
        self._previous = float("-inf")
        self._row_hits = 0
        self._row_conflicts = 0
        self._index = 0

    @property
    def commands_seen(self) -> int:
        """Commands consumed so far (including NOPs)."""
        return self._index

    @property
    def row_hits(self) -> int:
        return self._row_hits

    @property
    def row_conflicts(self) -> int:
        return self._row_conflicts

    # ------------------------------------------------------------------
    def feed(self, commands: Iterable[TraceCommand]) -> "TraceAccumulator":
        """Consume a chunk of commands; returns self for chaining."""
        for entry in commands:
            self._step(entry)
        return self

    def _step(self, entry: TraceCommand) -> None:
        index = self._index
        self._index = index + 1
        time = entry.time
        if time < self._previous:
            if self.strict:
                raise TraceError("trace times must be non-decreasing",
                                 time, index)
            # Lenient: clamp stragglers to the latest time seen so the
            # bank-state machine stays monotonic (documented policy for
            # merged external simulator traces).
            time = self._previous
        self._previous = time
        if time > self._last_time:
            self._last_time = time
        command = entry.command
        if command is Command.NOP:
            return
        if self.strict and entry.bank >= self._n_banks:
            raise TraceError(
                f"bank {entry.bank} outside 0..{self._n_banks - 1}",
                time, index,
            )
        state = self._banks.setdefault(entry.bank, _BankState())
        timing = self._timing
        if command is Command.ACT:
            if self.strict:
                group = self._device.spec.bank_group_of(entry.bank) \
                    if entry.bank < self._n_banks else 0
                self._check_activate(entry, time, index, state, group)
                self._act_window.append(time)
                self._last_act_time = time
                self._group_last_act[group] = time
            state.active_row = entry.row
            state.last_act = time
            state.pending_access = True
        elif command is Command.PRE:
            if self.strict and not state.is_active:
                raise TraceError(f"precharge on idle bank {entry.bank}",
                                 time, index)
            if self.strict and time < state.last_act + timing.tras \
                    - TIMING_EPSILON:
                raise TraceError(
                    f"tRAS violation on bank {entry.bank}",
                    time, index,
                )
            if self.strict and time < state.last_read + timing.trtp \
                    - TIMING_EPSILON:
                raise TraceError(
                    f"tRTP violation on bank {entry.bank}",
                    time, index,
                )
            if self.strict and time < state.write_data_end \
                    + timing.twr - TIMING_EPSILON:
                raise TraceError(
                    f"tWR violation on bank {entry.bank}",
                    time, index,
                )
            state.active_row = None
            state.pending_access = False
            state.last_pre = time
        elif command is Command.REF:
            if self.strict and state.is_active:
                raise TraceError(
                    f"refresh on active bank {entry.bank}",
                    time, index,
                )
            if self.strict and time < state.last_pre + timing.trp \
                    - TIMING_EPSILON:
                raise TraceError(
                    f"tRP violation before refresh on bank {entry.bank}",
                    time, index,
                )
            if self.strict and time < state.last_ref + timing.trfc \
                    - TIMING_EPSILON:
                raise TraceError(
                    f"tRFC violation on bank {entry.bank}",
                    time, index,
                )
            state.active_row = None
            state.pending_access = False
            state.last_ref = time
        elif command in (Command.RD, Command.WR):
            if self.strict and not state.is_active:
                raise TraceError(
                    f"column access on idle bank {entry.bank}",
                    time, index,
                )
            if self.strict and time < state.last_act + timing.trcd \
                    - TIMING_EPSILON:
                raise TraceError(
                    f"tRCD violation on bank {entry.bank}",
                    time, index,
                )
            if state.active_row == entry.row:
                if state.pending_access:
                    # The miss this bank's activate already paid for.
                    state.pending_access = False
                else:
                    self._row_hits += 1
            else:
                if self.strict:
                    raise TraceError(
                        f"access to row {entry.row} on bank "
                        f"{entry.bank} with row {state.active_row} "
                        f"open", time, index,
                    )
                self._row_conflicts += 1
            if command is Command.RD:
                state.last_read = time
            else:
                state.write_data_end = time + self._burst
        self.counts[command] += 1

    def _check_activate(self, entry: TraceCommand, time: float,
                        index: int, state: _BankState,
                        group: int) -> None:
        """Strict-mode legality of one activate, in O(1).

        The window is pruned to the tFAW horizon before the checks, so
        its length *is* the rolling four-activate count; tRRD and
        tRRD_L read the scalar last-activate registers (times are
        non-decreasing under strict replay, so the most recent
        activate is always the binding one).
        """
        timing = self._timing
        if state.is_active:
            raise TraceError(
                f"activate on already-active bank {entry.bank}",
                time, index)
        if time < state.last_act + timing.trc - TIMING_EPSILON:
            raise TraceError(f"tRC violation on bank {entry.bank}",
                             time, index)
        if time < state.last_pre + timing.trp - TIMING_EPSILON:
            raise TraceError(f"tRP violation on bank {entry.bank}",
                             time, index)
        if time < state.last_ref + timing.trfc - TIMING_EPSILON:
            raise TraceError(f"tRFC violation on bank {entry.bank}",
                             time, index)
        window = self._act_window
        while window and window[0] <= time - timing.tfaw \
                + TIMING_EPSILON:
            window.popleft()
        if self._last_act_time > time - timing.trrd + TIMING_EPSILON:
            raise TraceError("tRRD violation", time, index)
        last_in_group = self._group_last_act.get(group)
        if last_in_group is not None and last_in_group \
                > time - timing.trrd_l + TIMING_EPSILON:
            raise TraceError("tRRD_L violation (same bank group)",
                             time, index)
        if len(window) >= 4:
            raise TraceError("tFAW violation", time, index)

    # ------------------------------------------------------------------
    # Batched and sharded replay.  Both are lenient-only: the columnar
    # fold carries no per-command timing state, and strict legality
    # (the activate window) is global across banks, so neither batches
    # nor (channel, rank) shards could reproduce strict replay.
    # ------------------------------------------------------------------
    def absorb_batch(self, counts: Mapping[Command, int],
                     row_hits: int, commands: int, last_time: float,
                     bank_rows: Optional[Mapping[int, Optional[int]]]
                     = None,
                     row_conflicts: int = 0) -> None:
        """Fold one pre-aggregated command batch into this accumulator.

        The columnar kernel reduces a batch of expanded commands to
        count deltas; this applies them so that the subsequent
        :meth:`snapshot` is bit-for-bit identical to having fed the
        same commands through :meth:`feed`.  ``bank_rows`` carries the
        open row (or ``None``) left on every bank the batch touched,
        keeping the per-bank state consistent for any later scalar
        :meth:`feed` on the same accumulator.
        """
        if self.strict:
            raise TraceError(
                "batched absorption requires strict=False replay",
                0.0, None)
        for command, count in counts.items():
            if count:
                self.counts[command] += count
        self._row_hits += row_hits
        self._row_conflicts += row_conflicts
        self._index += commands
        if last_time > self._last_time:
            self._last_time = last_time
        if last_time > self._previous:
            self._previous = last_time
        if bank_rows:
            for bank, row in bank_rows.items():
                state = self._banks.setdefault(bank, _BankState())
                state.active_row = row
                state.pending_access = False

    def export_state(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the lenient replay state.

        Carries everything :meth:`merge_state` needs to combine shard
        replays exactly: the counts, hit/conflict tallies, time
        watermarks (``-inf`` encodes as ``None``) and per-bank open
        rows.  Floats round-trip JSON losslessly, so a state that
        travelled through a job journal merges bit-for-bit
        identically to the in-memory object.
        """
        if self.strict:
            raise TraceError(
                "state export requires strict=False replay", 0.0, None)
        previous = (None if self._previous == float("-inf")
                    else self._previous)
        return {
            "device": self._device.name,
            "counts": {command.value: count
                       for command, count in self.counts.items()},
            "row_hits": self._row_hits,
            "row_conflicts": self._row_conflicts,
            "commands": self._index,
            "last_time": self._last_time,
            "previous": previous,
            "banks": {str(bank): [state.active_row,
                                  state.pending_access]
                      for bank, state in self._banks.items()},
        }

    def merge_state(self, state: Mapping[str, Any]) -> None:
        """Merge one exported shard state into this accumulator.

        Exact by construction when shards partition the trace by
        ``(channel, rank)``: the flat bank sets are disjoint (the
        shard index occupies the top bits of every flat bank), counts
        and tallies are integer sums, the time watermarks are maxima,
        and :meth:`snapshot` derives energy from the merged counts
        through the same code path as serial replay — so the merged
        result is byte-identical to a serial one-shot fold.
        """
        if self.strict:
            raise TraceError(
                "merging requires strict=False replay", 0.0, None)
        if state.get("device") != self._device.name:
            raise TraceError(
                f"cannot merge state of device {state.get('device')!r}"
                f" into {self._device.name!r}", 0.0, None)
        banks = {int(bank): value
                 for bank, value in state.get("banks", {}).items()}
        overlap = self._banks.keys() & banks.keys()
        if overlap:
            raise TraceError(
                "cannot merge overlapping bank states (banks "
                f"{sorted(overlap)[:4]}...); shards must partition "
                "the trace by (channel, rank)", 0.0, None)
        for name, count in state["counts"].items():
            self.counts[Command(name)] += count
        self._row_hits += state["row_hits"]
        self._row_conflicts += state["row_conflicts"]
        self._index += state["commands"]
        if state["last_time"] > self._last_time:
            self._last_time = state["last_time"]
        previous = state.get("previous")
        if previous is not None and previous > self._previous:
            self._previous = previous
        for bank, (row, pending) in banks.items():
            self._banks[bank] = _BankState(active_row=row,
                                           pending_access=pending)

    def merge(self, other: "TraceAccumulator") -> "TraceAccumulator":
        """Fold another accumulator's shard into this one.

        See :meth:`merge_state` for the exactness argument; returns
        self for chaining.
        """
        self.merge_state(other.export_state())
        return self

    # ------------------------------------------------------------------
    def snapshot(self) -> TraceResult:
        """Aggregates over everything fed so far.

        Cheap (O(components)); safe to call between chunks.  The final
        call is identical to one-shot evaluation of the whole trace.
        """
        device = self._device
        timing = self._timing
        counts = dict(self.counts)
        duration = self._last_time + timing.trc
        breakdown = self.model.energies.background_power.scaled(duration)
        for command in _PRICED_COMMANDS:
            if counts[command]:
                breakdown = breakdown + self.model.energies \
                    .operation_energy(command).scaled(counts[command])
        if counts[Command.REF]:
            refresh_rows = counts[Command.REF] * timing.rows_per_refresh
            row_cycle = (self.model.energies.operation_energy(Command.ACT)
                         + self.model.energies.operation_energy(
                             Command.PRE))
            breakdown = breakdown + row_cycle.scaled(refresh_rows)
        data_bits = ((counts[Command.RD] + counts[Command.WR])
                     * device.spec.bits_per_access)
        return TraceResult(
            device_name=device.name,
            vdd=device.voltages.vdd,
            duration=duration,
            counts=counts,
            energy=breakdown.total,
            breakdown=breakdown,
            data_bits=float(data_bits),
            row_hits=self._row_hits,
            row_misses=counts[Command.ACT],
            row_conflicts=self._row_conflicts,
        )

    def result(self) -> TraceResult:
        """Final aggregates (alias of :meth:`snapshot`)."""
        return self.snapshot()


def evaluate_trace(model: DramPowerModel,
                   commands: Iterable[TraceCommand],
                   strict: bool = True) -> TraceResult:
    """Replay a trace against the model and integrate its energy.

    Streams ``commands`` in a single pass (generators welcome; the
    trace is never materialized).  With ``strict`` (default) every
    protocol and timing violation raises :class:`TraceError`; with
    ``strict=False`` the trace is priced as given (useful for
    approximate traces from external simulators).
    """
    return TraceAccumulator(model, strict=strict).feed(commands).result()


def trace_power(model: DramPowerModel,
                commands: Iterable[TraceCommand],
                strict: bool = True) -> Tuple[float, float]:
    """(average power W, average Vdd current A) of a trace."""
    result = evaluate_trace(model, commands, strict=strict)
    power = result.average_power
    return power, power / model.device.voltages.vdd
