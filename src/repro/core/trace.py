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

Two folds share the accumulator.  :meth:`TraceAccumulator.feed` is the
scalar one, a Python loop over :meth:`TraceAccumulator._step`: the
oracle, and the only fold without numpy.
:meth:`TraceAccumulator.feed_columnar` (what :func:`evaluate_trace`
runs) applies the same checks and register updates to
:data:`COMMANDS_PER_BATCH` commands at a time as array operations, in
both modes; a batch with any violation replays through ``_step``, so
errors and results are the scalar fold's, bit for bit.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    _np = None

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

#: Commands per batch of :meth:`TraceAccumulator.feed_columnar`: enough
#: to amortize numpy's per-call cost, few enough that a batch of
#: generator-made commands and its temporaries stay near 1 MB (about
#: 500 bytes a command).
COMMANDS_PER_BATCH = 2048

#: Command codes of the columnar fold (positions in ``Command``), looked
#: up by the member's plain string value: hashing an Enum member runs
#: Python code, hashing a ``str`` does not.
_CODE_BY_VALUE = {command._value_: code
                  for code, command in enumerate(Command)}
_ACT, _PRE, _RD, _WR, _REF, _NOP = (
    _CODE_BY_VALUE[command._value_] for command in (
        Command.ACT, Command.PRE, Command.RD, Command.WR, Command.REF,
        Command.NOP))

#: The commands whose latest time per bank is a timing register, in
#: register order: last ACT, PRE, REF, RD, and WR (write-data end).
_REGISTER_CODES = ((_ACT,), (_PRE,), (_REF,), (_RD,), (_WR,))


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
    """Issue time (s): finite, non-negative and non-decreasing along
    the trace."""
    command: Command
    """Command mnemonic (ACT / PRE / RD / WR / REF; NOP is ignored)."""
    bank: int = 0
    """Target bank."""
    row: int = 0
    """Target row (ACT and column accesses), non-negative — row-hit
    bookkeeping."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "command", Command(self.command))
        try:
            finite = math.isfinite(self.time)
        except OverflowError:  # an int beyond any float
            finite = False
        if not finite:
            raise TraceError("command time must be finite",
                             self.time, None)
        if self.time < 0:
            raise TraceError("command time must not be negative",
                             self.time, None)
        try:  # the columnar fold would read a bank or row of 1.5 as 1
            bank, row = operator.index(self.bank), operator.index(self.row)
        except TypeError:
            raise TraceError("bank and row must be integers",
                             self.time, None) from None
        if bank < 0:
            raise TraceError("bank must not be negative",
                             self.time, None)
        if row < 0:
            raise TraceError("row must not be negative",
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
    :meth:`feed` folds one command at a time; :meth:`feed_columnar`
    folds batches as array operations, with the same registers,
    results and errors, and either may follow the other.
    """

    def __init__(self, model: DramPowerModel, strict: bool = True):
        self.model = model
        self.strict = strict
        device = model.device
        self._device = device
        self._timing = device.timing
        self._n_banks = device.spec.banks
        self._banks_per_group = device.spec.banks_per_group
        self._burst = device.spec.burst_length / device.spec.datarate
        self._offsets = None  # per-command check offsets, built lazily
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
    # The columnar fold.
    # ------------------------------------------------------------------
    def feed_columnar(self, commands: Iterable[TraceCommand]
                      ) -> "TraceAccumulator":
        """Consume commands like :meth:`feed`, as array operations.

        Folds :data:`COMMANDS_PER_BATCH` commands at a time through
        :meth:`_fold_batch`.  A batch it cannot commit (a violation, or
        a bank or row beyond int64) replays through :meth:`feed` from
        the same state, so errors keep their text, index and time and
        results are the scalar fold's bit for bit.  Single pass over
        ``commands``; without numpy this is :meth:`feed`.
        """
        if _np is None:
            return self.feed(commands)
        iterator = iter(commands)
        for batch in iter(lambda: list(islice(iterator,
                                              COMMANDS_PER_BATCH)), []):
            if not self._fold_batch(batch):
                self.feed(batch)
        return self

    def _check_offsets(self):
        """Per-command-code offsets of the strict per-bank checks.

        Row ``i`` holds what command code ``c`` adds to the register
        ``i`` (last ACT, PRE, REF, RD, write-data end) before comparing
        with its own time, as in :meth:`_step` and
        :meth:`_check_activate`; ``-inf`` means code ``c`` does not
        check that register.
        """
        if self._offsets is None:
            timing = self._timing
            offsets = _np.full((5, len(_CODE_BY_VALUE)), -math.inf)
            offsets[0, [_ACT, _PRE, _RD, _WR]] = (
                timing.trc, timing.tras, timing.trcd, timing.trcd)
            offsets[1, [_ACT, _REF]] = timing.trp
            offsets[2, [_ACT, _REF]] = timing.trfc
            offsets[3, _PRE] = timing.trtp
            offsets[4, _PRE] = timing.twr
            self._offsets = offsets
        return self._offsets

    def _fold_batch(self, batch: List[TraceCommand]) -> bool:
        """Apply :meth:`_step` to a whole batch; False (and nothing
        committed) when the batch must replay scalar instead.

        A stable sort by bank makes each bank's commands one run.  A
        per-bank register before a command is then the latest command
        of its kind earlier in the run (a running maximum of
        positions), or the register carried in at the run's start.  The
        activate checks compare each ACT, in time order, with the
        previous ACT, the previous one in its bank group and the fourth
        one before it.  Each check assumes the commands before it were
        legal, so it is exact up to the first violation; any violation
        sends the whole batch scalar, which finds that one.
        """
        np = _np
        strict = self.strict
        try:
            times = np.array([entry.time for entry in batch], np.float64)
            banks = np.array([entry.bank for entry in batch], np.int64)
            rows = np.array([entry.row for entry in batch], np.int64)
        except OverflowError:
            return False
        kinds = np.array([_CODE_BY_VALUE[entry.command._value_]
                          for entry in batch], np.int8)
        if strict:
            if times[0] < self._previous \
                    or (times[1:] < times[:-1]).any():
                return False
        else:  # lenient: clamp to the latest time seen
            times = np.maximum.accumulate(times)
            np.maximum(times, self._previous, out=times)
        last_time = float(times[-1])
        live = kinds != _NOP  # NOPs only advance the index and clock
        if not live.all():
            times, kinds = times[live], kinds[live]
            banks, rows = banks[live], rows[live]
        if len(kinds):
            if strict:
                if int(banks.max()) >= self._n_banks:
                    return False
                activates = self._activate_registers(times, kinds, banks)
                if activates is None:
                    return False
            banked = self._bank_registers(times, kinds, banks, rows)
            if banked is None:
                return False
            run_banks, registers, hits, conflicts = banked
            # Commit: new banks join in order of first appearance.
            states = [self._banks.get(bank) for bank in run_banks]
            for i in sorted((i for i, state in enumerate(states)
                             if state is None),
                            key=registers[-1].__getitem__):
                states[i] = self._banks[run_banks[i]] = _BankState()
            for state, row, pending, act, pre, ref, read, write, _ in \
                    zip(states, *registers):
                state.active_row = None if row < 0 else row
                state.pending_access = pending
                state.last_act = act
                state.last_pre = pre
                state.last_ref = ref
                state.last_read = read
                state.write_data_end = write
            if strict:
                (self._act_window, self._last_act_time, groups,
                 group_times) = activates
                self._group_last_act.update(zip(groups, group_times))
            tally = np.bincount(kinds, minlength=len(_CODE_BY_VALUE))
            for command, count in zip(Command, tally.tolist()):
                if count:
                    self.counts[command] += count
            self._row_hits += hits
            self._row_conflicts += conflicts
        self._index += len(batch)
        self._previous = last_time
        if last_time > self._last_time:
            self._last_time = last_time
        return True

    def _activate_registers(self, times, kinds, banks):
        """tRRD, tRRD_L and tFAW of a strict batch's activates (in time
        order).  Returns the new activate window, last-activate time,
        and the groups and times to enter into the per-group register,
        or ``None`` on a violation."""
        np = _np
        act = kinds == _ACT
        if not act.any():
            return self._act_window, self._last_act_time, [], []
        timing = self._timing
        act_time = times[act]
        count = len(act_time)
        previous = np.empty(count)
        previous[0] = self._last_act_time
        previous[1:] = act_time[:-1]
        if (previous > act_time - timing.trrd + TIMING_EPSILON).any():
            return None
        groups = banks[act] // self._banks_per_group
        order = np.argsort(groups, kind="stable")
        group_sorted = groups[order]
        time_sorted = act_time[order]
        heads, _ = _runs(group_sorted)
        previous[1:] = time_sorted[:-1]
        previous[heads] = [
            self._group_last_act.get(group, -math.inf)
            for group in group_sorted[heads].tolist()]
        if (previous > time_sorted - timing.trrd_l
                + TIMING_EPSILON).any():
            return None
        # A window older than four activates is pruned already, so the
        # fourth activate before each one decides tFAW.
        window = list(self._act_window)[-4:]
        history = np.concatenate(
            ([-math.inf] * (4 - len(window)), window, act_time))
        if (history[:count] > act_time - timing.tfaw
                + TIMING_EPSILON).any():
            return None
        last = float(act_time[-1])
        horizon = last - timing.tfaw + TIMING_EPSILON
        kept = [value for value in history[count:count + 3].tolist()
                if value > horizon]
        return (deque(kept + [last]), last, groups.tolist(),
                act_time.tolist())

    def _bank_registers(self, times, kinds, banks, rows):
        """Per-bank checks and registers of a batch of non-NOP commands.

        Returns ``(run banks, registers, row hits, row conflicts)``,
        where ``registers`` holds per run bank the open row (-1 idle),
        pending flag, last ACT, PRE, REF and RD times, write-data end
        and first batch position; ``None`` on a strict violation or a
        carried row beyond int64.  The five time registers are the
        rows of one 2-D array, so each step is one numpy call.
        """
        np = _np
        order = np.argsort(banks, kind="stable")
        bank = banks[order]
        kind = kinds[order]
        time = times[order]
        row = rows[order]
        size = len(kind)
        heads, run = _runs(bank)
        ends = np.append(heads[1:], size) - 1
        start = heads[run]
        run_banks = bank[heads].tolist()
        carried = [self._banks.get(b) or _BankState() for b in run_banks]
        try:
            carried_row = np.array([-1 if s.active_row is None
                                    else s.active_row for s in carried],
                                   np.int64)
        except OverflowError:
            return None
        carried_pending = np.array([s.pending_access for s in carried])
        carried_times = np.array(
            [[s.last_act, s.last_pre, s.last_ref, s.last_read,
              s.write_data_end] for s in carried]).T
        # latest[i, j]: position of the latest command of register i's
        # kind at or before j (-1 when none).
        position = np.arange(size)
        latest = np.where(kind == _REGISTER_CODES, position, -1)
        np.maximum.accumulate(latest, axis=1, out=latest)
        latest_change = latest[:3].max(axis=0)  # ACT, PRE or REF
        is_act = kind == _ACT
        is_access = (kind == _RD) | (kind == _WR)
        # The open row after each ACT/PRE/REF, and before each command.
        opened = np.where(is_act, row, -1)
        change = _shifted(latest_change)
        own = change >= start
        open_row = np.where(own, opened[change], carried_row[run])
        matching = is_access & (row == open_row)
        if self.strict:
            before = _shifted(latest)
            value = time[before]
            value[4] += self._burst
            np.copyto(value, carried_times[:, run], where=before < start)
            value += self._check_offsets()[:, kind]
            value -= TIMING_EPSILON
            # PRE, RD and WR need an open row; ACT and REF an idle bank.
            needs_open = is_access | (kind == _PRE)
            if ((open_row >= 0) != needs_open).any() \
                    or (is_access & ~matching).any() \
                    or (time < value).any():
                return None
        # Row hits: every matching access but the first of each open
        # segment (a bank's commands after one ACT) whose activate
        # still waits for its paid-for access.
        matched = np.flatnonzero(matching)
        hits = len(matched)
        if hits:
            segment = np.where(own, change, -2 - run)[matched]
            first = matched[_runs(segment)[0]]
            hits -= int(np.count_nonzero(own[first]
                                         | carried_pending[run[first]]))
        conflicts = int(np.count_nonzero(is_access)) - len(matched)
        # Registers after each run's last command.
        last_change = latest_change[ends]
        changed = last_change >= heads
        final_row = np.where(changed, opened[last_change], carried_row)
        boundary = np.where(changed, last_change, heads - 1)
        last_match = np.maximum.accumulate(
            np.where(matching, position, -1))[ends]
        final_pending = (np.where(changed, is_act[last_change],
                                  carried_pending)
                         & (last_match <= boundary))
        at = latest[:, ends]
        value = time[at]
        value[4] += self._burst
        finals = np.where(at >= heads, value, carried_times).tolist()
        registers = (final_row.tolist(), final_pending.tolist(), *finals,
                     order[heads].tolist())
        return run_banks, registers, hits, conflicts

    # ------------------------------------------------------------------
    # Pre-aggregated batches are lenient-only: a count delta carries no
    # per-command timing, so it could not reproduce strict replay.
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


def _runs(keys):
    """Start positions of the runs of equal values in sorted ``keys``
    (non-empty), and the run number of every position."""
    head = _np.empty(len(keys), bool)
    head[0] = True
    _np.not_equal(keys[1:], keys[:-1], out=head[1:])
    return _np.flatnonzero(head), _np.cumsum(head) - 1


def _shifted(latest):
    """``latest`` moved one position later along its last axis: the
    latest masked position strictly before each position (-1 when
    none)."""
    shifted = _np.empty_like(latest)
    shifted[..., 0] = -1
    shifted[..., 1:] = latest[..., :-1]
    return shifted


def evaluate_trace(model: DramPowerModel,
                   commands: Iterable[TraceCommand],
                   strict: bool = True) -> TraceResult:
    """Replay a trace against the model and integrate its energy.

    Streams ``commands`` in a single pass (generators welcome; the
    trace is never materialized beyond one batch).  With ``strict``
    (default) every protocol and timing violation raises
    :class:`TraceError`; with ``strict=False`` the trace is priced as
    given (useful for approximate traces from external simulators).
    Runs :meth:`TraceAccumulator.feed_columnar`: array operations with
    numpy, the scalar fold without; the result and any error are the
    scalar fold's either way.
    """
    return TraceAccumulator(model, strict=strict).feed_columnar(
        commands).result()


def trace_power(model: DramPowerModel,
                commands: Iterable[TraceCommand],
                strict: bool = True) -> Tuple[float, float]:
    """(average power W, average Vdd current A) of a trace."""
    result = evaluate_trace(model, commands, strict=strict)
    power = result.average_power
    return power, power / model.device.voltages.vdd
