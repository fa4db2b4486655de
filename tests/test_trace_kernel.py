"""Differential tests: the columnar command fold against the scalar oracle.

:meth:`TraceAccumulator.feed_columnar` must be indistinguishable from
:meth:`TraceAccumulator.feed`, the scalar oracle: equal results under
``==`` and ``repr``, or equal errors (text, index and time), and in
lenient mode an equal fold state (:func:`lenient_state`).  Inputs are
legal traces from the scheduler, hand-built refresh and NOP
sequences, and one-command mutations of both; each runs in both
modes, at several batch sizes, and with kernel batches interleaved
with scalar chunks.
"""

import contextlib
import json
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro import DramPowerModel
from repro.core import trace as core_trace
from repro.core.trace import (TraceAccumulator, TraceCommand, TraceError,
                              evaluate_trace)
from repro.description import Command
from repro.devices import build_device
from repro.engine import numpy_available
from repro.workloads import (Request, copy_trace, random_trace,
                             schedule_frfcfs, streaming_trace)

pytestmark = pytest.mark.skipif(not numpy_available(),
                                reason="numpy not installed")

#: The 55 nm DDR3 device (one bank group) and the 31 nm DDR4 device,
#: whose four bank groups make tRRD_L bind.
NODES = (55, 31)

BATCH_SIZES = (1, 2, 7, core_trace.COMMANDS_PER_BATCH)

GENERATORS = ("random", "streaming", "copy", "frfcfs-open",
              "frfcfs-closed")

#: How far a mutated command moves earlier (s): around the timing
#: epsilon, and around the timing parameters.
EARLIER = (5e-13, 2e-12, 1e-9, 5e-9, 2e-8, 1e-7)


@lru_cache(maxsize=None)
def model_of(node):
    return DramPowerModel(build_device(node))


@contextlib.contextmanager
def batch_size(size):
    saved = core_trace.COMMANDS_PER_BATCH
    core_trace.COMMANDS_PER_BATCH = size
    try:
        yield
    finally:
        core_trace.COMMANDS_PER_BATCH = saved


def scheduled(node, generator, size, seed):
    """A timing-legal trace from the scheduler."""
    device = model_of(node).device
    if generator == "random":
        return random_trace(device, size, row_hit_rate=0.5, seed=seed,
                            with_refresh=True)
    if generator == "streaming":
        return streaming_trace(device, size, read_fraction=0.75)
    if generator == "copy":
        return copy_trace(device, 1 + size % 2, banks_apart=1 + seed % 3)
    rng = random.Random(seed)
    requests = [Request(bank=rng.randrange(device.spec.banks),
                        row=rng.randrange(4), is_write=rng.random() < 0.3)
                for _ in range(size)]
    return schedule_frfcfs(device, requests, window=4,
                           policy=generator.split("-")[1])


def protocol_walk(node, steps):
    """Hand-built commands, REF and NOP included, that respect the
    bank protocol (ACT and REF on idle banks, RD, WR and PRE on open
    ones) at drawn time gaps, legal or not."""
    device = model_of(node).device
    timing = device.timing
    gaps = (0.0, timing.trcd, timing.trp, timing.tras, timing.trrd,
            timing.trrd_l, timing.tfaw / 4, timing.trc, timing.trfc,
            timing.trfc + timing.trc)
    open_rows = {}
    now = 0.0
    commands = []
    for bank, choice, gap, row in steps:
        bank %= device.spec.banks
        now += gaps[gap % len(gaps)]
        if bank in open_rows:
            command = (Command.RD, Command.WR, Command.PRE,
                       Command.NOP)[choice]
            row = open_rows[bank]
        else:
            command = (Command.ACT, Command.REF, Command.NOP,
                       Command.REF)[choice]
        if command is Command.ACT:
            open_rows[bank] = row
        elif command is Command.PRE:
            del open_rows[bank]
        commands.append(TraceCommand(now, command, bank, row))
    return commands


def mutate(commands, mutation, where, choice, n_banks):
    """``commands`` with one command moved earlier, changed in kind
    (NOP included), row or bank (up to one past the last bank), or
    dropped."""
    if mutation == "none" or not commands:
        return list(commands)
    commands = list(commands)
    index = where % len(commands)
    entry = commands[index]
    if mutation == "drop":
        del commands[index]
        return commands
    time, command, bank, row = (entry.time, entry.command, entry.bank,
                                entry.row)
    if mutation == "earlier":
        time = max(0.0, time - EARLIER[choice % len(EARLIER)])
    elif mutation == "kind":
        command = list(Command)[choice % len(Command)]
    elif mutation == "row":
        row += 1 + choice % 3
    else:
        bank = choice % (n_banks + 1)
    commands[index] = TraceCommand(time, command, bank, row)
    return commands


def lenient_state(accumulator):
    """The whole lenient fold state: counts, hit and conflict tallies,
    command count, time watermarks, and each bank's open row and
    pending flag."""
    return {"counts": {command.value: count for command, count
                       in accumulator.counts.items()},
            "row_hits": accumulator._row_hits,
            "row_conflicts": accumulator._row_conflicts,
            "commands": accumulator._index,
            "last_time": accumulator._last_time,
            "previous": accumulator._previous,
            "banks": {bank: [state.active_row, state.pending_access]
                      for bank, state in accumulator._banks.items()}}


def outcome(model, strict, feed):
    """Everything a fold shows: its result (under ``==`` and
    ``repr``), lenient state and command count, or its error."""
    accumulator = TraceAccumulator(model, strict)
    try:
        feed(accumulator)
    except TraceError as exc:
        return ("error", str(exc), exc.index, exc.time)
    result = accumulator.result()
    state = None if strict else lenient_state(accumulator)
    return ("result", result, repr(result), state,
            accumulator.commands_seen)


def assert_parity(model, commands, strict):
    """The kernel at every batch size, and interleaved with scalar
    chunks, shows what the scalar fold shows."""
    expected = outcome(model, strict, lambda acc: acc.feed(commands))
    for size in BATCH_SIZES:
        with batch_size(size):
            got = outcome(model, strict,
                          lambda acc: acc.feed_columnar(iter(commands)))
        assert got == expected, f"batch size {size}"

    def interleaved(accumulator):
        for start in range(0, len(commands), 5):
            chunk = commands[start:start + 5]
            if start // 5 % 2:
                accumulator.feed(chunk)
            else:
                accumulator.feed_columnar(chunk)

    with batch_size(2):
        assert outcome(model, strict, interleaved) == expected, \
            "interleaved"
    return expected


mutations = st.sampled_from(("none", "earlier", "kind", "row", "bank",
                             "drop"))


@settings(max_examples=60, deadline=None)
@given(node=st.sampled_from(NODES), generator=st.sampled_from(GENERATORS),
       size=st.integers(1, 24), seed=st.integers(0, 2 ** 16),
       mutation=mutations, where=st.integers(0, 10 ** 6),
       choice=st.integers(0, 10 ** 6))
def test_scheduled_traces(node, generator, size, seed, mutation, where,
                          choice):
    model = model_of(node)
    commands = mutate(scheduled(node, generator, size, seed), mutation,
                      where, choice, model.device.spec.banks)
    for strict in (True, False):
        expected = assert_parity(model, commands, strict)
        if mutation == "none":
            assert expected[0] == "result"


@settings(max_examples=60, deadline=None)
@given(node=st.sampled_from(NODES),
       steps=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3),
                                st.integers(0, 9), st.integers(0, 2)),
                      min_size=1, max_size=40),
       mutation=mutations, where=st.integers(0, 10 ** 6),
       choice=st.integers(0, 10 ** 6))
def test_protocol_walks(node, steps, mutation, where, choice):
    model = model_of(node)
    commands = mutate(protocol_walk(node, steps), mutation, where,
                      choice, model.device.spec.banks)
    for strict in (True, False):
        assert_parity(model, commands, strict)


def legal_refresh_trace(timing):
    """ACT, RD, WR, PRE, REF, REF, NOP and ACT again on two banks,
    each at the earliest legal time."""
    commands = []
    for bank in (0, 1):
        base = bank * (3 * timing.trfc + 3 * timing.trc)
        act = base
        write = act + timing.trcd
        pre = max(act + timing.tras, write + 5e-9 + timing.twr)
        first_ref = pre + timing.trp
        second_ref = first_ref + timing.trfc
        commands += [
            TraceCommand(act, Command.ACT, bank, 3),
            TraceCommand(act + timing.trcd, Command.RD, bank, 3),
            TraceCommand(write, Command.WR, bank, 3),
            TraceCommand(pre, Command.PRE, bank),
            TraceCommand(first_ref, Command.REF, bank),
            TraceCommand(second_ref, Command.NOP),
            TraceCommand(second_ref, Command.REF, bank),
            TraceCommand(second_ref + timing.trfc, Command.ACT, bank, 5),
            TraceCommand(second_ref + timing.trfc + timing.trcd,
                         Command.RD, bank, 5),
            TraceCommand(second_ref + timing.trfc + timing.trc,
                         Command.PRE, bank),
        ]
    return commands


@pytest.mark.parametrize("node", NODES)
def test_hand_built_refresh_sequences(node):
    model = model_of(node)
    timing = model.device.timing
    commands = legal_refresh_trace(timing)
    for strict in (True, False):
        assert assert_parity(model, commands, strict)[0] == "result"
    too_soon = [TraceCommand(0.0, Command.REF, 0),
                TraceCommand(timing.trfc / 2, Command.REF, 0)]
    on_active = [TraceCommand(0.0, Command.ACT, 0, 1),
                 TraceCommand(timing.tras, Command.REF, 0)]
    after_pre = [TraceCommand(0.0, Command.ACT, 0, 1),
                 TraceCommand(timing.tras, Command.PRE, 0),
                 TraceCommand(timing.tras + timing.trp / 2,
                              Command.REF, 0)]
    for commands, message in ((too_soon, "tRFC violation"),
                              (on_active, "refresh on active bank"),
                              (after_pre, "tRP violation before")):
        assert message in assert_parity(model, commands, True)[1]
        assert assert_parity(model, commands, False)[0] == "result"


@pytest.mark.parametrize("node", NODES)
@pytest.mark.parametrize("generator", GENERATORS + ("refresh",))
def test_legal_trace_never_reaches_step(node, generator, monkeypatch):
    model = model_of(node)
    if generator == "refresh":
        commands = legal_refresh_trace(model.device.timing)
    else:
        commands = scheduled(node, generator, 400, seed=5)
    expected = {strict: evaluate_trace(model, commands, strict=strict)
                for strict in (True, False)}

    def refuse(self, entry):
        raise AssertionError("the scalar fold ran")

    monkeypatch.setattr(TraceAccumulator, "_step", refuse)
    for strict in (True, False):
        for size in (7, core_trace.COMMANDS_PER_BATCH):
            with batch_size(size):
                result = evaluate_trace(model, iter(commands),
                                        strict=strict)
            assert repr(result) == repr(expected[strict])


def test_nops_advance_index_and_clock_but_are_not_counted():
    model = model_of(55)
    commands = [TraceCommand(1e-9, Command.NOP),
                TraceCommand(2e-9, Command.ACT, 0, 1),
                TraceCommand(3e-6, Command.NOP, 99)]
    for strict in (True, False):
        expected = assert_parity(model, commands, strict)
        assert expected[1].counts[Command.NOP] == 0
        assert expected[-1] == 3
    only_nops = [TraceCommand(1e-9 * i, Command.NOP) for i in range(9)]
    for strict in (True, False):
        assert assert_parity(model, only_nops, strict)[0] == "result"


def test_lenient_conflict_keeps_the_activate_pending():
    """A conflicting access leaves the pending flag set; the next
    matching access is still the miss its activate paid for."""
    model = model_of(55)
    commands = [TraceCommand(0.0, Command.ACT, 0, 1),
                TraceCommand(1e-9, Command.RD, 0, 2),
                TraceCommand(2e-9, Command.RD, 0, 1),
                TraceCommand(3e-9, Command.RD, 0, 1),
                TraceCommand(4e-9, Command.RD, 1, 0)]
    expected = assert_parity(model, commands, False)
    assert (expected[1].row_hits, expected[1].row_conflicts) == (1, 2)


def test_lenient_out_of_order_times_clamp():
    model = model_of(55)
    commands = [TraceCommand(5e-9, Command.ACT, 0, 1),
                TraceCommand(1e-9, Command.RD, 0, 1),
                TraceCommand(9e-9, Command.PRE, 0),
                TraceCommand(2e-9, Command.ACT, 2, 1)]
    assert assert_parity(model, commands, False)[0] == "result"
    assert "non-decreasing" in assert_parity(model, commands, True)[1]


@pytest.mark.parametrize("strict", [True, False])
def test_integers_beyond_int64_fold_scalar(strict):
    model = model_of(55)
    huge = 2 ** 70
    commands = [TraceCommand(0.0, Command.ACT, 1, huge),
                TraceCommand(2e-8, Command.RD, 1, huge),
                TraceCommand(4e-8, Command.RD, 1, huge),
                TraceCommand(6e-8, Command.ACT, huge, 1)]
    # At batch size 1 the access after the huge-row activate carries
    # that row in from the previous batch.
    assert_parity(model, commands, strict)


def test_registers_hold_python_numbers():
    """Counts and registers are Python ints and floats: a ``/trace``
    reply must encode as JSON, and ``repr`` must match the scalar
    result's."""
    model = model_of(31)
    commands = scheduled(31, "random", 300, seed=2)
    for strict in (True, False):
        accumulator = TraceAccumulator(model, strict)
        accumulator.feed_columnar(commands)
        assert all(type(count) is int
                   for count in accumulator.counts.values())
        assert type(accumulator.row_hits) is int
        assert type(accumulator.row_conflicts) is int
        for state in accumulator._banks.values():
            assert type(state.active_row) in (int, type(None))
            assert type(state.pending_access) is bool
            for value in (state.last_act, state.last_pre, state.last_ref,
                          state.last_read, state.write_data_end):
                assert type(value) is float
        if strict:
            assert all(type(value) is float
                       for value in accumulator._act_window)
            assert all(type(group) is int and type(value) is float
                       for group, value
                       in accumulator._group_last_act.items())
        else:
            json.dumps(lenient_state(accumulator))
        json.dumps({command.value: count for command, count
                    in accumulator.result().counts.items()})
