"""Tests for the timed command-trace engine."""

import tracemalloc

import pytest

from repro.core.trace import (TraceAccumulator, TraceCommand, TraceError,
                              evaluate_trace)
from repro.description import Command
from repro.errors import ModelError


def ns(value):
    return value * 1e-9


def simple_trace(timing):
    """One legal row cycle with a read."""
    return [
        TraceCommand(ns(0), Command.ACT, bank=0, row=5),
        TraceCommand(timing.trcd, Command.RD, bank=0, row=5),
        TraceCommand(timing.tras, Command.PRE, bank=0),
    ]


class TestLegalTraces:
    def test_simple_cycle(self, ddr3_model):
        result = evaluate_trace(ddr3_model,
                                simple_trace(ddr3_model.device.timing))
        assert result.counts[Command.ACT] == 1
        assert result.counts[Command.RD] == 1
        assert result.counts[Command.PRE] == 1
        assert result.data_bits == ddr3_model.device.spec.bits_per_access

    def test_energy_decomposition(self, ddr3_model):
        timing = ddr3_model.device.timing
        result = evaluate_trace(ddr3_model, simple_trace(timing))
        expected = (ddr3_model.background_power * result.duration
                    + ddr3_model.operation_energy(Command.ACT)
                    + ddr3_model.operation_energy(Command.RD)
                    + ddr3_model.operation_energy(Command.PRE))
        assert result.energy == pytest.approx(expected)

    def test_row_hit_accounting(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0, row=1),
            TraceCommand(timing.trcd, Command.RD, bank=0, row=1),
            TraceCommand(timing.trcd + ns(5), Command.RD, bank=0, row=1),
            TraceCommand(timing.trcd + ns(10), Command.RD, bank=0,
                         row=1),
            TraceCommand(timing.tras + ns(20), Command.PRE, bank=0),
        ]
        result = evaluate_trace(ddr3_model, trace)
        assert result.row_misses == 1
        assert result.row_hits == 2
        assert result.row_hit_rate == pytest.approx(2 / 3)

    def test_nops_are_free(self, ddr3_model):
        timing = ddr3_model.device.timing
        with_nop = simple_trace(timing)
        with_nop.insert(1, TraceCommand(ns(1), Command.NOP))
        base = evaluate_trace(ddr3_model, simple_trace(timing))
        padded = evaluate_trace(ddr3_model, with_nop)
        assert padded.energy == pytest.approx(base.energy)

    def test_multi_bank_interleaving(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = []
        for bank in range(4):
            start = bank * timing.trrd
            trace.append(TraceCommand(start, Command.ACT, bank=bank))
        for bank in range(4):
            trace.append(TraceCommand(
                3 * timing.trrd + timing.trcd + bank * ns(6),
                Command.RD, bank=bank,
            ))
        for bank in range(4):
            trace.append(TraceCommand(
                3 * timing.trrd + timing.tras + bank * ns(2),
                Command.PRE, bank=bank,
            ))
        result = evaluate_trace(ddr3_model, trace)
        assert result.counts[Command.ACT] == 4

    def test_average_current(self, ddr3_model):
        timing = ddr3_model.device.timing
        result = evaluate_trace(ddr3_model, simple_trace(timing))
        assert result.average_current == pytest.approx(
            result.average_power / ddr3_model.device.voltages.vdd
        )


class TestProtocolViolations:
    def test_read_on_idle_bank(self, ddr3_model):
        with pytest.raises(TraceError, match="idle bank"):
            evaluate_trace(ddr3_model,
                           [TraceCommand(ns(0), Command.RD, bank=0)])

    def test_activate_active_bank(self, ddr3_model):
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0),
            TraceCommand(ns(30), Command.ACT, bank=0),
        ]
        with pytest.raises(TraceError, match="already-active"):
            evaluate_trace(ddr3_model, trace)

    def test_precharge_idle_bank(self, ddr3_model):
        with pytest.raises(TraceError, match="idle bank"):
            evaluate_trace(ddr3_model,
                           [TraceCommand(ns(0), Command.PRE, bank=0)])

    def test_unknown_bank(self, ddr3_model):
        banks = ddr3_model.device.spec.banks
        with pytest.raises(TraceError, match="bank"):
            evaluate_trace(ddr3_model,
                           [TraceCommand(ns(0), Command.ACT, bank=banks)])

    def test_time_ordering_enforced(self, ddr3_model):
        trace = [
            TraceCommand(ns(10), Command.ACT, bank=0),
            TraceCommand(ns(5), Command.ACT, bank=1),
        ]
        with pytest.raises(TraceError, match="non-decreasing"):
            evaluate_trace(ddr3_model, trace)


class TestTimingViolations:
    def test_trcd(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0),
            TraceCommand(timing.trcd * 0.5, Command.RD, bank=0),
        ]
        with pytest.raises(TraceError, match="tRCD"):
            evaluate_trace(ddr3_model, trace)

    def test_tras(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0),
            TraceCommand(timing.tras * 0.5, Command.PRE, bank=0),
        ]
        with pytest.raises(TraceError, match="tRAS"):
            evaluate_trace(ddr3_model, trace)

    def test_trc(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0),
            TraceCommand(timing.tras, Command.PRE, bank=0),
            TraceCommand(timing.trc * 0.9, Command.ACT, bank=0),
        ]
        with pytest.raises(TraceError, match="tR"):
            evaluate_trace(ddr3_model, trace)

    def test_trrd(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0),
            TraceCommand(timing.trrd * 0.5, Command.ACT, bank=1),
        ]
        with pytest.raises(TraceError, match="tRRD"):
            evaluate_trace(ddr3_model, trace)

    def test_tfaw(self, ddr3_model):
        timing = ddr3_model.device.timing
        # Five activates spaced at exactly tRRD: the fifth violates tFAW
        # if 4 × tRRD < tFAW.
        assert 4 * timing.trrd < timing.tfaw
        trace = [TraceCommand(bank * timing.trrd, Command.ACT, bank=bank)
                 for bank in range(5)]
        with pytest.raises(TraceError, match="tFAW"):
            evaluate_trace(ddr3_model, trace)

    def test_lenient_mode_prices_anyway(self, ddr3_model):
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0),
            TraceCommand(ns(1), Command.RD, bank=0),  # tRCD violation
        ]
        result = evaluate_trace(ddr3_model, trace, strict=False)
        assert result.counts[Command.RD] == 1

    def test_error_reports_position(self, ddr3_model):
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0),
            TraceCommand(ns(1), Command.RD, bank=0),
        ]
        with pytest.raises(TraceError) as excinfo:
            evaluate_trace(ddr3_model, trace)
        assert excinfo.value.index == 1


class TestStreamingEvaluation:
    """Regression: the fold must stream, never materialize (bug a)."""

    def test_generator_input_single_pass(self, ddr3_model):
        timing = ddr3_model.device.timing
        cycles = 2000

        def generated():
            for i in range(cycles):
                start = i * timing.trc
                yield TraceCommand(start, Command.ACT, bank=0,
                                   row=i % 7)
                yield TraceCommand(start + timing.tras, Command.PRE,
                                   bank=0)

        result = evaluate_trace(ddr3_model, generated())
        assert result.counts[Command.ACT] == cycles

    def test_generator_input_bounded_memory(self, ddr3_model):
        """A 100k-command generator must not be list()-ed: the old
        materializing path peaked at tens of MB here."""
        timing = ddr3_model.device.timing
        cycles = 50_000

        def generated():
            for i in range(cycles):
                start = i * timing.trc
                yield TraceCommand(start, Command.ACT, bank=0,
                                   row=i % 7)
                yield TraceCommand(start + timing.tras, Command.PRE,
                                   bank=0)

        tracemalloc.start()
        result = evaluate_trace(ddr3_model, generated())
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.counts[Command.ACT] == cycles
        assert peak < 2 * 1024 * 1024

    def test_chunked_accumulator_matches_oneshot(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = []
        for i in range(30):
            start = i * timing.trc
            trace.append(TraceCommand(start, Command.ACT, bank=0,
                                      row=i))
            trace.append(TraceCommand(start + timing.trcd, Command.RD,
                                      bank=0, row=i))
            trace.append(TraceCommand(start + timing.tras, Command.PRE,
                                      bank=0))
        one = evaluate_trace(ddr3_model, trace)
        accumulator = TraceAccumulator(ddr3_model)
        for i in range(0, len(trace), 7):
            accumulator.feed(trace[i:i + 7])
            accumulator.snapshot()  # snapshots must not disturb state
        two = accumulator.result()
        assert one.energy == two.energy
        assert one.breakdown.values == two.breakdown.values
        assert one.counts == two.counts
        assert one.duration == two.duration
        assert (one.row_hits, one.row_misses) == (two.row_hits,
                                                  two.row_misses)


class TestRowConflicts:
    """Regression: TraceCommand.row must actually be compared (bug b)."""

    def test_strict_raises_on_non_open_row(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0, row=1),
            TraceCommand(timing.trcd, Command.RD, bank=0, row=2),
        ]
        with pytest.raises(TraceError, match="row"):
            evaluate_trace(ddr3_model, trace)

    def test_lenient_counts_conflicts(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0, row=1),
            TraceCommand(timing.trcd, Command.RD, bank=0, row=2),
            TraceCommand(timing.trcd + ns(5), Command.RD, bank=0,
                         row=1),
            TraceCommand(timing.trcd + ns(10), Command.RD, bank=0,
                         row=1),
        ]
        result = evaluate_trace(ddr3_model, trace, strict=False)
        assert result.row_conflicts == 1
        assert result.row_misses == 1
        # The row=1 accesses: first consumes the activate, second hits.
        assert result.row_hits == 1
        assert result.row_hit_rate == pytest.approx(1 / 3)

    def test_accesses_without_activate_are_not_hits(self, ddr3_model):
        """The old code counted every column access as a hit candidate;
        accesses with no open row must not inflate the hit rate."""
        trace = [TraceCommand(ns(i * 10), Command.RD, bank=0, row=3)
                 for i in range(4)]
        result = evaluate_trace(ddr3_model, trace, strict=False)
        assert result.row_hits == 0
        assert result.row_conflicts == 4
        assert result.row_hit_rate == 0.0


class TestRefresh:
    """Regression: the documented REF pricing must exist (bug c)."""

    def test_ref_command_and_aliases(self):
        assert Command("ref") is Command.REF
        assert TraceCommand(0.0, "refresh").command is Command.REF
        assert TraceCommand(0.0, "ref").command is Command.REF

    def test_ref_priced_as_row_cycles(self, ddr3_model):
        timing = ddr3_model.device.timing
        at = 1e-6
        result = evaluate_trace(ddr3_model,
                                [TraceCommand(at, Command.REF)])
        expected = (ddr3_model.background_power * result.duration
                    + timing.rows_per_refresh
                    * (ddr3_model.operation_energy(Command.ACT)
                       + ddr3_model.operation_energy(Command.PRE)))
        assert result.counts[Command.REF] == 1
        assert result.energy == pytest.approx(expected)

    def test_ref_on_active_bank_strict(self, ddr3_model):
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0, row=1),
            TraceCommand(ns(50), Command.REF, bank=0),
        ]
        with pytest.raises(TraceError, match="refresh on active"):
            evaluate_trace(ddr3_model, trace)

    def test_trfc_enforced_after_refresh(self, ddr3_model):
        timing = ddr3_model.device.timing
        trace = [
            TraceCommand(ns(0), Command.REF, bank=0),
            TraceCommand(timing.trfc * 0.5, Command.ACT, bank=0),
        ]
        with pytest.raises(TraceError, match="tRFC"):
            evaluate_trace(ddr3_model, trace)

    def test_lenient_ref_closes_row(self, ddr3_model):
        trace = [
            TraceCommand(ns(0), Command.ACT, bank=0, row=1),
            TraceCommand(ns(50), Command.REF, bank=0),
            TraceCommand(ns(100), Command.RD, bank=0, row=1),
        ]
        result = evaluate_trace(ddr3_model, trace, strict=False)
        # The refresh precharged the bank: the read is a conflict.
        assert result.row_conflicts == 1


class TestValidationConsistency:
    """Regression: validation raises TraceError, and lenient mode
    tolerates out-of-order timestamps (bug d)."""

    def test_negative_time_is_trace_error(self):
        with pytest.raises(TraceError, match="time"):
            TraceCommand(-1e-9, Command.ACT)

    @pytest.mark.parametrize("time", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_non_finite_time_is_trace_error(self, time):
        # NaN compares false with everything, so it would switch off
        # the order check and every later timing check on its bank.
        with pytest.raises(TraceError, match="finite") as excinfo:
            TraceCommand(time, Command.ACT)
        assert excinfo.value.index is None

    def test_negative_bank_is_trace_error(self):
        with pytest.raises(TraceError, match="bank"):
            TraceCommand(0.0, Command.ACT, bank=-1)

    def test_negative_row_is_trace_error(self):
        with pytest.raises(TraceError, match="row") as excinfo:
            TraceCommand(0.0, Command.ACT, row=-1)
        assert excinfo.value.index is None

    @pytest.mark.parametrize("field", ["bank", "row"])
    @pytest.mark.parametrize("value", [1.5, None])
    def test_non_integer_bank_or_row_is_trace_error(self, field, value):
        with pytest.raises(TraceError, match="integers"):
            TraceCommand(0.0, Command.ACT, **{field: value})

    def test_validation_errors_stay_model_errors(self):
        """Back-compat: callers catching ModelError keep working."""
        with pytest.raises(ModelError):
            TraceCommand(-1e-9, Command.ACT)

    def test_lenient_clamps_out_of_order_times(self, ddr3_model):
        disordered = [
            TraceCommand(ns(100), Command.ACT, bank=0, row=1),
            TraceCommand(ns(40), Command.ACT, bank=1, row=2),
            TraceCommand(ns(150), Command.ACT, bank=2, row=3),
        ]
        result = evaluate_trace(ddr3_model, disordered, strict=False)
        assert result.counts[Command.ACT] == 3
        # The straggler is clamped to the latest time seen (100 ns),
        # so pricing matches the explicitly clamped trace.
        clamped = [
            TraceCommand(ns(100), Command.ACT, bank=0, row=1),
            TraceCommand(ns(100), Command.ACT, bank=1, row=2),
            TraceCommand(ns(150), Command.ACT, bank=2, row=3),
        ]
        reference = evaluate_trace(ddr3_model, clamped, strict=False)
        assert result.energy == reference.energy
        assert result.duration == reference.duration


class TestActWindowCost:
    """The tFAW/tRRD window must cost O(1) per ACT.

    The old implementation filtered a growing list of every ACT ever
    seen three times per activate — O(n²) on ACT-dense traces.  The
    deque-based window is bounded by the tFAW depth in strict mode
    and empty in lenient mode.
    """

    def _act_trace(self, timing, count):
        for i in range(count):
            start = i * timing.trc
            yield TraceCommand(start, Command.ACT, bank=i % 4,
                               row=i % 7)
            yield TraceCommand(start + timing.tras, Command.PRE,
                               bank=i % 4)

    def test_lenient_act_dense_bounded_memory(self, ddr3_model):
        timing = ddr3_model.device.timing
        count = 50_000
        tracemalloc.start()
        accumulator = TraceAccumulator(ddr3_model, strict=False)
        accumulator.feed(self._act_trace(timing, count))
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert accumulator.counts[Command.ACT] == count
        # Lenient replay keeps no ACT history at all.
        assert len(accumulator._act_window) == 0
        assert peak < 2 * 1024 * 1024

    def test_strict_window_stays_bounded(self, ddr3_model):
        timing = ddr3_model.device.timing
        accumulator = TraceAccumulator(ddr3_model, strict=True)
        accumulator.feed(self._act_trace(timing, 500))
        # Expired activates are pruned as they age out, so the window
        # never exceeds the tFAW depth.
        assert len(accumulator._act_window) <= 4

    def test_strict_still_catches_tfaw(self, ddr3_model):
        timing = ddr3_model.device.timing
        gap = max(timing.trrd, timing.trrd_l) + ns(1)
        trace = [TraceCommand(i * gap, Command.ACT, bank=i, row=1)
                 for i in range(5)]
        if 4 * gap < timing.tfaw:
            with pytest.raises(TraceError, match="tFAW"):
                evaluate_trace(ddr3_model, trace, strict=True)
