"""The DRAM power model — top-level orchestration (paper Figure 4).

:class:`DramPowerModel` takes a validated :class:`DramDescription` and
produces per-operation energies, pattern powers, supply currents and
energy-per-bit figures.  The pipeline mirrors the paper:

1. resolve the floorplan geometry (block coordinates, wire lengths);
2. build the charge-event list (wire + device capacitances, §III.B.2/3);
3. fold events into per-operation energies and background power;
4. evaluate command patterns: power = background + Σ count·E_op / time;
5. report currents at the external supply (datasheet IDD convention).

A cold build runs these steps straight through.  Only the vectorized
kernel (:mod:`repro.engine.vector`) hands in prebuilt geometry,
skeletons and folded energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..description import Command, DramDescription, Pattern
from ..errors import ModelError
from ..floorplan import FloorplanGeometry
from ..units import pj_per_bit
from .builder import build_skeletons, resolve_events
from .events import ChargeEvent, Component, EventSkeleton
from .operations import EnergyBreakdown, OperationEnergies


@dataclass(frozen=True)
class PatternPower:
    """Power result for one command pattern on one device."""

    device_name: str
    """Name of the evaluated device."""
    pattern: str
    """Human-readable pattern description."""
    duration: float
    """Loop duration (s)."""
    power: float
    """Average power drawn from Vdd (W)."""
    current: float
    """Average current drawn from Vdd (A) — the datasheet IDD convention."""
    breakdown: EnergyBreakdown
    """Average power per component category (W)."""
    operation_power: Mapping[str, float]
    """Average power contributed by each command type plus background (W)."""
    data_bits_per_second: float
    """Useful data throughput of the pattern (bit/s)."""

    @property
    def energy_per_bit(self) -> float:
        """Energy per transferred data bit (J/bit); inf for no traffic."""
        if self.data_bits_per_second <= 0:
            return float("inf")
        return self.power / self.data_bits_per_second

    @property
    def energy_per_bit_pj(self) -> float:
        """Energy per bit in pJ (numerically mW per Gb/s)."""
        if self.data_bits_per_second <= 0:
            return float("inf")
        return pj_per_bit(self.power, self.data_bits_per_second)


class DramPowerModel:
    """Evaluates the power of one DRAM description.

    Construction runs the Figure-4 pipeline stage by stage — geometry,
    capacitance extraction (skeletons), charge determination (events),
    per-operation energies.  ``events`` substitutes a transformed charge
    list (the schemes); ``geometry``, ``skeletons`` and ``energies``
    let the vectorized kernel hand in what it built for a whole sweep
    family.
    """

    def __init__(self, device: DramDescription,
                 events: Optional[Tuple[ChargeEvent, ...]] = None,
                 geometry: Optional[FloorplanGeometry] = None, *,
                 skeletons: Optional[Tuple[EventSkeleton, ...]] = None,
                 energies: Optional[OperationEnergies] = None):
        self.device = device
        if geometry is None:
            geometry = FloorplanGeometry(device)
        self.geometry = geometry
        if events is None and skeletons is None:
            skeletons = build_skeletons(device, self.geometry)
        if events is None and energies is None:
            # Energies need the resolved events; otherwise resolution
            # can stay lazy (vector-built models often never read it).
            events = resolve_events(skeletons, device.voltages)
        #: Voltage-free capacitance-stage artifacts; ``None`` for models
        #: built around a substituted (scheme-transformed) event list.
        self.skeletons = (tuple(skeletons) if skeletons is not None
                          else None)
        self._events = tuple(events) if events is not None else None
        self.energies = (energies if energies is not None
                         else OperationEnergies(device, self._events))
        self._default_power: Optional[PatternPower] = None

    @property
    def events(self) -> Tuple[ChargeEvent, ...]:
        """The resolved charge-event list (paper eq. 2 processes).

        Models assembled with prebuilt energies but no event list (the
        vectorized kernel's product) resolve their skeletons on first
        access — identical arithmetic to an eager build, just deferred
        past the hot sweep path that only reads pattern powers.
        """
        if self._events is None:
            self._events = resolve_events(self.skeletons,
                                          self.device.voltages)
        return self._events

    # ------------------------------------------------------------------
    # Per-operation results
    # ------------------------------------------------------------------
    def operation_energy(self, command: Command) -> float:
        """Energy per occurrence of ``command`` (J at Vdd)."""
        return self.energies.operation_energy(command).total

    def operation_breakdown(self, command: Command) -> EnergyBreakdown:
        """Per-component energy of one ``command`` occurrence (J)."""
        return self.energies.operation_energy(command)

    @property
    def background_power(self) -> float:
        """Always-on power (W at Vdd): clock, control, power system."""
        return self.energies.background_power.total

    @property
    def background_breakdown(self) -> EnergyBreakdown:
        """Per-component always-on power (W)."""
        return self.energies.background_power

    # ------------------------------------------------------------------
    # Pattern evaluation
    # ------------------------------------------------------------------
    def counts_power(self, counts: Mapping[Command, float], duration: float,
                     label: str = "counts") -> PatternPower:
        """Power of a loop issuing ``counts`` commands every ``duration``.

        This is the paper's last pipeline stage generalised: any command
        mix over any window, e.g. the IDD7 definition (eight activates
        plus gapless reads per row-cycle window).
        """
        if duration <= 0:
            raise ModelError("pattern duration must be positive")
        breakdown = EnergyBreakdown() + self.energies.background_power
        op_power: Dict[str, float] = {
            "background": self.energies.background_power.total
        }
        data_bits = 0.0
        for command, count in counts.items():
            command = Command(command)
            if count < 0:
                raise ModelError(f"negative count for {command}")
            if count == 0 or command is Command.NOP:
                continue
            energy = self.energies.operation_energy(command)
            contribution = energy.scaled(count / duration)
            breakdown = breakdown + contribution
            op_power[command.value] = contribution.total
            if command in (Command.RD, Command.WR):
                data_bits += count * self.device.spec.bits_per_access
        power = breakdown.total
        return PatternPower(
            device_name=self.device.name,
            pattern=label,
            duration=duration,
            power=power,
            current=power / self.device.voltages.vdd,
            breakdown=breakdown,
            operation_power=op_power,
            data_bits_per_second=data_bits / duration,
        )

    def pattern_power(self, pattern: Optional[Pattern] = None) -> PatternPower:
        """Power of a repeating command loop (one slot per control clock).

        Without an argument the device's own default pattern is used
        (the paper's ``Pattern loop= act nop wrt nop rd nop pre nop``).
        """
        use_memo = pattern is None
        if use_memo and self._default_power is not None:
            return self._default_power
        if pattern is None:
            pattern = self.device.pattern
        duration = len(pattern) / self.device.spec.f_ctrlclock
        counts = {command: float(count)
                  for command, count in pattern.counts().items()}
        result = self.counts_power(counts, duration, label=str(pattern))
        if use_memo:
            # Idempotent memo: every recomputation yields the identical
            # value, so a benign race between threads cannot diverge.
            self._default_power = result
        return result

    # ------------------------------------------------------------------
    # Convenience figures
    # ------------------------------------------------------------------
    def current(self, pattern: Optional[Pattern] = None) -> float:
        """Average Vdd current of a pattern (A)."""
        return self.pattern_power(pattern).current

    def energy_per_bit(self, pattern: Optional[Pattern] = None) -> float:
        """Energy per transferred bit of a pattern (J/bit)."""
        return self.pattern_power(pattern).energy_per_bit

    def component_share(self, component: Component,
                        pattern: Optional[Pattern] = None) -> float:
        """Share of pattern power spent in one component category."""
        result = self.pattern_power(pattern)
        return result.breakdown.share(component)

    def total_switched_capacitance(self) -> float:
        """Σ C·count over all events (F) — a sanity/inspection figure."""
        return sum(event.capacitance * event.count for event in self.events)

    def event_energies(self, command: Command):
        """Per-event energy of one command occurrence, largest first.

        Returns a list of ``(event, energy_joules)`` — the fine-grained
        "where exactly does the power go" view the paper argues datasheet
        models cannot provide.
        """
        from .operations import firings_per_command

        command = Command(command)
        entries = []
        for event in self.events:
            if event.is_background:
                continue
            firings = firings_per_command(self.device, event, command)
            if not firings:
                continue
            charge = event.charge_per_firing * firings
            energy = self.device.voltages.vdd_energy(charge, event.rail)
            entries.append((event, energy))
        entries.sort(key=lambda entry: -entry[1])
        return entries

    def self_check(self) -> list:
        """Verify internal invariants; returns a list of issue strings.

        An empty list means the model is internally consistent: every
        event well-formed, every per-operation energy finite and
        non-negative, component shares summing to one, and the pattern
        decomposition exact.
        """
        import math

        issues = []
        for event in self.events:
            if event.capacitance < 0 or event.count < 0:
                issues.append(f"event {event.name!r} has negative "
                              "capacitance or count")
            if not math.isfinite(event.charge_per_firing):
                issues.append(f"event {event.name!r} has non-finite "
                              "charge")
        for command in Command:
            energy = self.operation_energy(command)
            if not math.isfinite(energy) or energy < 0:
                issues.append(f"operation {command.value} energy "
                              f"invalid: {energy}")
        if not math.isfinite(self.background_power) \
                or self.background_power < 0:
            issues.append("background power invalid")
        result = self.pattern_power()
        recombined = sum(result.operation_power.values())
        if abs(recombined - result.power) > 1e-9 * max(1.0, result.power):
            issues.append("pattern power does not equal the sum of its "
                          "operation contributions")
        share_sum = sum(result.breakdown.share(component)
                        for component in
                        result.breakdown.values)
        if result.power > 0 and abs(share_sum - 1.0) > 1e-9:
            issues.append("component shares do not sum to one")
        return issues

    def background_event_powers(self):
        """Per-event always-on power (W), largest first."""
        from .operations import background_rate

        entries = []
        for event in self.events:
            if not event.is_background:
                continue
            rate = background_rate(self.device, event)
            charge = event.charge_per_firing * rate
            power = self.device.voltages.vdd_energy(charge, event.rail)
            entries.append((event, power))
        entries.sort(key=lambda entry: -entry[1])
        return entries
