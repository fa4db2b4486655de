"""Per-operation energy accounting with component breakdown.

The model's intermediate product: for each basic operation (activate,
precharge, read, write) the energy drawn from the external supply per
occurrence, split by :class:`~repro.core.events.Component`; plus the
background power of the always-on circuitry (clock, control, power
system).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping

from ..description import Command, DramDescription
from ..description.signaling import Trigger
from ..errors import ModelError
from .events import ChargeEvent, Component


@dataclass
class EnergyBreakdown:
    """Energy (J) or power (W) per component category.

    Behaves like an additive vector over :class:`Component`; the unit is
    whatever the producer put in (joules for per-operation energies,
    watts for powers).
    """

    values: Dict[Component, float] = field(default_factory=dict)

    def add(self, component: Component, amount: float) -> None:
        """Accumulate ``amount`` into one component bucket."""
        if type(component) is not Component:
            component = Component(component)
        self.values[component] = self.values.get(component, 0.0) + amount

    @property
    def total(self) -> float:
        """Sum over all components."""
        return sum(self.values.values())

    def get(self, component: Component) -> float:
        """Amount in one component bucket (0 if empty)."""
        return self.values.get(Component(component), 0.0)

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """Return a copy with every bucket multiplied by ``factor``."""
        return EnergyBreakdown(
            {component: amount * factor
             for component, amount in self.values.items()}
        )

    def __add__(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        merged = dict(self.values)
        for component, amount in other.values.items():
            merged[component] = merged.get(component, 0.0) + amount
        return EnergyBreakdown(merged)

    def as_dict(self) -> Dict[str, float]:
        """Plain ``{component name: amount}`` dict, sorted by amount."""
        return {
            component.value: amount
            for component, amount in sorted(
                self.values.items(), key=lambda item: -item[1]
            )
        }

    def share(self, component: Component) -> float:
        """Fraction of the total in one component bucket."""
        total = self.total
        if total == 0:
            return 0.0
        return self.get(component) / total


def command_activity_time(device: DramDescription, command: Command) -> float:
    """How long one command keeps its gated circuitry busy (s).

    A read or write occupies the data path for the burst duration (the
    paper: "Data transmission and array operation power depends on the
    burst length of the previous read or write command which may extend
    into the no-operation state"); row commands occupy their logic for one
    control clock.
    """
    if type(command) is not Command:
        command = Command(command)
    if command in (Command.RD, Command.WR):
        return device.spec.burst_length / device.spec.datarate
    return 1.0 / device.spec.f_ctrlclock


def firings_per_command(device: DramDescription, event: ChargeEvent,
                        command: Command) -> float:
    """How often a gated event fires per occurrence of ``command``."""
    if type(command) is not Command:
        command = Command(command)
    if command not in event.operations:
        return 0.0
    if event.trigger in (Trigger.PER_ACCESS, Trigger.PER_ROW_OP):
        return 1.0
    duration = command_activity_time(device, command)
    if event.trigger is Trigger.PER_CTRL_CLOCK:
        return duration * device.spec.f_ctrlclock
    if event.trigger is Trigger.PER_DATA_CLOCK:
        return duration * device.spec.f_dataclock
    raise ModelError(f"unknown trigger {event.trigger!r}")


def background_rate(device: DramDescription, event: ChargeEvent) -> float:
    """Firings per second of a background (ungated) event."""
    if not event.is_background:
        raise ModelError(f"event {event.name!r} is not background")
    if event.trigger is Trigger.PER_CTRL_CLOCK:
        return device.spec.f_ctrlclock
    if event.trigger is Trigger.PER_DATA_CLOCK:
        return device.spec.f_dataclock
    raise ModelError(
        f"background event {event.name!r} has command trigger "
        f"{event.trigger!r}"
    )


class OperationEnergies:
    """Per-operation energies and background power of one device."""

    def __init__(self, device: DramDescription,
                 events: Iterable[ChargeEvent]):
        self.device = device
        self._events = tuple(events)
        self._skeletons = None
        self._energies: Dict[Command, EnergyBreakdown] = {}
        self._background = self._compute_background()
        for command in Command:
            self._energies[command] = self._compute_operation(command)

    @classmethod
    def from_folded(cls, device: DramDescription,
                    energies: Dict[Command, EnergyBreakdown],
                    background: EnergyBreakdown,
                    skeletons=None) -> "OperationEnergies":
        """Wrap already-folded results (the vectorized kernel's output).

        The columnar kernel computes the per-operation breakdowns for a
        whole sweep family in one array pass; this constructor adopts
        one variant's row without touching the scalar fold.  ``events``
        stays unresolved until read — ``skeletons`` plus the device's
        voltages reproduce it exactly on demand.
        """
        folded = object.__new__(cls)
        folded.device = device
        folded._events = None
        folded._skeletons = (tuple(skeletons) if skeletons is not None
                             else None)
        folded._energies = energies
        folded._background = background
        return folded

    @property
    def events(self) -> tuple:
        """The charge events these energies were folded from."""
        if self._events is None:
            from .events import resolve_skeletons

            self._events = resolve_skeletons(self._skeletons,
                                             self.device.voltages)
        return self._events

    # ------------------------------------------------------------------
    def _vdd_energy(self, event: ChargeEvent, firings: float) -> float:
        """Energy drawn from Vdd for ``firings`` firings of ``event`` (J)."""
        charge = event.charge_per_firing * firings
        return self.device.voltages.vdd_energy(charge, event.rail)

    def _compute_operation(self, command: Command) -> EnergyBreakdown:
        breakdown = EnergyBreakdown()
        for event in self.events:
            if event.is_background:
                continue
            firings = firings_per_command(self.device, event, command)
            if firings:
                breakdown.add(event.component,
                              self._vdd_energy(event, firings))
        return breakdown

    def _compute_background(self) -> EnergyBreakdown:
        breakdown = EnergyBreakdown()
        for event in self.events:
            if not event.is_background:
                continue
            rate = background_rate(self.device, event)
            breakdown.add(event.component, self._vdd_energy(event, rate))
        if self.device.constant_current:
            breakdown.add(
                Component.POWER,
                self.device.constant_current * self.device.voltages.vdd,
            )
        return breakdown

    # ------------------------------------------------------------------
    def operation_energy(self, command: Command) -> EnergyBreakdown:
        """Energy per occurrence of ``command`` (J at Vdd), by component."""
        return self._energies[Command(command)]

    @property
    def background_power(self) -> EnergyBreakdown:
        """Always-on power (W at Vdd), by component."""
        return self._background

    def as_table(self) -> Mapping[str, Dict[str, float]]:
        """Energies in pJ per operation and background power in mW."""
        table: Dict[str, Dict[str, float]] = {}
        for command in (Command.ACT, Command.PRE, Command.RD, Command.WR):
            breakdown = self._energies[command]
            table[command.value] = {
                name: amount * 1e12
                for name, amount in breakdown.as_dict().items()
            }
        table["background_mw"] = {
            name: amount * 1e3
            for name, amount in self._background.as_dict().items()
        }
        return table
