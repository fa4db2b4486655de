"""Parameter sensitivity Pareto (paper §IV.B, Figure 10 and Table III).

Each named parameter — some single description fields, some composites
matching the paper's vocabulary ("Specific wire capacitance", "Number of
logic gates"…) — is varied by ±20 % and the change in pattern power is
recorded.  The pattern is the paper's: an Idd7-equivalent loop with half
of the reads replaced by writes.

A variation impact of 40 % would mean power is directly proportional to
the parameter; that holds only for the external supply voltage, which the
paper excludes from the chart — :func:`external_voltage_proportionality`
demonstrates it separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..description import DramDescription
from ..core.idd import idd7_mixed
from ..engine import EvaluationSession, Variant, ensure_session, scaling


def _scale_paths(paths: Sequence[str]) -> Callable[[DramDescription, float],
                                                   DramDescription]:
    def apply(device: DramDescription, factor: float) -> DramDescription:
        return scaling(paths, factor).apply(device)
    return apply


def _scale_logic(field: str) -> Callable[[DramDescription, float],
                                         DramDescription]:
    def apply(device: DramDescription, factor: float) -> DramDescription:
        return Variant().scaled_logic(field, factor).apply(device)
    return apply


@dataclass(frozen=True)
class SensitivityParameter:
    """One row of the Figure 10 Pareto."""

    name: str
    """Label matching the paper's Table III vocabulary."""
    apply: Callable[[DramDescription, float], DramDescription]
    """Returns a device with the parameter scaled by a factor."""
    group: str = "technology"
    """Loose grouping: voltage, array, wiring, logic, power."""


def _scale_efficiency(field: str) -> Callable[[DramDescription, float],
                                              DramDescription]:
    """Scale a generator efficiency, clamped to its physical ceiling of 1."""
    def apply(device: DramDescription, factor: float) -> DramDescription:
        volts = device.voltages
        value = min(1.0, getattr(volts, field) * factor)
        return device.evolve(voltages=volts.with_levels(**{field: value}))
    return apply


def _scale_rail(level_field: str,
                eff_field: str) -> Callable[[DramDescription, float],
                                            DramDescription]:
    """Scale a rail voltage with its supply *topology* held fixed.

    A linear regulator delivers the rail charge at the cost of the same
    current from Vdd, and a pump at a fixed current multiple — so the
    generator efficiency is proportional to the rail level.  Varying the
    rail therefore co-scales the efficiency (clamped at 1), making the
    power response linear in the rail voltage.  This matches the paper's
    accounting, where only the external supply voltage moves power fully
    proportionally (§IV.B).

    On old high-voltage generations Vint sits at Vdd (direct
    connection); there the supply is lifted along to keep the
    description valid, which — correctly — makes the response quadratic,
    since charge and voltage scale together.
    """
    def apply(device: DramDescription, factor: float) -> DramDescription:
        volts = device.voltages
        level = getattr(volts, level_field) * factor
        overrides = {level_field: level}
        efficiency = getattr(volts, eff_field)
        if efficiency < 1.0:
            overrides[eff_field] = min(1.0, efficiency * factor)
        if level_field == "vint" and level > volts.vdd:
            overrides["vdd"] = level
        if level_field == "vbl" and level > volts.vpp:
            overrides["vpp"] = level
        return device.evolve(voltages=volts.with_levels(**overrides))
    return apply


#: The parameter set of the Figure 10 study.
PARAMETERS: Tuple[SensitivityParameter, ...] = (
    SensitivityParameter("Internal voltage Vint",
                         _scale_rail("vint", "eff_vint"), "voltage"),
    SensitivityParameter("Bitline voltage",
                         _scale_rail("vbl", "eff_vbl"), "voltage"),
    SensitivityParameter("Wordline voltage Vpp",
                         _scale_rail("vpp", "eff_vpp"), "voltage"),
    SensitivityParameter("Vpp pump efficiency", _scale_efficiency("eff_vpp"),
                         "power"),
    SensitivityParameter("Bitline capacitance",
                         _scale_paths(["technology.c_bitline"]), "array"),
    SensitivityParameter("Cell capacitance",
                         _scale_paths(["technology.c_cell"]), "array"),
    SensitivityParameter(
        "Specific wire capacitance",
        _scale_paths(["technology.c_wire_signal",
                      "technology.c_wire_mwl",
                      "technology.c_wire_swl"]),
        "wiring",
    ),
    SensitivityParameter(
        "Gate oxide thickness",
        _scale_paths(["technology.tox_logic", "technology.tox_hv",
                      "technology.tox_cell"]),
        "technology",
    ),
    SensitivityParameter(
        "Junction capacitance logic",
        _scale_paths(["technology.cj_logic", "technology.cj_hv"]),
        "technology",
    ),
    SensitivityParameter(
        "Sense amplifier device width",
        _scale_paths(["technology.w_sa_n", "technology.w_sa_p",
                      "technology.w_eq", "technology.w_bitswitch",
                      "technology.w_nset", "technology.w_pset"]),
        "array",
    ),
    SensitivityParameter(
        "Sub-wordline driver width",
        _scale_paths(["technology.w_swd_n", "technology.w_swd_p",
                      "technology.w_swd_restore"]),
        "array",
    ),
    SensitivityParameter(
        "Cell access transistor size",
        _scale_paths(["technology.w_cell", "technology.l_cell"]),
        "array",
    ),
    SensitivityParameter("Number of logic gates",
                         _scale_logic("n_gates"), "logic"),
    SensitivityParameter("Width NFET logic", _scale_logic("w_n"), "logic"),
    SensitivityParameter("Width PFET logic", _scale_logic("w_p"), "logic"),
    SensitivityParameter("Logic device density",
                         _scale_logic("layout_density"), "logic"),
    SensitivityParameter("Logic wiring density",
                         _scale_logic("wiring_density"), "logic"),
    SensitivityParameter("Constant current adder",
                         _scale_paths(["constant_current"]), "power"),
)


@dataclass(frozen=True)
class SensitivityResult:
    """Impact of one parameter's ±variation on pattern power."""

    name: str
    group: str
    power_base: float
    """Pattern power at nominal (W)."""
    power_low: float
    """Pattern power at (1 - variation) (W)."""
    power_high: float
    """Pattern power at (1 + variation) (W)."""

    @property
    def impact(self) -> float:
        """(P(+v) − P(−v)) / P(nominal) — the Figure 10 y-axis."""
        return (self.power_high - self.power_low) / self.power_base

    @property
    def magnitude(self) -> float:
        """Absolute impact, used for ranking."""
        return abs(self.impact)


def _pattern_power(device: DramDescription,
                   session: Optional[EvaluationSession] = None) -> float:
    return idd7_mixed(ensure_session(session).model(device)).power


def _idd7_power(model) -> float:
    """Idd7-mixed pattern power of one built model."""
    return idd7_mixed(model).power


def sensitivity(device: DramDescription, variation: float = 0.2,
                parameters: Sequence[SensitivityParameter] = PARAMETERS,
                session: Optional[EvaluationSession] = None,
                backend: Optional[str] = None) -> List[SensitivityResult]:
    """The Figure 10 study: vary each parameter ±``variation``.

    Returns results sorted by impact magnitude, largest first.  All
    device models route through ``session`` (a private one when
    omitted).  With ``backend="auto"`` and numpy installed the sweep
    — one batchable family sharing the nominal floorplan — folds
    through the columnar vector kernel (:mod:`repro.engine.vector`),
    identical ordering and ~1e-15-relative powers.
    """
    if not 0.0 < variation < 1.0:
        raise ValueError("variation must be a fraction in (0, 1)")
    session = ensure_session(session)
    devices = [device]
    for parameter in parameters:
        devices.append(parameter.apply(device, 1.0 - variation))
        devices.append(parameter.apply(device, 1.0 + variation))
    powers = session.map(devices, _idd7_power, backend=backend)
    base = powers[0]
    results = []
    for index, parameter in enumerate(parameters):
        results.append(SensitivityResult(
            name=parameter.name,
            group=parameter.group,
            power_base=base,
            power_low=powers[1 + 2 * index],
            power_high=powers[2 + 2 * index],
        ))
    results.sort(key=lambda result: -result.magnitude)
    return results


def top_ranking(device: DramDescription, count: int = 10,
                variation: float = 0.2,
                session: Optional[EvaluationSession] = None) -> List[str]:
    """The Table III column for one device: top-N parameter names."""
    return [result.name
            for result in sensitivity(device, variation,
                                      session=session)[:count]]


def external_voltage_proportionality(device: DramDescription,
                                     factor: float = 1.2,
                                     session: Optional[EvaluationSession]
                                     = None) -> float:
    """Relative power change when Vdd scales by ``factor``.

    The generators hold a fixed *current* ratio between Vdd and each
    internal rail, so raising Vdd by 20 % raises power by 20 % — the only
    parameter power is directly proportional to (paper §IV.B).  The rail
    efficiencies are rescaled accordingly (efficiency ∝ V_rail / Vdd).
    """
    if factor <= 1.0:
        raise ValueError("factor must exceed 1 (efficiencies stay valid)")
    session = ensure_session(session)
    base = _pattern_power(device, session)
    volts = device.voltages
    scaled = volts.with_levels(
        vdd=volts.vdd * factor,
        eff_vint=(volts.eff_vint / factor if volts.eff_vint < 1.0
                  else volts.vint / (volts.vdd * factor)),
        eff_vbl=volts.eff_vbl / factor,
        eff_vpp=volts.eff_vpp / factor,
    )
    high = _pattern_power(device.evolve(voltages=scaled), session)
    return high / base - 1.0
