"""Generic one-dimensional what-if sweeps.

The model's core use (paper §I: "directed optimization work") is asking
"what happens to power if X changes".  :func:`sweep_parameter` runs any
dotted-path parameter through a range of factors and returns the power
and current series — the building block behind quick design-space looks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core import DramPowerModel, PatternPower
from ..core.idd import idd7_mixed
from ..description import DramDescription
from ..engine import EvaluationSession, ensure_session
from ..errors import ModelError
from .reporting import format_table


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated point of a parameter sweep."""

    factor: float
    value: float
    power: float
    energy_per_bit: float

    @property
    def power_mw(self) -> float:
        return self.power * 1e3


def sweep_parameter(device: DramDescription, path: str,
                    factors: Sequence[float],
                    evaluate: Optional[Callable[[DramPowerModel],
                                                PatternPower]] = None,
                    session: Optional[EvaluationSession] = None
                    ) -> List[SweepPoint]:
    """Scale one parameter through ``factors`` and evaluate each point.

    ``evaluate`` defaults to the Idd7-style mixed pattern; pass any
    callable taking a model and returning a
    :class:`~repro.core.PatternPower`.  Models route through
    ``session``.
    """
    if not factors:
        raise ModelError("sweep needs at least one factor")
    evaluate = evaluate or idd7_mixed
    session = ensure_session(session)
    base_value = device.get_path(path)
    if not isinstance(base_value, (int, float)) \
            or isinstance(base_value, bool):
        raise ModelError(f"parameter {path!r} is not numeric")
    devices = [device.scale_path(path, factor) for factor in factors]
    results = session.map(devices, evaluate)
    return [SweepPoint(
        factor=factor,
        value=float(base_value) * factor,
        power=result.power,
        energy_per_bit=result.energy_per_bit,
    ) for factor, result in zip(factors, results)]


def sweep_report(path: str, points: Sequence[SweepPoint],
                 unit: str = "") -> str:
    """Render a sweep as a table."""
    rows = [[f"x{point.factor:g}", f"{point.value:.4g}{unit}",
             round(point.power_mw, 1),
             round(point.energy_per_bit * 1e12, 2)]
            for point in points]
    return format_table(
        ["factor", path, "mW", "pJ/bit"], rows,
        title=f"What-if sweep of {path}",
    )


def sensitivity_slope(device: DramDescription, path: str,
                      delta: float = 0.05,
                      session: Optional[EvaluationSession] = None
                      ) -> float:
    """Local normalised slope d(ln P)/d(ln x) of power in a parameter.

    1.0 means power is locally proportional to the parameter; values
    near 0 mean insensitivity.
    """
    import math

    points = sweep_parameter(device, path,
                             [1.0 - delta, 1.0 + delta],
                             session=session)
    low, high = points[0].power, points[1].power
    return (math.log(high / low)
            / math.log((1.0 + delta) / (1.0 - delta)))
