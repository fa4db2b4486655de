"""Monte-Carlo parameter-variation analysis.

Where :mod:`repro.analysis.corners` evaluates three deterministic
corners, this module samples the variation space: capacitances, device
widths and rail voltages draw from independent log-normal-ish
distributions and the resulting IDD distribution is summarised — the
statistical counterpart of the §IV.A datasheet spread, and the basis for
guard-band reasoning.
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.idd import IddMeasure, measure as run_measure
from ..description import DramDescription
from ..engine import EvaluationSession, Variant, ensure_session
from ..errors import ModelError

#: Relative 1-sigma variation per parameter group (fractions).
DEFAULT_SIGMAS: Dict[str, float] = {
    "capacitance": 0.05,
    "device": 0.04,
    "voltage": 0.015,
}

_GROUP_PATHS: Dict[str, Tuple[str, ...]] = {
    "capacitance": (
        "technology.c_bitline", "technology.c_cell",
        "technology.c_wire_signal", "technology.c_wire_mwl",
        "technology.c_wire_swl", "technology.cj_logic",
        "technology.cj_hv",
    ),
    "device": (
        "technology.w_sa_n", "technology.w_sa_p", "technology.w_eq",
        "technology.w_bitswitch", "technology.w_nset",
        "technology.w_pset",
    ),
    "voltage": ("voltages.vint", "voltages.vbl"),
}


@dataclass(frozen=True)
class Distribution:
    """Summary statistics of one IDD measure's samples (mA)."""

    measure: IddMeasure
    samples: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return statistics.fmean(self.samples)

    @property
    def stdev(self) -> float:
        if len(self.samples) < 2:
            return 0.0
        return statistics.stdev(self.samples)

    @property
    def minimum(self) -> float:
        return min(self.samples)

    @property
    def maximum(self) -> float:
        return max(self.samples)

    def percentile(self, fraction: float) -> float:
        """Linear-interpolated percentile, fraction in [0, 1]."""
        if not 0.0 <= fraction <= 1.0:
            raise ModelError("percentile fraction must be in [0, 1]")
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        position = fraction * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        weight = position - low
        return ordered[low] * (1 - weight) + ordered[high] * weight

    @property
    def guard_band(self) -> float:
        """p95 over mean — how much a datasheet maximum exceeds typical."""
        mean = self.mean
        if mean == 0:
            return 0.0
        return self.percentile(0.95) / mean


def _measure_milliamps(model, measures: Tuple[IddMeasure, ...]
                       ) -> List[float]:
    """The sampled IDD currents of one model (shared with the
    durable ``montecarlo`` job kind)."""
    return [run_measure(model, which).milliamps for which in measures]


def _sample_variant(rng: random.Random,
                    sigmas: Dict[str, float]) -> Variant:
    """One random draw of the variation space as an engine variant."""
    variant = Variant()
    for group, paths in _GROUP_PATHS.items():
        sigma = sigmas.get(group, 0.0)
        if sigma <= 0:
            continue
        for path in paths:
            factor = math.exp(rng.gauss(0.0, sigma))
            variant = variant.scaled(path, factor)
    return variant


def monte_carlo(device: DramDescription,
                measures: Iterable[IddMeasure] = (
                    IddMeasure.IDD0, IddMeasure.IDD4R,
                ),
                samples: int = 50,
                sigmas: Dict[str, float] = None,
                seed: int = 1,
                session: Optional[EvaluationSession] = None,
                backend: Optional[str] = None) -> List[Distribution]:
    """Sample the variation space and summarise the IDD distributions.

    The random draws depend only on ``seed``; models route through
    ``session``.  ``backend="auto"`` with numpy installed folds the
    sample batch (one family: every draw shares the nominal
    floorplan) through the columnar vector kernel.
    """
    if samples <= 0:
        raise ModelError("samples must be positive")
    sigmas = dict(DEFAULT_SIGMAS if sigmas is None else sigmas)
    rng = random.Random(seed)
    session = ensure_session(session)
    measures = [IddMeasure(which) for which in measures]
    devices = [_sample_variant(rng, sigmas).apply(device)
               for _ in range(samples)]
    per_sample = session.map(
        devices,
        partial(_measure_milliamps, measures=tuple(measures)),
        backend=backend,
    )
    return [Distribution(measure=which,
                         samples=tuple(series[index]
                                       for series in per_sample))
            for index, which in enumerate(measures)]
