"""Process-corner and vendor-spread analysis (paper §IV.A context).

"As expected the data sheet values show a quite large spread.  This is
due to the different technologies used to build the DRAMs and
differences in the power efficiencies of the approach used by different
DRAM vendors."  This module makes that spread a first-class object:
corner definitions perturb the capacitance/voltage/device parameters
coherently, and a corner sweep yields the min/typ/max band a single
design would show across process and design variation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.idd import IddMeasure, measure as run_measure
from ..description import DramDescription
from ..engine import EvaluationSession, Variant, ensure_session
from ..errors import ModelError

#: Parameter groups perturbed together by a corner.
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
        "technology.w_pset", "technology.w_swd_n", "technology.w_swd_p",
    ),
    "voltage": ("voltages.vint", "voltages.vbl"),
}


@dataclass(frozen=True)
class Corner:
    """One named corner: multiplicative factors per parameter group."""

    name: str
    capacitance: float = 1.0
    device: float = 1.0
    voltage: float = 1.0

    def variant(self) -> Variant:
        """The corner as an engine :class:`Variant` (deltas only)."""
        variant = Variant(label=self.name)
        for group, factor in (("capacitance", self.capacitance),
                              ("device", self.device),
                              ("voltage", self.voltage)):
            if factor == 1.0:
                continue
            variant = variant.scaled_paths(_GROUP_PATHS[group], factor)
        return variant

    def apply(self, device: DramDescription) -> DramDescription:
        """Return the device shifted to this corner."""
        return self.variant().apply(device)


#: The standard three-corner set: a fast/lean design, the typical one,
#: and a slow/guard-banded one.  The ±10 % capacitance and ±4 % voltage
#: windows are conventional process-variation figures.
STANDARD_CORNERS: Tuple[Corner, ...] = (
    Corner("fast", capacitance=0.90, device=0.92, voltage=0.96),
    Corner("typical"),
    Corner("slow", capacitance=1.10, device=1.08, voltage=1.04),
)

#: A wider set emulating the vendor-to-vendor spread of Figure 8/9 —
#: different technologies and power-efficiency design styles.
VENDOR_SPREAD_CORNERS: Tuple[Corner, ...] = (
    Corner("lean-vendor", capacitance=0.85, device=0.90, voltage=0.95),
    Corner("typical"),
    Corner("conservative-vendor", capacitance=1.18, device=1.12,
           voltage=1.05),
)


@dataclass(frozen=True)
class CornerBand:
    """Min/typ/max currents of one IDD measure over a corner set."""

    measure: IddMeasure
    values_ma: Dict[str, float]

    @property
    def minimum(self) -> float:
        return min(self.values_ma.values())

    @property
    def typical(self) -> float:
        return self.values_ma.get("typical", self.minimum)

    @property
    def maximum(self) -> float:
        return max(self.values_ma.values())

    @property
    def spread(self) -> float:
        """(max − min) / typical — the §IV.A spread figure."""
        if self.typical == 0:
            return 0.0
        return (self.maximum - self.minimum) / self.typical


def _measure_corner(model, measures: Tuple[IddMeasure, ...]
                    ) -> Dict[IddMeasure, float]:
    """IDD currents of one corner model."""
    return {which: run_measure(model, which).milliamps
            for which in measures}


def corner_sweep(device: DramDescription,
                 measures: Iterable[IddMeasure] = (
                     IddMeasure.IDD0, IddMeasure.IDD2N,
                     IddMeasure.IDD4R, IddMeasure.IDD4W,
                 ),
                 corners: Iterable[Corner] = STANDARD_CORNERS,
                 session: Optional[EvaluationSession] = None,
                 backend: Optional[str] = None) -> List[CornerBand]:
    """Evaluate the IDD measures at every corner.

    Models route through ``session``.  The standard three-corner
    sweep is below the vector kernel's batch floor, so
    ``backend="auto"`` keeps it scalar; wider custom corner sets
    fold columnarly like any other family.
    """
    corners = list(corners)
    if not corners:
        raise ModelError("corner sweep needs at least one corner")
    session = ensure_session(session)
    measures = [IddMeasure(which) for which in measures]
    corner_devices = [corner.apply(device) for corner in corners]
    per_corner = session.map(
        corner_devices,
        partial(_measure_corner, measures=tuple(measures)),
        backend=backend,
    )
    bands = []
    for which in measures:
        values = {corner.name: series[which]
                  for corner, series in zip(corners, per_corner)}
        bands.append(CornerBand(measure=which, values_ma=values))
    return bands
