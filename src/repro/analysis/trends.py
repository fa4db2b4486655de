"""Generation trends (paper §IV.C, Figures 11-13, and the §IV.B shift).

Sweeps the mainstream device of every roadmap node and reports voltages
(Figure 11), data-rate and row-timing trends (Figure 12), die area and
energy per bit (Figure 13), and the share of power spent in row
operations vs column operations plus background logic — the §IV.B
observation that power moves away from the cell array into wiring and
peripheral logic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..core import Component
from ..core.idd import idd4r, idd4w, idd7_mixed, idd0
from ..devices import build_device
from ..engine import EvaluationSession, ensure_session
from ..technology.roadmap import ROADMAP, RoadmapEntry, nodes
from ..units import pj_per_bit


@dataclass(frozen=True)
class GenerationPoint:
    """One generation's measured model figures (Figures 11-13)."""

    node_nm: float
    year: int
    interface: str
    datarate: float
    prefetch: int
    core_frequency: float
    vdd: float
    vint: float
    vbl: float
    vpp: float
    trc: float
    density_bits: int
    die_area_mm2: float
    array_efficiency: float
    idd0_ma: float
    idd4r_ma: float
    idd4w_ma: float
    energy_idd4_pj: float
    """Energy per bit of a gapless read/write stream (pJ) — row open."""
    energy_idd7_pj: float
    """Energy per bit of the interleaved Idd7-style pattern (pJ)."""
    row_power_share: float
    """Share of Idd7-pattern power spent on activate+precharge."""
    column_power_share: float
    """Share spent on read/write operations."""
    background_power_share: float
    """Share spent on always-on clock/control/power circuitry."""
    array_component_share: float
    """Share of Idd7 power in array components (bitline, SA, wordline)."""


def generation_trend(io_width: int = 16,
                     node_list: Sequence[float] = None,
                     session: Optional[EvaluationSession] = None,
                     backend: Optional[str] = None
                     ) -> List[GenerationPoint]:
    """Evaluate the mainstream device of each roadmap node.

    Models route through ``session``, in node order.  Every node has
    its own floorplan, so the columnar vector kernel finds no
    batchable family here and ``backend="auto"`` stays on the scalar
    paths.
    """
    session = ensure_session(session)
    node_nms = list(node_list or nodes())
    devices = [build_device(node_nm, io_width=io_width)
               for node_nm in node_nms]
    models = session.map(devices, lambda model: model,
                         backend=backend)
    points: List[GenerationPoint] = []
    for node_nm, device, model in zip(node_nms, devices, models):
        entry: RoadmapEntry = ROADMAP[node_nm]
        geometry = model.geometry
        r4 = idd4r(model)
        w4 = idd4w(model)
        bandwidth = device.spec.peak_bandwidth
        energy_idd4 = pj_per_bit(
            (r4.power.power + w4.power.power) / 2.0, bandwidth
        )
        mixed = idd7_mixed(model)
        ops = mixed.operation_power
        total = mixed.power
        row_power = ops.get("act", 0.0) + ops.get("pre", 0.0)
        col_power = ops.get("rd", 0.0) + ops.get("wr", 0.0)
        background = ops.get("background", 0.0)
        array_share = sum(
            mixed.breakdown.share(component)
            for component in (Component.BITLINE, Component.SENSE_AMP,
                              Component.WORDLINE)
        )
        points.append(GenerationPoint(
            node_nm=node_nm,
            year=entry.year,
            interface=entry.interface,
            datarate=device.spec.datarate,
            prefetch=device.spec.prefetch,
            core_frequency=device.spec.core_access_rate,
            vdd=device.voltages.vdd,
            vint=device.voltages.vint,
            vbl=device.voltages.vbl,
            vpp=device.voltages.vpp,
            trc=device.timing.trc,
            density_bits=device.spec.density_bits,
            die_area_mm2=geometry.die_area * 1e6,
            array_efficiency=geometry.array_efficiency,
            idd0_ma=idd0(model).milliamps,
            idd4r_ma=r4.milliamps,
            idd4w_ma=w4.milliamps,
            energy_idd4_pj=energy_idd4,
            energy_idd7_pj=mixed.energy_per_bit_pj,
            row_power_share=row_power / total,
            column_power_share=col_power / total,
            background_power_share=background / total,
            array_component_share=array_share,
        ))
    return points


def voltage_trend() -> List[Dict[str, float]]:
    """Figure 11: the four voltages per node, straight from the roadmap."""
    return [
        {
            "node_nm": entry.node_nm,
            "year": float(entry.year),
            "vdd": entry.vdd,
            "vint": entry.vint,
            "vbl": entry.vbl,
            "vpp": entry.vpp,
        }
        for entry in (ROADMAP[node] for node in nodes())
    ]


def timing_trend() -> List[Dict[str, float]]:
    """Figure 12: data rate, core frequency and row timings per node."""
    return [
        {
            "node_nm": entry.node_nm,
            "datarate_gbps": entry.datarate / 1e9,
            "core_frequency_mhz": entry.core_frequency / 1e6,
            "prefetch": float(entry.prefetch),
            "trc_ns": entry.trc * 1e9,
            "trrd_ns": entry.trrd * 1e9,
        }
        for entry in (ROADMAP[node] for node in nodes())
    ]


def energy_reduction_factors(points: Sequence[GenerationPoint],
                             split_node_nm: float = 44.0
                             ) -> Tuple[float, float]:
    """Average per-generation energy reduction before/after a split node.

    The paper reports ≈1.5× per generation from the 170 nm to the 44 nm
    generation (2000-2010) and only ≈1.2× per generation in the forecast
    to the 16 nm generation — the flattening caused by slowing voltage
    scaling.
    """
    ordered = sorted(points, key=lambda point: -point.node_nm)
    early = [point for point in ordered if point.node_nm >= split_node_nm]
    late = [point for point in ordered if point.node_nm <= split_node_nm]

    def factor(series: Sequence[GenerationPoint]) -> float:
        if len(series) < 2:
            return 1.0
        first = series[0].energy_idd7_pj
        last = series[-1].energy_idd7_pj
        steps = len(series) - 1
        return (first / last) ** (1.0 / steps)

    return factor(early), factor(late)


def power_shift(points: Sequence[GenerationPoint]
                ) -> List[Dict[str, float]]:
    """§IV.B: the shift from row-operation power to column/logic power."""
    return [
        {
            "node_nm": point.node_nm,
            "row_share": point.row_power_share,
            "column_share": point.column_power_share,
            "background_share": point.background_power_share,
            "array_component_share": point.array_component_share,
        }
        for point in points
    ]
