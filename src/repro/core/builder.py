"""Assembles the full charge-event list of a device.

This is the "calculate wire and device capacitances / determine charge"
stage of Figure 4, now split along the paper's own pipeline boundary:

* :func:`build_skeletons` — the **capacitance extraction** stage: every
  circuit model contributes voltage-free
  :class:`~repro.core.events.EventSkeleton` objects, computed against
  the resolved floorplan geometry;
* :func:`resolve_events` — the **charge determination** stage: the
  skeletons are resolved against the device's voltage set into finished
  :class:`~repro.core.events.ChargeEvent` objects.

Keeping the two stages separate lets the vectorized kernel run the
(expensive) capacitance extraction once for all variants of a sweep
family that only perturb voltages; :func:`build_events` composes both
for callers that want the historical single-step behaviour.  Both
paths are bit-for-bit identical: skeleton resolution applies exactly
the swing arithmetic the one-step builder used.
"""

from __future__ import annotations

from typing import List, Tuple

from ..description import DramDescription, VoltageSet
from ..floorplan import FloorplanGeometry
from .events import ChargeEvent, EventSkeleton, resolve_skeletons


def build_skeletons(device: DramDescription,
                    geometry: FloorplanGeometry = None
                    ) -> Tuple[EventSkeleton, ...]:
    """All voltage-free event skeletons of ``device``.

    The concatenation order (array, wordline, column, signaling, logic)
    is part of the model contract — downstream per-operation folds and
    event reports preserve it.
    """
    from ..circuits import array, column, logic, signaling, wordline

    if geometry is None:
        geometry = FloorplanGeometry(device)
    produced: List[EventSkeleton] = []
    produced.extend(array.skeletons(device, geometry))
    produced.extend(wordline.skeletons(device, geometry))
    produced.extend(column.skeletons(device, geometry))
    produced.extend(signaling.skeletons(device, geometry))
    produced.extend(logic.skeletons(device, geometry))
    return tuple(produced)


def resolve_events(skeletons: Tuple[EventSkeleton, ...],
                   voltages: VoltageSet) -> Tuple[ChargeEvent, ...]:
    """Resolve skeleton swings against ``voltages`` (order-preserving)."""
    return resolve_skeletons(skeletons, voltages)


def build_events(device: DramDescription,
                 geometry: FloorplanGeometry = None
                 ) -> Tuple[ChargeEvent, ...]:
    """All charge events of ``device`` against its floorplan geometry."""
    return resolve_events(build_skeletons(device, geometry),
                          device.voltages)
