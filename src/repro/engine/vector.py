"""Columnar vectorized evaluation of sweep families.

A sweep family — the variants of a sensitivity Pareto, a Monte-Carlo
draw, a voltage or technology trend — is a batch of devices that share
a floorplan and differ in a handful of numeric fields.  The scalar
path builds each variant's model independently, running the whole
charge → current → power fold once per variant.  This module folds the
*whole family at once* as array math:

* devices group by their **geometry** stage key (shared floorplan and
  spec, hence shared firing rates) and subgroup by the **structure
  signature** of their skeleton lists
  (:func:`repro.core.events.skeleton_signature` — same rails, swing
  references, triggers, gating and components in the same order);
* within a subgroup, per-event energy is one broadcast expression
  over ``(variants × events)`` capacitance/count matrices and
  ``(variants × rails)`` level/efficiency matrices — the mirror of
  ``count · C · swing · V_rail / eff`` per event;
* the per-operation fold is one matmul against a shared
  ``(events × buckets)`` firing-weight matrix whose columns are the
  ``(command, component)`` buckets of the scalar
  :class:`~repro.core.operations.OperationEnergies` — so every variant
  lands real :class:`~repro.core.DramPowerModel` objects whose folded
  energies agree with the scalar oracle to ~1e-15 relative (the only
  difference is float summation order).

One call builds one :class:`~repro.floorplan.FloorplanGeometry` per
geometry group and one skeleton list per capacitance key, and keeps
them in locals; nothing is memoised across calls.

numpy is an *optional* dependency (the ``repro[vector]`` extra): with
numpy missing every entry point degrades to the scalar path and sets
the one-time ``vector_downgrades`` marker in
:class:`~repro.engine.cache.EngineStats`.  Structures the kernel
cannot express — singleton subgroups, empty event lists, non-clocked
background events — fall back to the scalar path silently and are
counted as ``vector_fallbacks``.  Vector-built models enter the
session's LRU, so later scalar lookups hit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on the no-numpy leg
    _np = None

from ..core.builder import build_skeletons
from ..core.events import (TRIGGER_KIND, Component, skeleton_columns,
                           skeleton_signature)
from ..core.model import DramPowerModel
from ..core.operations import (EnergyBreakdown, OperationEnergies,
                               command_activity_time)
from ..description import Command, DramDescription
from ..description.voltages import RAIL_INDEX
from ..floorplan import FloorplanGeometry
from .stages import STAGE_INPUTS, chain_stage_key

#: Narrowest sweep the auto policy will consider vector-eligible: the
#: kernel's per-batch setup (grouping, weight matrix, array staging)
#: only amortises over a real family.  Explicit ``backend="vector"``
#: calls fold any subgroup of two or more.
MIN_BATCH = 8


def numpy_available() -> bool:
    """Whether the columnar kernel can run in this process."""
    return _np is not None


class VectorIneligible(Exception):
    """A subgroup's structure cannot be expressed columnarly."""


@dataclass(frozen=True)
class VectorPlan:
    """Grouping of one device batch for the columnar kernel.

    Built by :func:`plan_batches`; carries the geometry/capacitance
    stage keys so :func:`build_family_models` does not hash them a
    second time when ``backend="auto"`` already planned the call.
    """

    geometry_keys: Tuple[str, ...]
    """Per-device geometry stage key (grouping axis)."""
    capacitance_keys: Tuple[str, ...]
    """Per-device capacitance stage key (skeleton identity)."""
    groups: Dict[str, Tuple[int, ...]]
    """Geometry key → indices of the devices sharing it."""

    @property
    def eligible(self) -> bool:
        """Whether any group is wide enough for the auto policy."""
        return any(len(members) >= MIN_BATCH
                   for members in self.groups.values())


def plan_batches(devices: Sequence[DramDescription]) -> VectorPlan:
    """Group a device batch by shared geometry stage key.

    Two chained hashes per device (geometry, capacitance), the links
    of :func:`~repro.engine.stages.stage_keys`.  Variants built by
    ``dataclasses.replace`` share their unchanged sub-objects, so the
    hashes dedupe by input *identity* within the call — a 64-point
    voltage family hashes its shared floorplan and spec once, not 64
    times.  (Identity keys are only valid while the devices stay
    alive, which the local scope guarantees.)
    """
    geometry_fields = STAGE_INPUTS["geometry"]
    capacitance_fields = STAGE_INPUTS["capacitance"]
    geometry_keys: List[str] = []
    capacitance_keys: List[str] = []
    groups: Dict[str, List[int]] = {}
    memo: Dict[Tuple, str] = {}
    for index, device in enumerate(devices):
        identity = tuple(id(getattr(device, name))
                         for name in geometry_fields)
        gkey = memo.get(identity)
        if gkey is None:
            gkey = chain_stage_key("", "geometry", device)
            memo[identity] = gkey
        identity = (gkey,) + tuple(id(getattr(device, name))
                                   for name in capacitance_fields)
        ckey = memo.get(identity)
        if ckey is None:
            ckey = chain_stage_key(gkey, "capacitance", device)
            memo[identity] = ckey
        geometry_keys.append(gkey)
        capacitance_keys.append(ckey)
        groups.setdefault(gkey, []).append(index)
    return VectorPlan(
        geometry_keys=tuple(geometry_keys),
        capacitance_keys=tuple(capacitance_keys),
        groups={gkey: tuple(members)
                for gkey, members in groups.items()},
    )


def _check_signature(signature: Tuple) -> None:
    """Reject structures the fold cannot express (→ scalar path)."""
    if not signature:
        raise VectorIneligible("empty event list")
    for entry in signature:
        swing_rail, divisor, rail, trigger, operations, _component = entry
        if trigger not in TRIGGER_KIND:
            raise VectorIneligible(f"unknown trigger {trigger!r}")
        if not operations and TRIGGER_KIND[trigger] == 0:
            raise VectorIneligible("non-clocked background event")
        if swing_rail not in RAIL_INDEX or rail not in RAIL_INDEX:
            raise VectorIneligible("unknown rail")
        if not divisor:
            raise VectorIneligible("zero swing divisor")


def _weight_layout(signature: Tuple, device: DramDescription):
    """The shared firing-weight matrix of one structure signature.

    Returns ``(weight_columns, layout, background)`` where
    ``weight_columns[b][e]`` is event *e*'s firings contribution to
    bucket *b*, ``layout`` maps each command to its ordered
    ``(component, bucket)`` pairs and ``background`` is the same for
    the always-on buckets.  Bucket presence and component order mirror
    the scalar fold exactly: a ``(command, component)`` bucket exists
    iff some event with that component fires on that command, in
    first-seen event order — so the per-variant
    :class:`~repro.core.operations.EnergyBreakdown` dicts come out
    insertion-ordered like the oracle's.
    """
    spec = device.spec
    events = len(signature)
    weight_columns: List[List[float]] = []
    layout: List[Tuple[Command, List[Tuple[Component, int]]]] = []
    for command in Command:
        duration = command_activity_time(device, command)
        rates = (1.0, duration * spec.f_ctrlclock,
                 duration * spec.f_dataclock)
        buckets: Dict[Component, int] = {}
        ordered: List[Tuple[Component, int]] = []
        for position, entry in enumerate(signature):
            _swing_rail, _div, _rail, trigger, operations, component \
                = entry
            if not operations or command not in operations:
                continue
            column = buckets.get(component)
            if column is None:
                column = len(weight_columns)
                buckets[component] = column
                ordered.append((component, column))
                weight_columns.append([0.0] * events)
            weight_columns[column][position] = \
                rates[TRIGGER_KIND[trigger]]
        layout.append((command, ordered))
    clock_rates = (0.0, spec.f_ctrlclock, spec.f_dataclock)
    buckets = {}
    background: List[Tuple[Component, int]] = []
    for position, entry in enumerate(signature):
        _swing_rail, _div, _rail, trigger, operations, component = entry
        if operations:
            continue
        column = buckets.get(component)
        if column is None:
            column = len(weight_columns)
            buckets[component] = column
            background.append((component, column))
            weight_columns.append([0.0] * events)
        weight_columns[column][position] = \
            clock_rates[TRIGGER_KIND[trigger]]
    return weight_columns, layout, background


def _fold_subgroup(devices: Sequence[DramDescription],
                   members: Sequence[Tuple[int, str]],
                   signature: Tuple,
                   skeletons_by_ckey: Dict[str, tuple],
                   plan: VectorPlan,
                   geometry: FloorplanGeometry,
                   cache,
                   models: List[Optional[DramPowerModel]]) -> None:
    """Fold one structure-aligned subgroup and store its models."""
    _check_signature(signature)
    first_device = devices[members[0][0]]
    weight_columns, layout, background_layout = _weight_layout(
        signature, first_device)

    swing_index = [RAIL_INDEX[entry[0]] for entry in signature]
    inverse_divisor = [1.0 / entry[1] for entry in signature]
    rail_index = [RAIL_INDEX[entry[2]] for entry in signature]

    columns_cache: Dict[str, tuple] = {}
    capacitance_rows = []
    count_rows = []
    level_rows = []
    efficiency_rows = []
    for index, _key in members:
        device = devices[index]
        ckey = plan.capacitance_keys[index]
        columns = columns_cache.get(ckey)
        if columns is None:
            columns = skeleton_columns(skeletons_by_ckey[ckey])
            columns_cache[ckey] = columns
        capacitance_rows.append(columns[0])
        count_rows.append(columns[1])
        level_rows.append(device.voltages.rail_levels())
        efficiency_rows.append(device.voltages.rail_efficiencies())

    levels = _np.asarray(level_rows)
    efficiency = _np.asarray(efficiency_rows)
    swing = levels[:, swing_index] * _np.asarray(inverse_divisor)
    # Per-firing energy of every (variant, event) cell: the broadcast
    # of  count · C · swing · level(rail) / eff(rail).
    energy_per_firing = (
        _np.asarray(capacitance_rows) * _np.asarray(count_rows) * swing
        * levels[:, rail_index] / efficiency[:, rail_index])
    # One matmul folds all (command, component) buckets of the family.
    buckets = energy_per_firing @ _np.asarray(weight_columns).T
    rows = buckets.tolist()

    for row, (index, key) in zip(rows, members):
        device = devices[index]
        energies = {
            command: EnergyBreakdown(
                {component: row[column]
                 for component, column in ordered})
            for command, ordered in layout
        }
        folded_background = EnergyBreakdown(
            {component: row[column]
             for component, column in background_layout})
        if device.constant_current:
            folded_background.add(
                Component.POWER,
                device.constant_current * device.voltages.vdd)
        skeletons = skeletons_by_ckey[plan.capacitance_keys[index]]
        folded = OperationEnergies.from_folded(
            device, energies, folded_background, skeletons)
        model = DramPowerModel(device,
                               geometry=geometry.rebind(device),
                               skeletons=skeletons, energies=folded)
        models[index] = cache.store_built(key, model)


def build_family_models(devices: Sequence[DramDescription], cache,
                        plan: Optional[VectorPlan] = None
                        ) -> List[DramPowerModel]:
    """The built model of every device, folded columnarly where possible.

    The vector analogue of calling
    :meth:`~repro.engine.cache.ModelCache.model` per device: in-memory
    LRU hits are reused (and counted) exactly as on the scalar path,
    the remainder is grouped, folded and stored back into the LRU, and
    anything unfoldable — singleton subgroups, structures the fold
    cannot express, numpy missing — takes the scalar path instead.
    The result list is ordered like ``devices`` and every entry is a
    fully usable :class:`~repro.core.DramPowerModel`.
    """
    devices = list(devices)
    models: List[Optional[DramPowerModel]] = [None] * len(devices)
    if _np is None:
        cache.record_vector_downgrade()
        for index, device in enumerate(devices):
            models[index] = cache.model(device)
        return models
    if plan is None:
        plan = plan_batches(devices)

    pending: Dict[str, List[Tuple[int, str]]] = {}
    for index, device in enumerate(devices):
        key, cached = cache.lookup(device)
        if cached is not None:
            models[index] = cached
        else:
            pending.setdefault(plan.geometry_keys[index],
                               []).append((index, key))

    batches = 0
    builds = 0
    leftover: List[Tuple[int, str]] = []
    started = time.perf_counter()
    for entries in pending.values():
        geometry = FloorplanGeometry(devices[entries[0][0]])
        skeletons_by_ckey: Dict[str, tuple] = {}
        for index, _key in entries:
            ckey = plan.capacitance_keys[index]
            if ckey not in skeletons_by_ckey:
                device = devices[index]
                skeletons_by_ckey[ckey] = build_skeletons(
                    device, geometry.rebind(device))

        signature_by_ckey = {
            ckey: skeleton_signature(skeletons)
            for ckey, skeletons in skeletons_by_ckey.items()
        }
        subgroups: Dict[Tuple, List[Tuple[int, str]]] = {}
        for index, key in entries:
            signature = signature_by_ckey[plan.capacitance_keys[index]]
            subgroups.setdefault(signature, []).append((index, key))

        for signature, members in subgroups.items():
            if len(members) < 2:
                leftover.extend(members)
                continue
            try:
                _fold_subgroup(devices, members, signature,
                               skeletons_by_ckey, plan, geometry,
                               cache, models)
            except VectorIneligible:
                leftover.extend(members)
                continue
            batches += 1
            builds += len(members)
    elapsed = time.perf_counter() - started

    for index, _key in leftover:
        models[index] = cache.model(devices[index])
    cache.record_vector(batches=batches, builds=builds,
                        fallbacks=len(leftover), seconds=elapsed)
    return models
