"""Stage-level incremental model construction.

The paper's Figure-4 pipeline is a chain of stages — resolve the
floorplan **geometry**, extract wire/device **capacitance**, determine
per-event **charge**, fold into per-operation **current** (energies),
evaluate the default-pattern **power** — and each stage reads only a
subset of the description's fields.  A sweep that perturbs one field
therefore only invalidates the stages that read it *and everything
downstream*; every earlier stage can be reused verbatim.

This module makes that reuse explicit:

* :data:`STAGE_INPUTS` records which description fields each stage
  reads (audited against the actual field accesses of the floorplan,
  circuit and operation code);
* :func:`stage_keys` fingerprints each stage by chaining the SHA-256 of
  its own inputs onto its parent stage's key, so a stage key matches
  exactly when the stage artifact *and its whole upstream* are
  bit-for-bit reusable;
* :class:`StageCache` is a bounded, thread-safe LRU of stage artifacts
  keyed by ``(stage, key)``;
* :func:`build_model` assembles a :class:`DramPowerModel` from cached
  artifacts, building only the stages whose keys miss.  Reused
  geometry/energies are rebound to the evaluated device via their
  ``rebind`` methods so lazy device-reading paths stay consistent.

Assembled models are bit-for-bit identical to cold builds: skeleton
resolution applies exactly the swing arithmetic of the one-step
builder, and reused artifacts are only ever keyed by the full value of
every field they read.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Iterable, Optional, Tuple

from ..core import DramPowerModel
from ..core.builder import build_skeletons, resolve_events
from ..core.operations import OperationEnergies
from ..description import DramDescription
from ..floorplan import FloorplanGeometry
from .fingerprint import canonical_form

#: Pipeline stages in dependency order (each depends on all before it
#: through key chaining).
STAGE_ORDER: Tuple[str, ...] = (
    "geometry", "capacitance", "charge", "current", "power",
)

#: Description fields each stage reads directly.  Fields listed nowhere
#: (``interface``, ``node``, ``timing``) do not influence any stage
#: artifact — they are consumed by reporting layers that read the
#: device through the model, never by construction.
STAGE_INPUTS: Dict[str, Tuple[str, ...]] = {
    "geometry": ("floorplan", "spec"),
    "capacitance": ("technology", "floorplan", "spec", "signaling",
                    "logic_blocks"),
    "charge": ("voltages",),
    "current": ("voltages", "spec", "constant_current"),
    "power": ("name", "pattern", "spec", "voltages"),
}

#: Inverse view: description field → stages that read it directly.
FIELD_STAGES: Dict[str, Tuple[str, ...]] = {}
for _stage in STAGE_ORDER:
    for _field in STAGE_INPUTS[_stage]:
        FIELD_STAGES[_field] = FIELD_STAGES.get(_field, ()) + (_stage,)

#: Default number of stage artifacts kept alive.
DEFAULT_STAGE_CAPACITY = 1024


def dirty_stages(fields: Iterable[str]) -> Tuple[str, ...]:
    """Stages invalidated by a change to ``fields`` (downstream closure).

    Returns the suffix of :data:`STAGE_ORDER` starting at the earliest
    stage that reads any of the fields — later stages are always dirty
    too, because their keys chain off the dirty stage's key.  Fields no
    stage reads return an empty tuple (the change cannot alter any
    artifact).
    """
    touched = set(fields)
    for index, stage in enumerate(STAGE_ORDER):
        if touched.intersection(STAGE_INPUTS[stage]):
            return STAGE_ORDER[index:]
    return ()


def chain_stage_key(parent: str, stage: str,
                    device: DramDescription) -> str:
    """One link of the stage-key chain: hash ``stage``'s own inputs
    onto its parent's key.

    Exposed separately so callers that only need the head of the
    chain — the vectorized kernel groups sweep families by geometry
    and capacitance keys alone — can stop hashing after two links
    instead of paying for all five stages.
    """
    tokens = [stage, "|", parent]
    for name in STAGE_INPUTS[stage]:
        tokens.append("|")
        tokens.append(canonical_form(getattr(device, name)))
    return hashlib.sha256("".join(tokens).encode("utf-8")).hexdigest()


def stage_keys(device: DramDescription) -> Dict[str, str]:
    """Chained SHA-256 key per stage for ``device``.

    ``key[stage] = sha256(stage | key[parent] | canonical(inputs))`` —
    two devices share a stage key exactly when that stage and every
    stage upstream of it would compute bit-identical artifacts.
    """
    keys: Dict[str, str] = {}
    parent = ""
    for stage in STAGE_ORDER:
        parent = chain_stage_key(parent, stage, device)
        keys[stage] = parent
    return keys


class StageCache:
    """Bounded, thread-safe LRU of pipeline-stage artifacts.

    Entries are keyed ``(stage, key)`` with ``key`` from
    :func:`stage_keys`.  Hit/miss counters cover :meth:`get` only —
    seeding via :meth:`put` is free — so the counters read as "stages
    reused" vs "stages computed" across all cold model builds.
    """

    def __init__(self, capacity: int = DEFAULT_STAGE_CAPACITY):
        self.capacity = max(1, capacity)
        self._entries: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, stage: str, key: str) -> Optional[Any]:
        """The cached artifact of ``(stage, key)``, or ``None``."""
        slot = (stage, key)
        with self._lock:
            artifact = self._entries.get(slot)
            if artifact is None:
                self._misses += 1
                return None
            self._hits += 1
            self._entries.move_to_end(slot)
            return artifact

    def put(self, stage: str, key: str, artifact: Any) -> None:
        """Store an artifact (keeps the first copy on a race)."""
        slot = (stage, key)
        with self._lock:
            if slot not in self._entries:
                self._entries[slot] = artifact
            self._entries.move_to_end(slot)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def counters(self) -> Tuple[int, int]:
        """``(hits, misses)`` — cumulative :meth:`get` outcomes."""
        with self._lock:
            return self._hits, self._misses

    def clear(self) -> None:
        """Drop every artifact (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()


def build_model(device: DramDescription,
                stages: StageCache) -> DramPowerModel:
    """Build ``device``'s model, reusing every stage whose key hits.

    Identical output to ``DramPowerModel(device)``; only the work
    differs.  A voltage-only perturbation, for example, reuses the
    geometry and capacitance artifacts and recomputes charge, current
    and power only.
    """
    keys = stage_keys(device)

    geometry = stages.get("geometry", keys["geometry"])
    if geometry is None:
        geometry = FloorplanGeometry(device)
        stages.put("geometry", keys["geometry"], geometry)
    else:
        geometry = geometry.rebind(device)

    skeletons = stages.get("capacitance", keys["capacitance"])
    if skeletons is None:
        skeletons = build_skeletons(device, geometry)
        stages.put("capacitance", keys["capacitance"], skeletons)

    events = stages.get("charge", keys["charge"])
    if events is None:
        events = resolve_events(skeletons, device.voltages)
        stages.put("charge", keys["charge"], events)

    energies = stages.get("current", keys["current"])
    if energies is None:
        energies = OperationEnergies(device, events)
        stages.put("current", keys["current"], energies)
    else:
        energies = energies.rebind(device)

    default_power = stages.get("power", keys["power"])
    model = DramPowerModel(device, events=events, geometry=geometry,
                           skeletons=skeletons, energies=energies,
                           default_power=default_power)
    if default_power is None:
        stages.put("power", keys["power"], model.pattern_power())
    return model


def stage_payload(device: DramDescription,
                  model: DramPowerModel) -> Optional[Dict[str, Tuple[str, Any]]]:
    """Exportable ``{stage: (key, artifact)}`` of one built model.

    Used to seed the stage cache with the stages of a model loaded
    from the disk cache.  Returns ``None`` for models built around
    substituted event lists — their events are not the canonical
    charge artifact of the device.
    """
    if model.skeletons is None:
        return None
    keys = stage_keys(device)
    return {
        "geometry": (keys["geometry"], model.geometry),
        "capacitance": (keys["capacitance"], model.skeletons),
        "charge": (keys["charge"], model.events),
        "current": (keys["current"], model.energies),
        "power": (keys["power"], model.pattern_power()),
    }


def seed_stage_cache(stages: StageCache,
                     payload: Dict[str, Tuple[str, Any]]) -> int:
    """Insert an exported stage payload; returns entries seeded."""
    seeded = 0
    for stage in STAGE_ORDER:
        entry = payload.get(stage)
        if entry is None:
            continue
        key, artifact = entry
        stages.put(stage, key, artifact)
        seeded += 1
    return seeded
