"""Stage keys of the Figure-4 pipeline head, as the vector planner uses them.

The paper's Figure-4 pipeline resolves the floorplan **geometry**,
extracts wire/device **capacitance**, then determines charge, current
and power.  A cold scalar build runs it straight through
(``DramPowerModel(device)``); nothing is reused between builds.  The
vectorized kernel (:mod:`repro.engine.vector`) groups a sweep family by
the keys of the first two stages:

* :data:`STAGE_INPUTS` records which description fields each of those
  stages reads (audited against the actual field accesses of the
  floorplan and circuit code);
* :func:`chain_stage_key` hashes one stage's own inputs onto its parent
  stage's key, so a key matches exactly when the stage artifact *and
  its whole upstream* would be bit-for-bit identical;
* :func:`stage_keys` returns both keys of one device.

Devices sharing a geometry key share their resolved floorplan and
firing rates; devices sharing a capacitance key share their skeleton
list.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from ..description import DramDescription
from .fingerprint import canonical_form

#: The keyed stages in dependency order (the capacitance key chains off
#: the geometry key).
STAGE_ORDER: Tuple[str, ...] = ("geometry", "capacitance")

#: Description fields each keyed stage reads directly.  Fields listed in
#: neither (``voltages``, ``timing``, ``name``, ``pattern``, ...) leave
#: both keys unchanged: the kernel folds them per variant.
STAGE_INPUTS: Dict[str, Tuple[str, ...]] = {
    "geometry": ("floorplan", "spec"),
    "capacitance": ("technology", "floorplan", "spec", "signaling",
                    "logic_blocks"),
}


def chain_stage_key(parent: str, stage: str,
                    device: DramDescription) -> str:
    """One link of the stage-key chain: hash ``stage``'s own inputs
    onto its parent's key.

    Exposed separately so the planner can memoise each link by input
    identity within a call (see :func:`repro.engine.vector.plan_batches`).
    """
    tokens = [stage, "|", parent]
    for name in STAGE_INPUTS[stage]:
        tokens.append("|")
        tokens.append(canonical_form(getattr(device, name)))
    return hashlib.sha256("".join(tokens).encode("utf-8")).hexdigest()


def stage_keys(device: DramDescription) -> Dict[str, str]:
    """Chained SHA-256 key per keyed stage for ``device``.

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
