"""Unified evaluation engine: shared model construction for all analyses.

Every analysis in :mod:`repro.analysis`, every scheme in
:mod:`repro.schemes` and the module-level model in :mod:`repro.system`
evaluate many device *variants* of a handful of base descriptions.
Rebuilding floorplan geometry and the charge-event list for each variant
from scratch wastes most of a sweep's time whenever the same description
recurs — which it does constantly: the nominal point of a sensitivity
Pareto, the "typical" corner, the revisited coordinates of the
calibration descent.

The engine provides one construction path for all of them:

* :func:`repro.engine.fingerprint.fingerprint` — a canonical,
  order-stable key of a :class:`~repro.description.DramDescription`
  (recursive dataclass walk, independent of ``repr``);
* :class:`repro.engine.cache.ModelCache` — a bounded in-memory LRU
  memoising built :class:`~repro.core.DramPowerModel` instances by
  fingerprint, with hit/miss/build-time counters — the engine's only
  model cache;
* :class:`repro.engine.session.EvaluationSession` — the user-facing
  façade: ``model(device)``, ``evaluate(device, pattern)`` and
  ``map(devices, fn, backend=...)`` batch evaluation on a serial,
  vector or ``auto`` backend;
* :class:`repro.engine.variant.Variant` — declarative perturbations
  (deltas) of a base description, replacing ad-hoc
  ``dataclasses.replace`` scattering in the sweep code;
* :mod:`repro.engine.stages` — chained keys of the first two
  Figure-4 stages (geometry, capacitance), the two keys the vector
  planner groups a sweep family by; a cold scalar build itself runs
  the pipeline straight through;
* :mod:`repro.engine.vector` — the columnar kernel: batchable sweep
  families evaluate as (variants × events) array math against the
  scalar path as bit-level oracle, picked automatically by
  ``backend="auto"`` when numpy is installed (the ``repro[vector]``
  extra) and reported through the ``vector_*`` counters of
  :class:`~repro.engine.cache.EngineStats`.

All analysis entry points accept an optional ``session`` argument; when
omitted a private session is created per call, so existing code keeps
working unchanged while callers that share a session across calls get
cross-analysis reuse for free.
"""

from .cache import EngineStats, ModelCache, merge_stats
from .fingerprint import canonical_form, fingerprint
from .session import (AUTO, BACKENDS, VECTOR, EvaluationSession,
                      ensure_session, evaluate_many, resolve_backend)
from .stages import STAGE_INPUTS, STAGE_ORDER, stage_keys
from .variant import Variant, scaling
from .vector import (MIN_BATCH, VectorPlan, build_family_models,
                     numpy_available, plan_batches)

__all__ = [
    "AUTO",
    "BACKENDS",
    "VECTOR",
    "MIN_BATCH",
    "VectorPlan",
    "build_family_models",
    "numpy_available",
    "plan_batches",
    "EngineStats",
    "merge_stats",
    "ModelCache",
    "canonical_form",
    "fingerprint",
    "resolve_backend",
    "EvaluationSession",
    "ensure_session",
    "evaluate_many",
    "STAGE_INPUTS",
    "STAGE_ORDER",
    "stage_keys",
    "Variant",
    "scaling",
]
