"""The evaluation session — shared construction path for all analyses.

An :class:`EvaluationSession` owns a :class:`~repro.engine.cache.ModelCache`
and offers the three operations every sweep is made of:

* :meth:`EvaluationSession.model` — the (cached) built model of a device;
* :meth:`EvaluationSession.evaluate` — pattern power of a device;
* :meth:`EvaluationSession.map` — evaluate a callable over many devices,
  on a selectable backend, with deterministic result ordering.

Sessions are cheap to create; analyses that are not handed one create a
private session per call (:func:`ensure_session`), which keeps the
public API backward compatible while still deduplicating construction
*within* that call.  Handing one session to several analyses extends the
reuse across them — the nominal device of a sensitivity Pareto, a corner
sweep and a scheme comparison is then built exactly once.

Backends: ``map(..., backend=...)`` selects ``"serial"`` (the
default), ``"vector"`` (batchable sweep families fold as (variants ×
events) array math in-process — see :mod:`repro.engine.vector`; needs
the optional numpy dependency and degrades to serial without it) or
``"auto"`` (vector when numpy is present and the sweep holds a
batchable family of at least :data:`~repro.engine.vector.MIN_BATCH`
devices, serial otherwise).  Serial preserves input ordering and is
the bit-level oracle; vector agrees to ~1e-15 relative.
"""

from __future__ import annotations

from typing import (Callable, Iterable, List, Optional, Sequence, Tuple,
                    TypeVar)

from ..core import ChargeEvent, DramPowerModel, PatternPower
from ..description import DramDescription, Pattern
from ..errors import ModelError
from .cache import DEFAULT_CAPACITY, EngineStats, ModelCache
from .fingerprint import fingerprint
from .vector import (MIN_BATCH, VectorPlan, build_family_models,
                     numpy_available, plan_batches)

Result = TypeVar("Result")

#: The deferred backend name: vector when the sweep is eligible,
#: serial otherwise (see :meth:`EvaluationSession.map`).
AUTO = "auto"

#: The columnar backend name: eligible sweep families fold as
#: (variants × events) array math in-process (see
#: :mod:`repro.engine.vector`); ineligible devices fall back to the
#: scalar path silently.
VECTOR = "vector"

#: Every backend name a fold takes: sweeps, trace file replays and
#: ``/trace`` uploads alike.
BACKENDS = ("serial", VECTOR, AUTO)


def resolve_backend(backend: Optional[str]) -> str:
    """The validated backend name of a fold.

    ``None`` is serial; ``"auto"`` passes through unresolved (the
    caller holds the inputs the decision needs).  Any name not in
    :data:`BACKENDS` raises :class:`~repro.errors.ModelError` — the
    single validation point of every sweep, trace replay and upload.
    """
    if backend is None:
        return "serial"
    if backend not in BACKENDS:
        raise ModelError(f"unknown backend {backend!r}; choose from "
                         + "/".join(BACKENDS))
    return backend


class EvaluationSession:
    """One shared context for building and evaluating device models."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        self.cache = ModelCache(capacity=capacity)

    # ------------------------------------------------------------------
    def model(self, device: DramDescription,
              events: Optional[Tuple[ChargeEvent, ...]] = None
              ) -> DramPowerModel:
        """The built power model of ``device`` (cached by fingerprint).

        ``events`` overrides the charge-event list (scheme-transformed
        models); such models bypass the cache but reuse geometry.
        """
        return self.cache.model(device, events=events)

    def evaluate(self, device: DramDescription,
                 pattern: Optional[Pattern] = None) -> PatternPower:
        """Pattern power of ``device`` (the device default pattern when
        ``pattern`` is omitted)."""
        return self.model(device).pattern_power(pattern)

    def with_events(self, model: DramPowerModel,
                    events: Tuple[ChargeEvent, ...]) -> DramPowerModel:
        """A sibling of ``model`` with a substituted charge-event list.

        Geometry is shared with the original model; the result is not
        cached (events are not part of the fingerprint key).
        """
        return DramPowerModel(model.device, events=events,
                              geometry=model.geometry)

    # ------------------------------------------------------------------
    def _call_with(self, index: int, device: DramDescription,
                   model: DramPowerModel,
                   fn: Callable[[DramPowerModel], Result]) -> Result:
        """Apply ``fn`` to a built model, naming the device on failure."""
        try:
            return fn(model)
        except ModelError:
            raise
        except Exception as exc:
            raise ModelError(
                f"evaluation callable failed for device {index} "
                f"(fingerprint {fingerprint(device)[:12]}): "
                f"{type(exc).__name__}: {exc}") from exc

    def _evaluate_one(self, index: int, device: DramDescription,
                      fn: Callable[[DramPowerModel], Result]) -> Result:
        """Build + evaluate one device, naming it on callable failure."""
        return self._call_with(index, device, self.model(device), fn)

    def map_vectorized(self, devices: Iterable[DramDescription],
                       fn: Callable[[DramPowerModel], Result],
                       plan: Optional[VectorPlan] = None
                       ) -> List[Result]:
        """Apply ``fn`` over models built by the columnar kernel.

        The whole batch's models come from
        :func:`~repro.engine.vector.build_family_models` — warm LRU
        hits reused, batchable families folded as (variants × events)
        arrays, the rest built scalar — then ``fn`` runs serially in
        input order.  Results agree with :meth:`map` to ~1e-15
        relative (float summation order is the only difference);
        without numpy the call degrades to the scalar serial path and
        sets the ``vector_downgrades`` stats marker.
        """
        devices = list(devices)
        models = build_family_models(devices, self.cache, plan=plan)
        return [self._call_with(index, device, model, fn)
                for index, (device, model)
                in enumerate(zip(devices, models))]

    def map(self, devices: Iterable[DramDescription],
            fn: Callable[[DramPowerModel], Result],
            backend: Optional[str] = None) -> List[Result]:
        """Apply ``fn`` to the built model of every device, in order.

        ``backend`` selects serial or vector execution (see the module
        docstring); omitted, the map runs serially.  ``"auto"`` runs
        the columnar vector kernel when numpy is present, the sweep
        has at least :data:`~repro.engine.vector.MIN_BATCH` devices
        and :func:`~repro.engine.vector.plan_batches` finds a
        batchable family in it; otherwise it runs serially.  The
        result list is always ordered like ``devices``; the vector
        backend agrees with serial to ~1e-15 relative (see
        :meth:`map_vectorized`).  A raising ``fn`` surfaces as a
        :class:`ModelError` naming the failing device's index and
        fingerprint.
        """
        devices = list(devices)
        backend = resolve_backend(backend)
        plan = None
        if backend == AUTO:
            backend = "serial"
            if len(devices) >= MIN_BATCH and numpy_available():
                candidate = plan_batches(devices)
                if candidate.eligible:
                    plan, backend = candidate, VECTOR
        if backend == VECTOR:
            return self.map_vectorized(devices, fn, plan=plan)
        return [self._evaluate_one(index, device, fn)
                for index, device in enumerate(devices)]

    def map_devices(self, devices: Iterable[DramDescription],
                    fn: Callable[[DramDescription], Result],
                    backend: Optional[str] = None) -> List[Result]:
        """Like :meth:`map` but hands ``fn`` the description itself.

        For evaluation functions that route through the session on
        their own (e.g. scheme evaluations building several models).
        """
        return self.map(devices, lambda model: fn(model.device),
                        backend=backend)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> EngineStats:
        """Counter snapshot of the underlying model cache."""
        return self.cache.stats()


def ensure_session(session: Optional[EvaluationSession]
                   ) -> EvaluationSession:
    """``session`` itself, or a fresh private one when ``None``.

    The standard prologue of every analysis entry point: passing no
    session preserves the historical per-call behaviour; passing one
    shares the model cache across calls.
    """
    if session is None:
        return EvaluationSession()
    return session


def evaluate_many(devices: Sequence[DramDescription],
                  fn: Callable[[DramPowerModel], Result],
                  backend: Optional[str] = None,
                  session: Optional[EvaluationSession] = None
                  ) -> List[Result]:
    """One-shot convenience over :meth:`EvaluationSession.map`."""
    return ensure_session(session).map(devices, fn, backend=backend)
