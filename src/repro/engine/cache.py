"""Bounded LRU cache of built power models, keyed by fingerprint.

Building a :class:`~repro.core.DramPowerModel` means resolving the
floorplan geometry, deriving the full charge-event list and folding it
into per-operation energies — by far the dominant cost of any sweep.
The cache memoises the *whole built model*: a hit returns the identical
object, so repeated evaluations of equal descriptions share geometry,
events and energies bit-for-bit.

The cache is thread-safe (a single lock around the table) so the
service's request threads can share one session, and bounded
(least-recently-used eviction) so open-ended sweeps cannot grow memory
without limit.  It lives and dies with its process: a cold build
(about 0.5 ms per device) costs too little for a persistent copy to
pay back.
"""

from __future__ import annotations

import dataclasses
import operator
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core import ChargeEvent, DramPowerModel
from ..description import DramDescription
from ..errors import ModelError
from .fingerprint import fingerprint

#: Default number of built models kept alive.
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of one cache's counters (all cumulative).

    Every field but ``size`` and ``capacity`` is a counter: adding a
    counter means adding one field here, which :func:`merge_stats`
    and :class:`ModelCache` pick up from :func:`dataclasses.fields`.
    """

    hits: int = 0
    """Lookups answered from the in-memory cache."""
    misses: int = 0
    """Lookups that had to build a model (cold builds)."""
    evictions: int = 0
    """Models dropped by the LRU bound."""
    size: int = 0
    """Models currently held — an occupancy gauge, not a counter:
    merges across worker caches take the maximum, never the sum."""
    capacity: int = 0
    """Maximum models held."""
    build_seconds: float = 0.0
    """Total wall-clock time spent building models (s)."""
    vector_batches: int = 0
    """Sweep-family batches folded columnarly by the vectorized
    kernel (one batch = one (variants × events) array fold)."""
    vector_builds: int = 0
    """Models assembled from vector-folded energies instead of a
    scalar cold build."""
    vector_fallbacks: int = 0
    """Devices a vectorized call routed back through the scalar
    path (structure too small or not batchable); results identical."""
    vector_downgrades: int = 0
    """One-time marker: a vector-eligible call found numpy missing
    and the whole session degraded to the scalar path (0 or 1)."""
    vector_seconds: float = 0.0
    """Total wall-clock time spent in the columnar kernel (s)."""

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses + self.vector_builds

    @property
    def hit_rate(self) -> float:
        """Lookups answered without a build; 0.0 before the first
        lookup."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def __str__(self) -> str:
        text = (f"hits={self.hits} misses={self.misses} "
                f"hit-rate={self.hit_rate:.1%} size={self.size}/"
                f"{self.capacity} build-time={self.build_seconds:.3f}s")
        if (self.vector_batches or self.vector_builds
                or self.vector_fallbacks or self.vector_downgrades):
            text += (f" vector[batches={self.vector_batches} "
                     f"builds={self.vector_builds} "
                     f"fallbacks={self.vector_fallbacks} "
                     f"downgrades={self.vector_downgrades} "
                     f"time={self.vector_seconds:.3f}s]")
        return text

    @classmethod
    def from_dict(cls, payload) -> "EngineStats":
        """Rebuild a snapshot from a JSON-ish mapping.

        Accepts the ``engine`` payload of ``GET /stats`` verbatim:
        unknown keys (derived properties like ``hit_rate``) are
        ignored and missing counters default, so snapshots survive a
        round trip through older or newer wire formats.  Malformed
        values raise ``TypeError``/``ValueError`` for the caller.
        """
        fields = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in dict(payload).items()
                      if key in fields})


#: The counter fields of :class:`EngineStats` (all but the ``size``
#: gauge and the ``capacity`` setting), in declaration order.
_COUNTERS = tuple(field.name
                  for field in dataclasses.fields(EngineStats)
                  if field.name not in ("size", "capacity"))

#: How :func:`merge_stats` combines a field of two snapshots when it
#: does not simply sum.  ``size`` is an occupancy *gauge*: N caches
#: each holding k models do not hold N·k models between them from any
#: one cache's point of view, so merges take the maximum.  ``capacity``
#: keeps the left (first) operand's setting, and ``vector_downgrades``
#: is a one-time 0/1 marker.
_COMBINE = {"size": max, "capacity": lambda left, right: left,
            "vector_downgrades": max}


def _combine(name: str, left, right):
    return _COMBINE.get(name, operator.add)(left, right)


def merge_stats(left: EngineStats, right: EngineStats) -> EngineStats:
    """Counter-wise sum of two snapshots.

    ``size`` merges as the maximum occupancy and ``capacity`` keeps
    the left operand's value (see :data:`_COMBINE`).  Used by the
    multi-worker service's cluster ``/stats`` (which overrides
    ``capacity`` with the fleet total it computes itself).
    """
    return EngineStats(**{
        field.name: _combine(field.name, getattr(left, field.name),
                             getattr(right, field.name))
        for field in dataclasses.fields(EngineStats)})


class ModelCache:
    """LRU-memoised construction of :class:`DramPowerModel` instances."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity <= 0:
            raise ModelError("cache capacity must be positive")
        self.capacity = capacity
        self._models: "OrderedDict[str, DramPowerModel]" = OrderedDict()
        self._lock = threading.Lock()
        # One ``_<name>`` attribute per counter.
        zero = EngineStats()
        for name in _COUNTERS:
            setattr(self, "_" + name, getattr(zero, name))

    def __len__(self) -> int:
        return len(self._models)

    # ------------------------------------------------------------------
    # The two halves of :meth:`model`.  The columnar kernel calls them
    # directly — probe per device, then store whole folded batches —
    # so its builds count as ``vector_builds``, not cold builds.
    # ------------------------------------------------------------------
    def lookup(self, device: DramDescription
               ) -> Tuple[str, Optional[DramPowerModel]]:
        """``(fingerprint, cached model or None)`` — LRU probe only.

        A hit counts as a hit; a miss counts *nothing* here — the
        caller either builds the model and counts it through
        :meth:`store_built`, or (the kernel) folds it and counts it
        as ``vector_builds`` via :meth:`record_vector`.
        """
        key = fingerprint(device)
        with self._lock:
            cached = self._models.get(key)
            if cached is not None:
                self._hits += 1
                self._models.move_to_end(key)
        return key, cached

    def store_built(self, key: str, model: DramPowerModel,
                    build_seconds: Optional[float] = None
                    ) -> DramPowerModel:
        """Insert an externally built model under ``key``.

        Keeps the first copy on a race (hits stay identity-stable)
        and returns the canonical instance.  With ``build_seconds``
        the insert also counts one cold build (a miss) of that
        duration, under the same lock.
        """
        with self._lock:
            if build_seconds is not None:
                self._misses += 1
                self._build_seconds += build_seconds
            racing = self._models.get(key)
            if racing is not None:
                self._models.move_to_end(key)
                return racing
            self._models[key] = model
            while len(self._models) > self.capacity:
                self._models.popitem(last=False)
                self._evictions += 1
        return model

    def record_vector(self, batches: int = 0, builds: int = 0,
                      fallbacks: int = 0, seconds: float = 0.0) -> None:
        """Count columnar-kernel work (batches folded, models built,
        scalar fallbacks, kernel wall-clock)."""
        with self._lock:
            self._vector_batches += batches
            self._vector_builds += builds
            self._vector_fallbacks += fallbacks
            self._vector_seconds += seconds

    def record_vector_downgrade(self) -> None:
        """Set the one-time numpy-missing downgrade marker."""
        with self._lock:
            self._vector_downgrades = 1

    # ------------------------------------------------------------------
    def model(self, device: DramDescription,
              events: Optional[Tuple[ChargeEvent, ...]] = None
              ) -> DramPowerModel:
        """The built model of ``device``, from cache when possible.

        A miss builds cold and stores the result; when two threads
        miss on one device at once both build, and both get the
        first stored copy.  With ``events`` given (scheme-transformed
        charge lists) the returned model is built fresh around those
        events — it is never cached, since events are not part of the
        key — but it still reuses the cached model's resolved
        geometry.
        """
        key, cached = self.lookup(device)
        if cached is None:
            started = time.perf_counter()
            built = DramPowerModel(device)
            cached = self.store_built(
                key, built, build_seconds=time.perf_counter() - started)
        if events is None:
            return cached
        return DramPowerModel(device, events=events,
                              geometry=cached.geometry)

    # ------------------------------------------------------------------
    def clear(self) -> None:
        """Drop every cached model (counters keep accumulating)."""
        with self._lock:
            self._models.clear()

    def stats(self) -> EngineStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            counts = {name: getattr(self, "_" + name)
                      for name in _COUNTERS}
            size = len(self._models)
        return EngineStats(size=size, capacity=self.capacity, **counts)
