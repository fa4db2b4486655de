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
without limit.

An optional :class:`~repro.engine.diskcache.DiskModelCache` is
consulted on every LRU miss and written on every cold build, so
repeated processes (CLI runs, CI jobs, service workers) skip cold
builds entirely — a disk hit counts as a *hit* in the statistics,
since no model was built.
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
from .diskcache import DiskModelCache
from .fingerprint import fingerprint

#: Default number of built models kept alive.
DEFAULT_CAPACITY = 256


@dataclass(frozen=True)
class EngineStats:
    """Snapshot of one cache's counters (all cumulative).

    Every field but ``size`` and ``capacity`` is a counter: adding a
    counter means adding one field here, which :meth:`delta`,
    :func:`merge_stats` and :class:`ModelCache` pick up from
    :func:`dataclasses.fields`.
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
    disk_hits: int = 0
    """LRU misses answered by the on-disk cache (no build needed)."""
    disk_misses: int = 0
    """LRU misses the on-disk cache could not answer either."""
    disk_writes: int = 0
    """Cold builds persisted to the on-disk cache."""
    disk_corrupt: int = 0
    """Disk entries skipped as corrupt or stale (treated as misses)."""
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
        return (self.hits + self.disk_hits + self.misses
                + self.vector_builds)

    @property
    def hit_rate(self) -> float:
        """Lookups answered without a cold build; 0.0 before the
        first lookup.  Disk hits count — no model was built."""
        if not self.lookups:
            return 0.0
        return (self.hits + self.disk_hits) / self.lookups

    def __str__(self) -> str:
        text = (f"hits={self.hits} misses={self.misses} "
                f"hit-rate={self.hit_rate:.1%} size={self.size}/"
                f"{self.capacity} build-time={self.build_seconds:.3f}s")
        if (self.disk_hits or self.disk_misses or self.disk_writes
                or self.disk_corrupt):
            text += (f" disk[hits={self.disk_hits} "
                     f"misses={self.disk_misses} "
                     f"writes={self.disk_writes} "
                     f"corrupt={self.disk_corrupt}]")
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

    def delta(self, since: "EngineStats") -> "EngineStats":
        """The counter growth between ``since`` and this snapshot.

        ``size``/``capacity`` are states, not counters; the delta
        keeps this snapshot's values.  Used to report exactly the work
        one sweep performed.
        """
        return dataclasses.replace(self, **{
            name: getattr(self, name) - getattr(since, name)
            for name in _COUNTERS})


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
    """Counter-wise sum of two snapshots (or deltas).

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

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 disk: Optional[DiskModelCache] = None):
        if capacity <= 0:
            raise ModelError("cache capacity must be positive")
        self.capacity = capacity
        self.disk = disk
        self._models: "OrderedDict[str, DramPowerModel]" = OrderedDict()
        self._lock = threading.Lock()
        # One ``_<name>`` attribute per counter.  ``_disk_corrupt``
        # stays zero: :meth:`stats` adds the disk cache's own count.
        zero = EngineStats()
        for name in _COUNTERS:
            setattr(self, "_" + name, getattr(zero, name))

    def __len__(self) -> int:
        return len(self._models)

    # ------------------------------------------------------------------
    # Vectorized-kernel hooks.  The columnar kernel wants the raw LRU —
    # consult it per device, then store whole folded batches — without
    # triggering the scalar cold-build path of :meth:`model`.
    # ------------------------------------------------------------------
    def lookup(self, device: DramDescription
               ) -> Tuple[str, Optional[DramPowerModel]]:
        """``(fingerprint, cached model or None)`` — LRU probe only.

        A hit counts as a hit; a miss counts *nothing* here — the
        kernel either folds the model (counted as ``vector_builds``
        via :meth:`record_vector`) or falls back to :meth:`model`,
        which does its own accounting.  The disk cache is not
        consulted: vector-built models are cheaper to refold than to
        round-trip through pickle.
        """
        key = fingerprint(device)
        with self._lock:
            cached = self._models.get(key)
            if cached is not None:
                self._hits += 1
                self._models.move_to_end(key)
        return key, cached

    def store_built(self, key: str,
                    model: DramPowerModel) -> DramPowerModel:
        """Insert an externally built model under ``key``.

        Keeps the first copy on a race (hits stay identity-stable)
        and returns the canonical instance.  Vector-built models are
        not written to the disk cache — see :meth:`lookup`.
        """
        with self._lock:
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

        Lookup order: in-memory LRU, then the disk cache (when
        configured), then a cold build — which is persisted to disk so
        the *next* process hits.  With ``events`` given
        (scheme-transformed charge lists) the returned model is built
        fresh around those events — it is never cached, since events
        are not part of the key — but it still reuses the cached
        model's resolved geometry.
        """
        key = fingerprint(device)
        with self._lock:
            cached = self._models.get(key)
            if cached is not None:
                self._hits += 1
                self._models.move_to_end(key)
        if cached is None:
            loaded = self.disk.load(key) if self.disk is not None else None
            elapsed = 0.0
            if loaded is None:
                started = time.perf_counter()
                built = DramPowerModel(device)
                elapsed = time.perf_counter() - started
            else:
                built = loaded
            stored_fresh = False
            with self._lock:
                if loaded is not None:
                    self._disk_hits += 1
                else:
                    self._misses += 1
                    self._build_seconds += elapsed
                    if self.disk is not None:
                        self._disk_misses += 1
                racing = self._models.get(key)
                if racing is not None:
                    # Another thread built it first; keep one canonical
                    # model so hits stay identity-stable.
                    cached = racing
                    self._models.move_to_end(key)
                else:
                    cached = built
                    self._models[key] = cached
                    stored_fresh = loaded is None
                    while len(self._models) > self.capacity:
                        self._models.popitem(last=False)
                        self._evictions += 1
            if stored_fresh and self.disk is not None:
                if self.disk.store(key, cached):
                    with self._lock:
                        self._disk_writes += 1
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
        corrupt = (self.disk.corrupt_entries
                   if self.disk is not None else 0)
        with self._lock:
            counts = {name: getattr(self, "_" + name)
                      for name in _COUNTERS}
            size = len(self._models)
        counts["disk_corrupt"] += corrupt
        return EngineStats(size=size, capacity=self.capacity, **counts)
