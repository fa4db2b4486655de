"""Process-based parallel execution of evaluation sweeps.

The model is pure Python, so threads overlap almost no compute under
the GIL.  This module adds real CPU scale-out to
:meth:`~repro.engine.session.EvaluationSession.map`: the device list
is sharded into contiguous chunks, each chunk's serialized
:class:`~repro.description.DramDescription` list is shipped to a
``ProcessPoolExecutor`` whose workers each own a private
:class:`~repro.engine.session.EvaluationSession` (same capacity and
disk-cache directory as the parent), and the per-chunk results come
back in submission order — so the merged result list is bit-for-bit
identical to the serial run (pickle round-trips floats exactly).

Contract with callers:

* the evaluation callable must be **picklable** — a module-level
  function or a :func:`functools.partial` of one; lambdas and closures
  are rejected up front with a clear :class:`~repro.errors.ModelError`;
* a raising callable surfaces as a :class:`ModelError` naming the
  failing device's *index* and *fingerprint* (the worker traceback is
  appended), never as a bare pickled traceback;
* each worker's cache counters are snapshotted per chunk and merged
  back into the parent session via
  :meth:`~repro.engine.cache.ModelCache.absorb`, so ``session.stats``
  describes the whole sweep regardless of backend;
* a crashed or killed worker does **not** abort the sweep: the chunks
  lost to the broken pool are re-dispatched once onto a fresh pool,
  and chunks that die again degrade to in-parent serial evaluation —
  results stay bit-for-bit identical to the serial run either way,
  and the degradation is recorded in
  :class:`~repro.engine.cache.EngineStats` (``pool_retries``,
  ``serial_fallbacks``).
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import (Any, Callable, Dict, List, Optional, Sequence,
                    Tuple)

from ..errors import ModelError
from .cache import DEFAULT_CAPACITY, EngineStats, merge_stats
from .fingerprint import fingerprint

#: The recognised execution backends.
BACKENDS = ("serial", "process")

#: The deferred backend name: resolved per call from the sweep width,
#: the measured per-build cost and the usable worker count.
AUTO = "auto"

#: The columnar backend name: eligible sweep families fold as
#: (variants × events) array math in-process (see
#: :mod:`repro.engine.vector`); ineligible devices fall back to the
#: scalar path silently.
VECTOR = "vector"

#: Assumed cold-build cost (s) before any measurement exists; the
#: observed ``build_seconds / misses`` of the session replaces it as
#: soon as one cold build has been timed.
DEFAULT_BUILD_SECONDS = 0.005

#: Amortised cost (s) of adding one process-pool worker: fork/spawn,
#: pool plumbing and the worker's private session.  Deliberately
#: pessimistic — overestimating keeps small sweeps serial, which is
#: the cheap mistake.
WORKER_STARTUP_SECONDS = 0.1

#: Sweeps at or below this width never leave the serial path; pool
#: overhead can only lose on one or two builds.
SERIAL_WIDTH_LIMIT = 2

#: Assumed per-variant cost (s) of the columnar kernel before any
#: measurement exists.  Deliberately below the scalar default — a
#: vector-eligible family folds an order of magnitude faster than it
#: builds — but conservative against the measured reality (~1e-4 s)
#: so the first decision does not over-promise.
DEFAULT_VECTOR_SECONDS = 0.0005


def resolve_backend(backend: Optional[str],
                    jobs: Optional[int]) -> str:
    """The effective backend of a ``map`` call.

    ``None`` is serial, whatever ``jobs`` says.  ``"auto"`` passes
    through unresolved — the caller holds the sweep width and cost
    estimate that :func:`choose_backend` needs.  Anything else not
    named in :data:`BACKENDS` raises, as does a non-positive ``jobs``
    — this is the single validation point for every backend, so
    serial calls reject ``jobs=0`` exactly like the process pool does.
    """
    if jobs is not None and jobs <= 0:
        raise ModelError("jobs must be a positive worker count")
    if backend is None:
        return "serial"
    if backend in (AUTO, VECTOR):
        return backend
    if backend not in BACKENDS:
        raise ModelError(
            f"unknown backend {backend!r}; choose from "
            + "/".join(BACKENDS + (AUTO, VECTOR)))
    return backend


def estimate_build_seconds(stats=None) -> float:
    """Per-model cold-build cost estimate (s) for the auto policy.

    Seeded from an :class:`~repro.engine.cache.EngineStats` snapshot
    when it has timed at least one cold build; the conservative
    :data:`DEFAULT_BUILD_SECONDS` otherwise.
    """
    if stats is not None and stats.misses > 0:
        observed = stats.build_seconds / stats.misses
        if observed > 0.0:
            return observed
    return DEFAULT_BUILD_SECONDS


def estimate_vector_seconds(stats=None) -> float:
    """Per-variant columnar-fold cost estimate (s) for the auto policy.

    Seeded from the session's measured ``vector_seconds /
    vector_builds`` once the kernel has folded anything; the
    conservative :data:`DEFAULT_VECTOR_SECONDS` before that.  This is
    the cost-model fix for vector-eligible families: seeding the
    decision from scalar ``build_seconds`` alone made ``auto`` pick
    process sharding for sweeps the in-process columnar fold wins.
    """
    if stats is not None and getattr(stats, "vector_builds", 0) > 0:
        observed = stats.vector_seconds / stats.vector_builds
        if observed > 0.0:
            return observed
    return DEFAULT_VECTOR_SECONDS


def choose_backend(width: int, jobs: Optional[int] = None,
                   build_seconds: Optional[float] = None,
                   expected_hit_rate: float = 0.0,
                   vector_eligible: bool = False,
                   vector_seconds: Optional[float] = None) -> str:
    """The serial/process/vector decision behind ``backend="auto"``.

    Compares the projected serial cost (``width`` x ``build_seconds``,
    discounted by the cache hit rate the session has been observing)
    against the projected pool cost (per-worker startup plus the
    sharded build time) and returns the cheaper backend.

    ``expected_hit_rate`` folds the warm-cache reality into the serial
    projection only: a serial run on this session reuses its warm
    model cache, while pool workers start from scratch (the pessimism
    keeps the cheap mistake — staying serial — the likely one).  A
    session that has been answering 90 % of lookups from cache
    projects a 10×-smaller serial cost and correctly stays serial for
    re-runs of a sweep it already holds.

    With ``vector_eligible`` (the caller found a batchable sweep
    family and numpy present) a third projection joins the
    comparison: ``width`` × the measured per-variant fold cost,
    discounted by the same hit rate — the columnar kernel runs
    in-process against this session's warm cache exactly like serial
    does.  A vectorized single process often beats eight scalar
    workers, so the fold cost must enter the decision *before* the
    serial-vs-process comparison, not after.

    ``width <= 2`` calls are always serial, so tiny lookups keep
    their short stacks.  A single usable worker rules out the pool —
    but **not** the vector kernel, which folds in-process on one core
    and therefore stays on the table even on single-CPU hosts.
    """
    workers = jobs if jobs is not None else default_jobs()
    if width <= SERIAL_WIDTH_LIMIT:
        return "serial"
    per_build = (build_seconds if build_seconds and build_seconds > 0
                 else DEFAULT_BUILD_SECONDS)
    rate = min(max(expected_hit_rate, 0.0), 1.0)
    serial_seconds = width * per_build * (1.0 - rate)
    if workers > 1:
        workers = min(workers, width)
        pooled_seconds = (workers * WORKER_STARTUP_SECONDS
                          + width * per_build / workers)
    else:
        pooled_seconds = float("inf")
    if vector_eligible:
        per_fold = (vector_seconds if vector_seconds
                    and vector_seconds > 0 else DEFAULT_VECTOR_SECONDS)
        folded_seconds = width * per_fold * (1.0 - rate)
        if (folded_seconds <= serial_seconds
                and folded_seconds <= pooled_seconds):
            return VECTOR
    return "process" if pooled_seconds < serial_seconds else "serial"


def is_picklable(fn: Callable) -> bool:
    """Whether ``fn`` can ship to process-pool workers.

    The auto policy downgrades to serial instead of failing when the
    callable cannot be pickled; an *explicit* ``backend="process"``
    still rejects it loudly (:func:`_ensure_picklable_callable`).
    """
    try:
        pickle.dumps(fn)
    except Exception:
        return False
    return True


def default_jobs() -> int:
    """Worker count when ``jobs`` is omitted: the usable CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def shard(count: int, chunks: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` ranges covering ``count`` items.

    At most ``chunks`` ranges, balanced to within one item, in input
    order — so concatenating per-chunk results reproduces the input
    ordering exactly.
    """
    if count <= 0:
        return []
    chunks = max(1, min(chunks, count))
    base, extra = divmod(count, chunks)
    ranges = []
    start = 0
    for index in range(chunks):
        stop = start + base + (1 if index < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


def _ensure_picklable_callable(fn: Callable) -> None:
    """Reject closures/lambdas before the pool turns them into noise."""
    try:
        pickle.dumps(fn)
    except Exception as exc:
        raise ModelError(
            "the process backend requires a picklable evaluation "
            "callable (a module-level function or functools.partial); "
            f"got {fn!r}: {exc}") from exc


# ----------------------------------------------------------------------
# Worker side.  One EvaluationSession per worker process, built lazily
# by the pool initializer and reused across that worker's chunks.
# ----------------------------------------------------------------------
_WORKER_SESSION = None


def _initialize_worker(capacity: int, cache_dir: Optional[str]) -> None:
    """Pool initializer: build this worker's private session."""
    global _WORKER_SESSION
    from .session import EvaluationSession
    _WORKER_SESSION = EvaluationSession(capacity=capacity,
                                        cache_dir=cache_dir)


def _evaluate_chunk(session,
                    payload: Tuple[int, bytes, Callable, str]) -> Tuple:
    """Evaluate one contiguous chunk against ``session``.

    Returns ``("ok", results, stats_delta)`` or
    ``("error", (index, label, message), stats_delta)`` — exceptions
    are reported as data so the parent can raise one well-formed
    :class:`ModelError` instead of unpickling arbitrary tracebacks.
    Shared by the worker entry point and the parent-side serial
    fallback, so a degraded chunk evaluates exactly like a pooled one.
    """
    start, blob, fn, mode = payload
    items = pickle.loads(blob)
    before = session.stats
    results: List[Any] = []
    failure = None
    for offset, item in enumerate(items):
        try:
            if mode == "model":
                results.append(fn(session.model(item)))
            else:
                results.append(fn(session, item))
        except Exception as exc:
            if mode == "model":
                label = "fingerprint " + fingerprint(item)[:12]
            else:
                label = repr(getattr(item, "name", item))
            message = (f"{type(exc).__name__}: {exc}\n"
                       + traceback.format_exc())
            failure = (start + offset, label, message)
            break
    delta = session.stats.delta(before)
    if failure is not None:
        return ("error", failure, delta)
    return ("ok", results, delta)


def _run_chunk(payload: Tuple[int, bytes, Callable, str]) -> Tuple:
    """Worker entry point: evaluate a chunk on the worker session."""
    return _evaluate_chunk(_WORKER_SESSION, payload)


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------
def _dispatch_round(payloads: List[Tuple], pending: List[int],
                    outcomes: Dict[int, Tuple], workers: int,
                    capacity: int, cache_dir: Optional[str]
                    ) -> List[int]:
    """One pool attempt over the pending chunks.

    Completed chunks land in ``outcomes``; the indices of chunks lost
    to worker death (``BrokenExecutor``) are returned for the caller
    to retry.  A worker crash only breaks *this* pool — completed
    futures keep their results.
    """
    lost: List[int] = []
    with ProcessPoolExecutor(
            max_workers=min(workers, len(pending)),
            initializer=_initialize_worker,
            initargs=(capacity, cache_dir)) as pool:
        futures = {}
        for index in pending:
            try:
                futures[index] = pool.submit(_run_chunk,
                                             payloads[index])
            except BrokenExecutor:
                lost.append(index)
        for index, future in futures.items():
            try:
                outcomes[index] = future.result()
            except BrokenExecutor:
                lost.append(index)
    return sorted(lost)


def _pooled_map(items: Sequence, fn: Callable, mode: str,
                jobs: Optional[int], capacity: int,
                cache_dir: Optional[str]
                ) -> Tuple[List, EngineStats]:
    _ensure_picklable_callable(fn)
    workers = jobs if jobs is not None else default_jobs()
    if workers <= 0:
        raise ModelError("jobs must be a positive worker count")
    ranges = shard(len(items), workers)
    payloads = [(start, pickle.dumps(list(items[start:stop])), fn, mode)
                for start, stop in ranges]
    outcomes: Dict[int, Tuple] = {}
    pending = list(range(len(payloads)))
    pool_retries = 0
    for attempt in (0, 1):
        if not pending:
            break
        if attempt:
            pool_retries += len(pending)
        pending = _dispatch_round(payloads, pending, outcomes,
                                  workers, capacity, cache_dir)
    serial_fallbacks = len(pending)
    if pending:
        # Both pool attempts lost these chunks (e.g. a callable that
        # kills every worker, or a host that cannot fork): degrade to
        # in-parent evaluation on one private session mirroring a
        # worker's, so the results stay identical to the pooled run.
        from .session import EvaluationSession
        fallback = EvaluationSession(capacity=capacity,
                                     cache_dir=cache_dir)
        for index in pending:
            outcomes[index] = _evaluate_chunk(fallback, payloads[index])
    merged: Optional[EngineStats] = None
    failure = None
    results: List = []
    for index in range(len(payloads)):
        status, body, delta = outcomes[index]
        merged = delta if merged is None else merge_stats(merged, delta)
        if status == "error":
            if failure is None:
                failure = body
        else:
            results.extend(body)
    if failure is not None:
        index, label, message = failure
        raise ModelError(
            f"worker evaluation failed for device {index} "
            f"({label}): {message}")
    if merged is None:
        merged = EngineStats(capacity=capacity)
    if pool_retries or serial_fallbacks:
        merged = dataclasses.replace(
            merged,
            pool_retries=merged.pool_retries + pool_retries,
            serial_fallbacks=(merged.serial_fallbacks
                              + serial_fallbacks))
    return results, merged


def process_map(devices: Sequence, fn: Callable,
                jobs: Optional[int] = None,
                capacity: int = DEFAULT_CAPACITY,
                cache_dir: Optional[str] = None
                ) -> Tuple[List, EngineStats]:
    """``fn(model)`` over every device, sharded across processes.

    Returns ``(results, merged_worker_stats)``; results are ordered
    exactly like ``devices`` and equal the serial evaluation
    bit-for-bit.  Used by :meth:`EvaluationSession.map`.
    """
    return _pooled_map(devices, fn, "model", jobs, capacity, cache_dir)


def process_map_items(items: Sequence, fn: Callable,
                      jobs: Optional[int] = None,
                      capacity: int = DEFAULT_CAPACITY,
                      cache_dir: Optional[str] = None
                      ) -> Tuple[List, EngineStats]:
    """``fn(session, item)`` over arbitrary picklable items.

    The scheme evaluator uses this shape: items are scheme objects and
    the callable routes its own model builds through the per-worker
    session.
    """
    return _pooled_map(items, fn, "item", jobs, capacity, cache_dir)
