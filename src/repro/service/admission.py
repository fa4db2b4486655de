"""Admission control and per-request deadlines for the service.

The :class:`~repro.service.server.EvaluationService` used to accept
unbounded concurrent work: every connection got a thread and every
thread ran a potentially long sweep.  Under sustained load that piles
up threads until the process thrashes — the opposite of the graceful
degradation a measurement harness needs.  This module provides the two
primitives the server composes instead:

* :class:`AdmissionController` — a bounded in-flight slot count plus a
  small wait queue.  A request either takes a slot immediately, waits
  briefly in the queue for one, or is *shed* with an
  :class:`AdmissionShed` carrying the HTTP status to reply with
  (``429`` when the queue is full, ``503`` when the queue wait timed
  out or the server is draining).  Shed replies carry a
  ``Retry-After`` hint so well-behaved clients back off instead of
  hammering.
* :class:`Deadline` — a monotonic per-request budget.  The handler
  wraps the shared session in a :class:`DeadlineSession`, which checks
  the budget before every model construction, so a long sweep aborts
  cleanly between builds (``504``) and never leaves the shared cache
  in an inconsistent state: each model is either fully built and
  cached, or not built at all.

Both are pure ``threading`` constructs with injectable clocks, so the
behaviour is unit-testable without sockets or sleeps.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from ..engine.session import EvaluationSession
from ..errors import ServiceError


@dataclass(frozen=True)
class ServiceLimits:
    """Operating limits of one :class:`EvaluationService` instance."""

    max_inflight: int = 8
    """Concurrent requests allowed to evaluate at once."""
    max_queue: int = 16
    """Requests allowed to wait for an in-flight slot; beyond this
    the server sheds with ``429``."""
    queue_timeout: float = 5.0
    """Longest a queued request waits for a slot before ``503``."""
    request_timeout: float = 30.0
    """Default per-request budget in seconds (``0`` disables); the
    ``X-Request-Timeout`` header overrides it per request."""
    retry_after: float = 1.0
    """``Retry-After`` hint (seconds) attached to shed replies."""
    result_cache: int = 256
    """Whole-response LRU entries for ``/evaluate`` (``0`` disables)."""


class DeadlineExceeded(ServiceError):
    """A request ran past its budget; mapped to HTTP 504."""

    def __init__(self, message: str):
        super().__init__(message, status=504)


class AdmissionShed(ServiceError):
    """A request was refused admission; carries the shed status."""


class Deadline:
    """A monotonic expiry timestamp with a checked remaining budget."""

    def __init__(self, budget_seconds: float,
                 clock: Callable[[], float] = time.monotonic):
        self.budget = budget_seconds
        self._clock = clock
        self.expires = clock() + budget_seconds

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires - self._clock()

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise :class:`DeadlineExceeded` once the budget is spent."""
        if self.expired:
            raise DeadlineExceeded(
                f"request exceeded its {self.budget:.3g}s budget")


class DeadlineSession(EvaluationSession):
    """A deadline-checking view of a shared session.

    Shares the underlying cache with ``inner`` (nothing is copied) but
    checks the request deadline before every model construction and at
    every ``map`` entry, so sweeps abort between builds — the cache
    only ever holds fully built models, keeping the shared session
    consistent after a 504.
    """

    def __init__(self, inner: EvaluationSession, deadline: Deadline):
        # Deliberately no super().__init__: the whole point is to
        # share (not duplicate) the inner session's cache.
        self.cache = inner.cache
        self.deadline = deadline

    def model(self, device, events=None):
        self.deadline.check()
        return super().model(device, events)

    def map(self, devices, fn, backend=None):
        self.deadline.check()
        return super().map(devices, fn, backend=backend)


class AdmissionController:
    """Bounded in-flight slots plus a small FIFO-ish wait queue.

    ``acquire`` admits, queues, or sheds; ``release`` frees a slot and
    wakes one waiter; ``begin_drain`` (shutdown) rejects everything
    still queued and everything arriving later, while already-admitted
    requests run to completion — the graceful-drain contract.
    """

    def __init__(self, capacity: int = 8, queue_limit: int = 16,
                 queue_timeout: float = 5.0,
                 clock: Callable[[], float] = time.monotonic):
        if capacity < 1:
            raise ValueError("admission capacity must be >= 1")
        if queue_limit < 0:
            raise ValueError("queue limit must be >= 0")
        self.capacity = capacity
        self.queue_limit = queue_limit
        self.queue_timeout = queue_timeout
        self._clock = clock
        self._cond = threading.Condition()
        self._in_flight = 0
        self._queued = 0
        self._draining = False
        self.admitted = 0
        self.shed_busy = 0
        self.shed_timeout = 0
        self.shed_draining = 0
        self.max_in_flight = 0
        self.max_queued = 0

    # ------------------------------------------------------------------
    def _admit_locked(self) -> None:
        self._in_flight += 1
        self.admitted += 1
        self.max_in_flight = max(self.max_in_flight, self._in_flight)

    def acquire(self, deadline: Optional[Deadline] = None) -> None:
        """Take an in-flight slot, waiting in the queue if needed.

        Raises :class:`AdmissionShed` (429 queue-full, 503 timeout or
        draining) or :class:`DeadlineExceeded` when the request's own
        budget runs out while queued.
        """
        with self._cond:
            if self._draining:
                self.shed_draining += 1
                raise AdmissionShed("service is draining", status=503)
            if self._in_flight < self.capacity:
                self._admit_locked()
                return
            if self._queued >= self.queue_limit:
                self.shed_busy += 1
                raise AdmissionShed(
                    f"server busy: {self._in_flight} in flight and "
                    f"{self._queued} queued (limits "
                    f"{self.capacity}/{self.queue_limit})", status=429)
            self._queued += 1
            self.max_queued = max(self.max_queued, self._queued)
            expires = self._clock() + self.queue_timeout
            if deadline is not None:
                expires = min(expires, deadline.expires)
            try:
                while True:
                    if self._draining:
                        self.shed_draining += 1
                        raise AdmissionShed("service is draining",
                                            status=503)
                    if self._in_flight < self.capacity:
                        self._admit_locked()
                        return
                    remaining = expires - self._clock()
                    if remaining <= 0:
                        if deadline is not None and deadline.expired:
                            deadline.check()
                        self.shed_timeout += 1
                        raise AdmissionShed(
                            f"no capacity within "
                            f"{self.queue_timeout:.3g}s queue wait",
                            status=503)
                    self._cond.wait(remaining)
            finally:
                self._queued -= 1

    def release(self) -> None:
        """Free one in-flight slot and wake one queued waiter."""
        with self._cond:
            self._in_flight -= 1
            self._cond.notify()

    def begin_drain(self) -> None:
        """Reject queued and future work; let admitted work finish."""
        with self._cond:
            self._draining = True
            self._cond.notify_all()

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """One consistent counter snapshot for ``GET /stats``."""
        with self._cond:
            return {
                "capacity": self.capacity,
                "queue_limit": self.queue_limit,
                "in_flight": self._in_flight,
                "queued": self._queued,
                "admitted": self.admitted,
                "shed_busy": self.shed_busy,
                "shed_timeout": self.shed_timeout,
                "shed_draining": self.shed_draining,
                "shed_total": (self.shed_busy + self.shed_timeout
                               + self.shed_draining),
                "max_in_flight": self.max_in_flight,
                "max_queued": self.max_queued,
                "draining": self._draining,
            }
