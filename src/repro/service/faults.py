"""Deterministic fault injection for resilience testing.

Every behaviour the resilience layer promises — load shedding under
latency, 504s on slow handlers, client recovery from connection
resets, journaled jobs surviving a killed worker — is *tested*, not
asserted.  This module is the switchboard those tests (and the CI
resilience smoke) flip:

* :class:`FaultInjector` — installed on an
  :class:`~repro.service.server.EvaluationService` (tests assign
  ``service.faults``; subprocesses configure it through the
  ``REPRO_FAULTS`` environment variable, a JSON list of rules).  The
  handler consults it once per request, after admission, so injected
  latency occupies a real in-flight slot:

  - ``latency`` rules sleep for ``seconds`` while holding the slot;
  - ``error`` rules raise :class:`InjectedFault` (replied as the
    rule's ``status``);
  - ``reset`` rules make the handler abort the connection without a
    response, which clients observe as a connection reset.

  Each rule matches a request path (``"*"`` for any) and fires at
  most ``times`` times (``-1`` = unlimited), so "the first three
  requests are slow, then the service heals" is expressible and
  deterministic.  An in-process ``hook`` callable (not expressible in
  the environment) lets tests block handlers on an event for exact
  concurrency control.

* :func:`kill_self` — the ``SIGKILL`` primitive behind the job crash
  rules (``job-crash``/``job-torn-write``).
"""

from __future__ import annotations

import json
import logging
import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..errors import ServiceError

_LOG = logging.getLogger("repro.service.faults")

#: Environment variable holding a JSON list of fault rules.
FAULTS_ENV = "REPRO_FAULTS"

#: Recognised request-level rule kinds.
KINDS = ("latency", "error", "reset")

#: Job-level rule kinds consulted by :mod:`repro.jobs` runners, not
#: by the request handler.  ``job-crash`` SIGKILLs the worker at a
#: named fault ``point`` (``mid-chunk`` — work computed but not yet
#: journaled; ``after-checkpoint`` — journaled but status not yet
#: updated); ``job-torn-write`` makes the journal append cut its
#: line in half before the kill, leaving the torn tail replay must
#: tolerate.
JOB_KINDS = ("job-crash", "job-torn-write")


class InjectedFault(ServiceError):
    """A deliberately injected handler failure (``error`` rules)."""


@dataclass
class FaultRule:
    """One injection rule; ``times`` counts down as it fires."""

    kind: str
    path: str = "*"
    times: int = -1
    seconds: float = 0.0
    status: int = 500
    point: str = "*"

    def matches(self, path: str) -> bool:
        if self.times == 0:
            return False
        return self.path in ("*", path)

    def matches_point(self, point: str) -> bool:
        if self.times == 0:
            return False
        return self.point in ("*", point)

    def consume(self) -> None:
        if self.times > 0:
            self.times -= 1

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "FaultRule":
        kind = spec.get("kind")
        if kind not in KINDS + JOB_KINDS:
            raise ValueError(f"unknown fault kind {kind!r}; choose "
                             "from " + "/".join(KINDS + JOB_KINDS))
        return cls(kind=kind,
                   path=str(spec.get("path", "*")),
                   times=int(spec.get("times", -1)),
                   seconds=float(spec.get("seconds", 0.0)),
                   status=int(spec.get("status", 500)),
                   point=str(spec.get("point", "*")))


@dataclass
class FaultInjector:
    """Thread-safe rule store consulted once per handled request."""

    rules: List[FaultRule] = field(default_factory=list)
    hook: Optional[Callable[[str], None]] = None
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self.fired: Dict[str, int] = {
            kind: 0 for kind in KINDS + JOB_KINDS}

    @property
    def active(self) -> bool:
        return bool(self.rules) or self.hook is not None

    @classmethod
    def from_env(cls, env: Optional[Mapping[str, str]] = None
                 ) -> "FaultInjector":
        """Rules from ``REPRO_FAULTS`` (JSON list); inert if unset.

        A malformed specification logs a warning and injects nothing —
        a typo in a test environment must not take the service down.
        """
        source = (env if env is not None else os.environ).get(
            FAULTS_ENV, "")
        if not source.strip():
            return cls()
        try:
            specs = json.loads(source)
            if not isinstance(specs, list):
                raise ValueError("expected a JSON list of rules")
            return cls(rules=[FaultRule.from_dict(spec)
                              for spec in specs])
        except (ValueError, TypeError) as exc:
            _LOG.warning("ignoring malformed %s: %s", FAULTS_ENV, exc)
            return cls()

    # ------------------------------------------------------------------
    def before_request(self, path: str) -> Optional[str]:
        """Apply matching rules to one request.

        Sleeps for latency rules, raises :class:`InjectedFault` for
        error rules, and returns ``"reset"`` when the handler should
        abort the connection without replying.  Rule order is the
        configured order; at most one error/reset fires per request.
        """
        if not self.active:
            return None
        delay = 0.0
        verdict: Optional[FaultRule] = None
        with self._lock:
            for rule in self.rules:
                if rule.kind not in KINDS:
                    continue  # job-level rules: not per-request
                if not rule.matches(path):
                    continue
                if rule.kind == "latency":
                    rule.consume()
                    self.fired["latency"] += 1
                    delay += rule.seconds
                elif verdict is None:
                    rule.consume()
                    self.fired[rule.kind] += 1
                    verdict = rule
        if self.hook is not None:
            self.hook(path)
        if delay > 0.0:
            self.sleep(delay)
        if verdict is None:
            return None
        if verdict.kind == "error":
            raise InjectedFault(
                f"injected fault on {path}", status=verdict.status)
        return "reset"

    # ------------------------------------------------------------------
    def _consume_job_rule(self, kind: str, point: str) -> bool:
        with self._lock:
            for rule in self.rules:
                if rule.kind != kind:
                    continue
                if not rule.matches_point(point):
                    continue
                rule.consume()
                self.fired[kind] += 1
                return True
        return False

    def job_crash(self, point: str) -> bool:
        """Whether a ``job-crash`` rule fires at this fault point.

        The *caller* performs the SIGKILL (via :func:`kill_self`) so
        runners can order the crash precisely against their journal
        writes.  Points: ``mid-chunk``, ``after-checkpoint``.
        """
        if not self.rules:
            return False
        return self._consume_job_rule("job-crash", point)

    def job_torn_write(self) -> bool:
        """Whether the next journal append should be torn short."""
        if not self.rules:
            return False
        return self._consume_job_rule("job-torn-write", "*")

    def snapshot(self) -> Dict[str, int]:
        """Fired-fault counters for ``GET /stats`` and assertions."""
        with self._lock:
            return dict(self.fired)


# ----------------------------------------------------------------------
# The job-crash primitive.
# ----------------------------------------------------------------------
def kill_self() -> None:
    """``SIGKILL`` the current process — the job-crash primitive.

    Used by job runners when a ``job-crash``/``job-torn-write`` rule
    fires: no cleanup, no atexit, no flushing beyond what already
    hit the disk — exactly the failure mode the journal must absorb.
    """
    os.kill(os.getpid(), signal.SIGKILL)
