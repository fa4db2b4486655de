"""Warm evaluation service: a long-lived daemon over one session.

A cold CLI invocation pays interpreter start-up plus a cold model
build for every query; calibration-style workloads (repeated small
queries against a measurement stream) ask the same model thousands of
times.  This package turns the warm :class:`~repro.engine.session.
EvaluationSession` cache into *cross-request* reuse: one process holds
one session for its lifetime behind a small JSON-over-HTTP API, so the
second identical request is answered from memory with no build at all.

Stdlib only (``http.server.ThreadingHTTPServer``); endpoints:

* ``POST /evaluate`` — pattern power and per-operation energies of
  one device description or a batch;
* ``POST /sweep`` — a named sweep (``sensitivity`` / ``corners`` /
  ``trends`` / ``schemes``) with parameters, executed on the adaptive
  ``auto`` backend by default;
* ``GET /stats``  — engine counters, uptime and per-endpoint request
  counts;
* ``GET /healthz`` — liveness probe.

``repro serve`` starts the daemon from the CLI; SIGTERM/SIGINT drain
in-flight requests before the process exits.  The matching client
lives in :mod:`repro.client`; request/response shapes are documented
in ``docs/SERVICE.md``.

Resilience: POST endpoints pass admission control (bounded in-flight
slots + small wait queue, shedding with ``429``/``503`` and
``Retry-After`` — :mod:`repro.service.admission`), every request gets
a deadline (``504`` on a blown budget), ``/evaluate`` responses are
memoized in a small LRU, and :mod:`repro.service.faults` can inject
latency, errors, connection resets and worker kills so all of it is
testable deterministically.

Scale-out: ``repro serve --workers N`` forks N such servers accepting
on one shared port under a respawning supervisor
(:mod:`repro.service.prefork`), each with its own model cache; every
worker serves every request it accepts.  ``"stream": true`` turns
batch replies into chunked NDJSON (:mod:`repro.service.streaming`),
API keys guard the perimeter (:mod:`repro.service.auth`), and
``GET /stats?scope=cluster`` merges the whole fleet's counters
through the worker registry (:mod:`repro.service.routing`).

Durability: with ``--jobs-dir`` the service also fronts the
crash-recoverable job layer (:mod:`repro.jobs`) — ``POST /jobs``
submits journaled, chunk-checkpointed campaigns, ``GET /jobs/<id>``
reports chunk progress, ``DELETE /jobs/<id>`` cancels cooperatively,
and in a fleet any live worker adopts the running jobs of a killed
one.
"""

from .admission import (AdmissionController, AdmissionShed, Deadline,
                        DeadlineExceeded, ServiceLimits)
from .auth import API_KEY_HEADER, ApiKeyAuth, parse_keys
from .faults import FaultInjector, FaultRule, InjectedFault
from .jsonapi import (ResultCache, device_from_payload,
                      evaluate_payload, stats_payload, sweep_payload)
from .prefork import PreforkSupervisor, serve_prefork
from .routing import WORKER_HEADER, WorkerRegistry
from .server import EvaluationService, ServiceCounters, create_service
from .streaming import evaluate_stream, sweep_stream, wants_stream

__all__ = [
    "API_KEY_HEADER",
    "WORKER_HEADER",
    "AdmissionController",
    "AdmissionShed",
    "ApiKeyAuth",
    "Deadline",
    "DeadlineExceeded",
    "EvaluationService",
    "FaultInjector",
    "FaultRule",
    "InjectedFault",
    "PreforkSupervisor",
    "ResultCache",
    "ServiceCounters",
    "ServiceLimits",
    "WorkerRegistry",
    "create_service",
    "device_from_payload",
    "evaluate_payload",
    "evaluate_stream",
    "parse_keys",
    "serve_prefork",
    "stats_payload",
    "sweep_payload",
    "sweep_stream",
    "wants_stream",
]
