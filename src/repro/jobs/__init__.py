"""Durable, crash-recoverable asynchronous jobs.

The job layer turns the service's ephemeral request/response model
into fleet-scale campaigns that survive worker SIGKILLs and full
restarts: specs (:mod:`repro.jobs.spec`) plan into deterministic
chunks, a write-ahead journal (:mod:`repro.jobs.journal`) checkpoints
every finished chunk with an fsync'd append, the store
(:mod:`repro.jobs.store`) arbitrates ownership with flock and
idempotency keys, and per-worker managers (:mod:`repro.jobs.manager`)
claim, run, resume, and TTL-reap jobs; assembly in chunk order makes
a resumed result byte-identical to an uninterrupted one.  See
``docs/JOBS.md``.
"""

from .journal import JobJournal
from .manager import JobManager, JobRunner
from .spec import (DEFAULT_CHUNK_SIZE, JOB_KINDS, JobPlan, JobSpec,
                   parse_job_spec, plan_job)
from .store import DEFAULT_TTL, JobClaim, JobStore

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_TTL",
    "JOB_KINDS",
    "JobClaim",
    "JobJournal",
    "JobManager",
    "JobPlan",
    "JobRunner",
    "JobSpec",
    "JobStore",
    "parse_job_spec",
    "plan_job",
]
