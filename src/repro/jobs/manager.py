"""Job execution: crash-recoverable runners under a polling manager.

:class:`JobRunner` executes one claimed job to a terminal state:

1. **Replay** the write-ahead journal — every durably checkpointed
   chunk of the plan is adopted verbatim, never re-computed
   (``replayed_chunks`` counts them for the resume-parity
   assertions).
2. **Run** the missing chunks in index order through the shared
   :class:`~repro.engine.EvaluationSession`, appending each result to
   the journal (fsync'd) before acknowledging progress in
   ``chunks_done``.
3. **Assemble** the final result from the complete chunk map and
   write it atomically; because planning is deterministic and floats
   round-trip JSON losslessly, a resumed run's result is bit-for-bit
   identical to an uninterrupted one.

Between chunks the runner honours cooperative cancellation (the
``cancel`` marker), manager shutdown (the job reverts to ``pending``
for a successor), and the injected job fault points
(``crash-mid-chunk`` — work done but not journaled;
``crash-after-checkpoint`` — journaled but status not yet updated;
``job-torn-write`` — the journal line itself is cut short).

:class:`JobManager` is the per-worker daemon: a poll loop that claims
runnable jobs (pending submits and dead-owner orphans, which any live
manager adopts at its next poll — the flock arbitrates racing
adopters), runs up to :data:`JOB_SLOTS` concurrently on daemon
threads, and TTL-reaps finished jobs.
"""

from __future__ import annotations

import logging
import os
import threading
from typing import Any, Dict, Optional

from ..engine import EvaluationSession, ensure_session
from ..errors import ReproError, ServiceError
from .spec import plan_job
from .store import DEFAULT_TTL, JobClaim, JobStore

_LOG = logging.getLogger("repro.jobs")

#: Jobs one manager runs at once.
JOB_SLOTS = 2


class JobRunner:
    """Drives one claimed job to completion (or suspension)."""

    def __init__(self, store: JobStore, claim: JobClaim,
                 session: EvaluationSession,
                 worker_id: Optional[int] = None,
                 faults: Any = None,
                 stop_event: Optional[threading.Event] = None):
        self.store = store
        self.claim = claim
        self.job_id = claim.job_id
        self.session = session
        self.worker_id = worker_id
        self.faults = faults
        self.stop_event = stop_event or threading.Event()
        self.replayed_chunks = 0
        self.computed_chunks = 0

    # ------------------------------------------------------------------
    def _maybe_crash(self, point: str) -> None:
        if self.faults is not None and self.faults.job_crash(point):
            from ..service.faults import kill_self
            kill_self()

    def run(self) -> str:
        """Execute to a terminal state; returns the final state."""
        try:
            return self._run()
        except (ServiceError, ReproError, ValueError,
                TypeError) as exc:
            _LOG.warning("job %s failed: %s", self.job_id, exc)
            self.store.write_error(self.job_id, str(exc))
            self.store.write_status(self.job_id, state="failed",
                                    error=str(exc))
            return "failed"
        finally:
            self.claim.release()

    def _run(self) -> str:
        store, job_id = self.store, self.job_id
        state = store.status(job_id).get("state")
        if state in ("done", "failed", "cancelled"):
            return state  # raced a finished run; nothing to do
        spec = store.load_spec(job_id)
        plan = plan_job(spec, self.session)
        journal = store.journal(job_id)
        # A chunk journaled under a plan with more chunks is none of
        # this plan's.
        chunks = {index: result
                  for index, result in journal.replay().items()
                  if 0 <= index < plan.chunk_count}
        self.replayed_chunks = len(chunks)
        store.write_status(
            job_id, state="running", worker=self.worker_id,
            pid=os.getpid(), chunks_total=plan.chunk_count,
            chunks_done=len(chunks))
        for index in range(plan.chunk_count):
            if index in chunks:
                continue  # durably checkpointed: never re-computed
            if store.cancel_requested(job_id):
                store.write_status(job_id, state="cancelled")
                return "cancelled"
            if self.stop_event.is_set():
                # Cooperative shutdown: hand the job back intact.
                store.write_status(job_id, state="pending",
                                   worker=None, pid=None)
                return "pending"
            result = plan.run_chunk(index)
            self._maybe_crash("mid-chunk")
            journal.append_chunk(index, result, faults=self.faults)
            self._maybe_crash("after-checkpoint")
            chunks[index] = result
            self.computed_chunks += 1
            store.write_status(job_id, chunks_done=len(chunks))
        result = plan.assemble(chunks)
        store.write_result(job_id, result)
        store.write_status(job_id, state="done",
                           chunks_done=len(chunks),
                           replayed_chunks=self.replayed_chunks,
                           computed_chunks=self.computed_chunks)
        return "done"


class JobManager:
    """Per-worker daemon claiming and running durable jobs."""

    def __init__(self, root: str,
                 session: Optional[EvaluationSession] = None,
                 worker_id: Optional[int] = None,
                 faults: Any = None,
                 poll_interval: float = 0.25,
                 ttl: float = DEFAULT_TTL):
        self.store = JobStore(root)
        self.session = ensure_session(session)
        self.worker_id = worker_id
        self.faults = faults
        self.poll_interval = poll_interval
        self.ttl = ttl
        self._stop = threading.Event()
        self._kick = threading.Event()
        self._lock = threading.Lock()
        self._running: Dict[str, threading.Thread] = {}
        self._thread: Optional[threading.Thread] = None
        self._gc_at = 0.0
        self.jobs_started = 0
        self.jobs_resumed = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._poll_loop, name="repro-jobs", daemon=True)
        self._thread.start()

    def stop(self, timeout: float = 10.0) -> None:
        """Signal runners, wait for in-flight chunks to land."""
        self._stop.set()
        self._kick.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            self._thread = None
        with self._lock:
            workers = list(self._running.values())
        for worker in workers:
            worker.join(timeout=timeout)

    # -- service-facing operations -------------------------------------
    def submit(self, payload: Any) -> Dict[str, Any]:
        status, created = self.store.submit(payload)
        status = dict(status)
        status["created"] = created
        self._kick.set()
        return status

    def status(self, job_id: str) -> Dict[str, Any]:
        return self.store.status(job_id)

    def result(self, job_id: str) -> Optional[Any]:
        return self.store.result(job_id)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self.store.request_cancel(job_id)

    def list_jobs(self) -> Any:
        return self.store.list_jobs()

    def counters(self) -> Dict[str, int]:
        """Manager counters for ``GET /stats``."""
        with self._lock:
            active = len(self._running)
        return {"jobs_started": self.jobs_started,
                "jobs_resumed": self.jobs_resumed,
                "jobs_active": active}

    # -- the poll loop -------------------------------------------------
    def _poll_loop(self) -> None:
        while not self._stop.is_set():
            try:
                self._tick()
            except Exception:  # pragma: no cover - defensive
                _LOG.exception("job manager tick failed")
            self._kick.wait(self.poll_interval)
            self._kick.clear()

    def _tick(self) -> None:
        self._reap_finished()
        now = self.store.clock()
        if now - self._gc_at > max(1.0, self.ttl / 4):
            self._gc_at = now
            self.store.gc(self.ttl)
        with self._lock:
            slots = JOB_SLOTS - len(self._running)
            running = set(self._running)
        if slots <= 0:
            return
        for job_id in self.store.runnable_jobs():
            if slots <= 0:
                break
            if job_id in running:
                continue
            claim = self.store.claim(job_id)
            if claim is None:
                continue  # another worker won the flock race
            status = self.store.status(job_id)
            if status.get("state") not in ("pending", "running"):
                claim.release()
                continue
            self._launch(claim, status)
            slots -= 1

    def _reap_finished(self) -> None:
        with self._lock:
            finished = [job_id for job_id, thread
                        in self._running.items()
                        if not thread.is_alive()]
            for job_id in finished:
                del self._running[job_id]

    def _launch(self, claim: JobClaim,
                status: Dict[str, Any]) -> None:
        job_id = claim.job_id
        runner = JobRunner(self.store, claim, self.session,
                           worker_id=self.worker_id,
                           faults=self.faults,
                           stop_event=self._stop)
        if status.get("state") == "running":
            self.jobs_resumed += 1
        self.jobs_started += 1
        thread = threading.Thread(
            target=runner.run, name=f"repro-job-{job_id}",
            daemon=True)
        with self._lock:
            self._running[job_id] = thread
        thread.start()

    # -- synchronous execution (tests, CLI) ----------------------------
    def run_pending(self) -> int:
        """Claim and run runnable jobs on the calling thread.

        Deterministic driver for tests and one-shot tools: no poll
        loop, no threads.  Returns the number of jobs executed.
        """
        executed = 0
        for job_id in self.store.runnable_jobs():
            claim = self.store.claim(job_id)
            if claim is None:
                continue
            runner = JobRunner(self.store, claim, self.session,
                               worker_id=self.worker_id,
                               faults=self.faults)
            if self.store.status(job_id).get("state") == "running":
                self.jobs_resumed += 1
            self.jobs_started += 1
            runner.run()
            executed += 1
        return executed
