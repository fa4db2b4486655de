"""Durable on-disk job store: submit, claim, observe, reap.

One directory per job under the store root::

    <root>/<job_id>/
        spec.json      the immutable JobSpec (written once at submit)
        status.json    current state, progress, ownership (atomic)
        journal.ndjson write-ahead chunk journal (JobJournal)
        snapshot.json  chunk snapshot an older release compacted (read)
        result.json    final assembled result (terminal, atomic)
        error.json     terminal failure details
        cancel         cooperative-cancel marker (empty file)
        lock           flock'd while a runner owns the job

Ownership uses ``fcntl.flock`` on ``lock``: the kernel releases the
lock the instant the owning process dies — including ``SIGKILL`` —
so orphan takeover is race-free (two would-be adopters both try a
non-blocking exclusive flock; exactly one wins).  Platforms without
``fcntl`` fall back to best-effort pid files, which is fine for the
single-worker development case they serve.

Idempotency: a submit carrying ``idempotency_key`` derives its job id
from the key's SHA-256, so a retried submit lands on the same
directory and returns the existing job instead of double-running it;
a *different* spec under the same key is a 409 conflict.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

from ..errors import JobNotFound, ServiceError
from .journal import (JobJournal, read_json, write_json_atomic,
                      write_text_atomic)
from .spec import JobSpec, parse_job_spec

#: Job states; the last three are terminal.
STATES = ("pending", "running", "done", "failed", "cancelled")
TERMINAL_STATES = ("done", "failed", "cancelled")

#: The keys status.json holds, and the only ones a status write keeps,
#: so a key an older release wrote drops out at the next write.
#: ``cancel_requested`` is derived from the ``cancel`` marker at read.
STATUS_KEYS = ("job", "state", "kind", "created_unix", "updated_unix",
               "chunks_total", "chunks_done", "worker", "pid",
               "idempotency_key", "error", "replayed_chunks",
               "computed_chunks")

#: Default seconds a finished job survives before GC.
DEFAULT_TTL = 3600.0


def _job_id_for_key(key: str) -> str:
    digest = hashlib.sha256(
        ("key:" + key).encode("utf-8")).hexdigest()
    return "j" + digest[:16]


def _random_job_id() -> str:
    return "j" + uuid.uuid4().hex[:16]


class JobClaim:
    """Exclusive ownership of one job while a runner executes it."""

    def __init__(self, store: "JobStore", job_id: str, handle: Any):
        self.store = store
        self.job_id = job_id
        self._handle = handle

    def release(self) -> None:
        if self._handle is None:
            return
        handle, self._handle = self._handle, None
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()
        except OSError:  # pragma: no cover - double close
            pass
        if fcntl is None:  # pragma: no cover - pid-file fallback
            try:
                (self.store.job_dir(self.job_id) / "lock.pid").unlink()
            except OSError:
                pass


class JobStore:
    """File-backed durable store shared by every worker of a fleet."""

    def __init__(self, root: "str | Path",
                 clock: Any = time.time):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.clock = clock

    # -- layout --------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def journal(self, job_id: str) -> JobJournal:
        return JobJournal(self.job_dir(job_id))

    def exists(self, job_id: str) -> bool:
        return (self.job_dir(job_id) / "spec.json").is_file()

    def _require(self, job_id: str) -> Path:
        directory = self.job_dir(job_id)
        if not (directory / "spec.json").is_file():
            raise JobNotFound(f"unknown job {job_id!r}")
        return directory

    # -- submit --------------------------------------------------------
    def submit(self, payload: Any) -> Tuple[Dict[str, Any], bool]:
        """Create (or find) a job; returns ``(status, created)``.

        ``payload`` is the ``POST /jobs`` body: ``kind``, ``params``,
        ``chunk_size``, optional ``idempotency_key``.  A repeat
        submit under the same key returns the existing job's status
        with ``created=False``; the same key with a different spec
        is a 409 conflict.
        """
        spec = parse_job_spec(payload)
        key = payload.get("idempotency_key")
        if key is not None and not isinstance(key, str):
            raise ServiceError("'idempotency_key' must be a string")
        try:
            # Encoded before the directory exists: a spec too deeply
            # nested to encode leaves nothing behind.
            canonical = spec.canonical()
        except RecursionError as exc:
            raise ServiceError(f"job spec nested too deeply: {exc}"
                               ) from exc
        job_id = (_job_id_for_key(key) if key is not None
                  else _random_job_id())
        directory = self.job_dir(job_id)
        try:
            directory.mkdir(parents=False, exist_ok=False)
        except FileExistsError:
            return self._existing(job_id, canonical, key), False
        write_text_atomic(directory / "spec.json", canonical)
        now = self.clock()
        status = {"job": job_id, "state": "pending",
                  "kind": spec.kind, "created_unix": now,
                  "updated_unix": now, "chunks_total": None,
                  "chunks_done": 0, "worker": None, "pid": None,
                  "idempotency_key": key}
        write_json_atomic(directory / "status.json", status)
        return status, True

    def _existing(self, job_id: str, canonical: str,
                  key: Optional[str]) -> Dict[str, Any]:
        """Resolve an idempotent re-submit against the existing job."""
        existing = None
        for _ in range(50):  # racing creator may still be writing
            existing = read_json(self.job_dir(job_id) / "spec.json")
            if existing is not None:
                break
            time.sleep(0.01)
        if existing is None:
            raise ServiceError(
                f"job {job_id!r} exists but its spec is unreadable",
                status=409)
        if json.dumps(existing, sort_keys=True) != canonical:
            raise ServiceError(
                f"idempotency key {key!r} already used by a "
                "different spec", status=409)
        return self.status(job_id)

    # -- observation ---------------------------------------------------
    def load_spec(self, job_id: str) -> JobSpec:
        raw = read_json(self._require(job_id) / "spec.json")
        if not isinstance(raw, dict):
            raise JobNotFound(f"job {job_id!r} spec unreadable")
        return JobSpec(kind=raw["kind"], params=raw["params"],
                       chunk_size=int(raw["chunk_size"]))

    def status(self, job_id: str) -> Dict[str, Any]:
        directory = self._require(job_id)
        raw = None
        for _ in range(3):  # tolerate a concurrent atomic rewrite
            raw = read_json(directory / "status.json")
            if isinstance(raw, dict):
                break
            time.sleep(0.005)
        if not isinstance(raw, dict):
            raw = {"job": job_id, "state": "pending",
                   "chunks_done": 0, "chunks_total": None}
        # Derived live, not stored: the marker file is the truth and
        # status.json writers must not race over it.
        raw["cancel_requested"] = (directory / "cancel").exists()
        return raw

    def result(self, job_id: str) -> Optional[Any]:
        """The final result, or ``None`` while the job is running."""
        self._require(job_id)
        raw = read_json(self.job_dir(job_id) / "result.json")
        if isinstance(raw, dict):
            return raw.get("result")
        return None

    def list_jobs(self) -> List[Dict[str, Any]]:
        statuses = []
        for directory in sorted(self.root.iterdir()):
            if (directory / "spec.json").is_file():
                try:
                    statuses.append(self.status(directory.name))
                except JobNotFound:  # pragma: no cover - raced GC
                    continue
        return statuses

    # -- mutation ------------------------------------------------------
    def write_status(self, job_id: str, **fields: Any) -> Dict[str, Any]:
        """Merge ``fields`` into status.json atomically, keeping only
        :data:`STATUS_KEYS`."""
        merged = self.status(job_id)
        merged.update(fields, updated_unix=self.clock())
        status = {key: merged[key] for key in STATUS_KEYS
                  if key in merged}
        write_json_atomic(self.job_dir(job_id) / "status.json",
                          status)
        return status

    def write_result(self, job_id: str, result: Any) -> None:
        write_json_atomic(self.job_dir(job_id) / "result.json",
                          {"job": job_id, "result": result})

    def write_error(self, job_id: str, message: str) -> None:
        write_json_atomic(self.job_dir(job_id) / "error.json",
                          {"job": job_id, "error": message})

    # -- cancellation --------------------------------------------------
    def cancel_requested(self, job_id: str) -> bool:
        return (self.job_dir(job_id) / "cancel").exists()

    def request_cancel(self, job_id: str) -> Dict[str, Any]:
        """Mark the job for cooperative cancellation.

        A pending (unclaimed) job is finalised immediately; a running
        one keeps its marker and the owning runner cancels at the
        next chunk boundary.  Terminal jobs are left untouched.
        """
        directory = self._require(job_id)
        status = self.status(job_id)
        if status.get("state") in TERMINAL_STATES:
            return status
        (directory / "cancel").touch()
        claim = self.claim(job_id)
        if claim is not None:
            try:
                status = self.status(job_id)
                if status.get("state") not in TERMINAL_STATES:
                    status = self.write_status(
                        job_id, state="cancelled")
            finally:
                claim.release()
        return self.status(job_id)

    # -- ownership -----------------------------------------------------
    def claim(self, job_id: str) -> Optional[JobClaim]:
        """Try to take exclusive ownership; ``None`` if held."""
        directory = self._require(job_id)
        if fcntl is not None:
            handle = open(directory / "lock", "a+")
            try:
                fcntl.flock(handle.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                handle.close()
                return None
            return JobClaim(self, job_id, handle)
        return self._claim_pidfile(directory, job_id)

    def _claim_pidfile(self, directory: Path, job_id: str
                       ) -> Optional[JobClaim]:  # pragma: no cover
        """Best-effort O_EXCL pid-file claim (no-fcntl platforms)."""
        from ..service.routing import pid_alive
        path = directory / "lock.pid"
        for _ in range(2):
            try:
                handle = os.open(path,
                                 os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                raw = read_json(path)
                if isinstance(raw, int) and pid_alive(raw):
                    return None
                try:
                    path.unlink()
                except OSError:
                    return None
                continue
            with os.fdopen(handle, "w") as stream:
                stream.write(str(os.getpid()))
            return JobClaim(self, job_id, object())
        return None

    def runnable_jobs(self) -> List[str]:
        """Job ids a manager should try to claim, oldest first.

        Pending jobs plus *orphans*: jobs whose status says running
        but whose recorded owner pid is dead.  Every manager sees the
        same list; the flock of :meth:`claim` lets exactly one adopt
        each job.
        """
        from ..service.routing import pid_alive
        runnable: List[Tuple[float, str]] = []
        for status in self.list_jobs():
            state = status.get("state")
            job_id = status.get("job")
            if not job_id:
                continue
            if state == "running":
                pid = status.get("pid")
                if isinstance(pid, int) and pid_alive(pid):
                    continue  # healthy owner
            elif state != "pending":
                continue
            runnable.append((float(status.get("created_unix") or 0.0),
                             job_id))
        return [job_id for _, job_id in sorted(runnable)]

    # -- garbage collection --------------------------------------------
    def gc(self, ttl: float = DEFAULT_TTL) -> int:
        """Delete terminal jobs idle for more than ``ttl`` seconds."""
        now = self.clock()
        removed = 0
        for status in self.list_jobs():
            if status.get("state") not in TERMINAL_STATES:
                continue
            updated = float(status.get("updated_unix") or 0.0)
            if now - updated < ttl:
                continue
            shutil.rmtree(self.job_dir(status["job"]),
                          ignore_errors=True)
            removed += 1
        return removed
