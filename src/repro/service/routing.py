"""The live-worker registry of a pre-fork fleet and its ``/stats`` merge.

The pre-fork tier (:mod:`repro.service.prefork`) runs N worker
processes accepting on one shared port.  Each worker also listens on
a private *direct* port and publishes a small JSON *registry entry*
(pid, shared port, direct port) into the supervisor's run directory;
:class:`WorkerRegistry` reads the live set back from the directory
with a pid-liveness check.  ``GET /stats?scope=cluster`` fetches
every sibling's local ``/stats`` over its direct port and merges them
with the helpers at the bottom of this module.

All reads tolerate torn or stale files: a corrupt entry is skipped and
a dead worker drops out of the live set.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List

#: Response header naming the worker that produced the reply.
WORKER_HEADER = "X-Repro-Worker"


def pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process we could signal."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - foreign but alive
        return True
    except OSError:  # pragma: no cover - platform oddities
        return False
    return True


class WorkerRegistry:
    """File-backed directory of the live workers of one service.

    One ``worker-<id>.json`` per worker, written atomically by the
    worker itself at boot (and rewritten on respawn).  Readers get a
    dict of live entries, read from the directory on every call.
    """

    def __init__(self, directory: str):
        self.directory = Path(directory)

    #: Age (seconds) past which an unattributable staging file is
    #: assumed crash-leaked and collected.
    STALE_STAGING_SECONDS = 60.0

    def _path(self, worker_id: int) -> Path:
        return self.directory / f"worker-{worker_id}.json"

    def write(self, worker_id: int, entry: Dict[str, Any]) -> None:
        """Atomically publish ``entry`` for ``worker_id``."""
        self.directory.mkdir(parents=True, exist_ok=True)
        staging = self._path(worker_id).with_suffix(
            f".tmp{os.getpid()}")
        staging.write_text(json.dumps(entry, sort_keys=True))
        staging.replace(self._path(worker_id))

    def remove(self, worker_id: int) -> None:
        """Drop ``worker_id``'s entry (idempotent)."""
        try:
            self._path(worker_id).unlink()
        except OSError:
            pass

    def entries(self) -> Dict[int, Dict[str, Any]]:
        """Live entries by worker id (dead pids filtered out)."""
        fresh: Dict[int, Dict[str, Any]] = {}
        self._gc_stale_staging()
        try:
            paths = sorted(self.directory.glob("worker-*.json"))
        except OSError:
            paths = []
        for path in paths:
            try:
                entry = json.loads(path.read_text())
                worker_id = int(entry["worker"])
                pid = int(entry["pid"])
            except (OSError, ValueError, KeyError, TypeError):
                continue  # torn write or foreign file: skip
            if pid_alive(pid):
                fresh[worker_id] = entry
        return fresh

    def _gc_stale_staging(self) -> None:
        """Collect crash-leaked ``worker-*.tmp<pid>`` staging files.

        :meth:`write` publishes entries via ``.tmp<pid>`` + rename; a
        worker killed between the two leaks the staging file forever.
        The writer's pid is in the suffix, so a dead pid identifies a
        leak exactly; files without a parseable pid fall back to an
        age check (a live writer renames within milliseconds).
        """
        try:
            leaks = list(self.directory.glob("worker-*.tmp*"))
        except OSError:  # pragma: no cover - directory racing away
            return
        now = time.time()
        for path in leaks:
            suffix = path.suffix  # ".tmp<pid>"
            try:
                writer = int(suffix[4:])
            except ValueError:
                writer = None
            if writer is not None:
                stale = not pid_alive(writer)
            else:
                try:
                    age = now - path.stat().st_mtime
                except OSError:
                    continue  # already gone
                stale = age > self.STALE_STAGING_SECONDS
            if stale:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - raced unlink
                    pass


# ----------------------------------------------------------------------
# Cluster-wide /stats aggregation helpers.
# ----------------------------------------------------------------------
def sum_counter_dicts(payloads: Iterable[Dict[str, Any]],
                      keys: Iterable[str]) -> Dict[str, Any]:
    """Key-wise integer sums over ``payloads`` (missing keys are 0)."""
    totals = {key: 0 for key in keys}
    for payload in payloads:
        for key in totals:
            value = payload.get(key, 0)
            if isinstance(value, (int, float)):
                totals[key] += value
    return totals


def merge_request_counts(payloads: Iterable[Dict[str, int]]
                         ) -> Dict[str, int]:
    """Per-path request-count sums across worker payloads."""
    merged: Dict[str, int] = {}
    for counts in payloads:
        for path, value in counts.items():
            merged[path] = merged.get(path, 0) + int(value)
    return merged


#: Admission counters that sum meaningfully across workers.
ADMISSION_SUM_KEYS = ("capacity", "queue_limit", "in_flight", "queued",
                      "admitted", "shed_busy", "shed_timeout",
                      "shed_draining", "shed_total")

#: Result-cache counters that sum meaningfully across workers.
RESULT_CACHE_SUM_KEYS = ("hits", "misses", "size", "capacity")


def merge_admission(payloads: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Cluster view of the admission counters: sums plus drain flag."""
    merged = sum_counter_dicts(payloads, ADMISSION_SUM_KEYS)
    merged["draining"] = any(payload.get("draining")
                             for payload in payloads)
    return merged
