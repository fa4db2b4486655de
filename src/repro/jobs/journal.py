"""Write-ahead chunk journal of one job directory.

Durability contract:

* ``journal.ndjson`` — append-only NDJSON, one record per completed
  chunk: ``{"chunk": <index>, "result": <json>}``.  Every append is
  flushed and ``fsync``'d before the runner moves on, so a chunk that
  reached the journal survives any crash (the acceptance bar: *no
  journaled chunk is ever re-computed or lost*).
* ``snapshot.json`` — only read, never written: older releases
  periodically folded the journal into this version-1 snapshot and
  truncated the journal, so a job they left mid-run replays the
  snapshot's chunks plus the journal tail.

Replay (:meth:`JobJournal.replay`) is torn-tail tolerant: a crash (or
an injected ``job-torn-write`` fault) can leave a partial final line,
which is ignored — it never made the durability bar.  A torn line
*followed* by valid records cannot occur because appends are
sequential within the owning runner and the file is never edited in
place.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

JOURNAL_NAME = "journal.ndjson"
SNAPSHOT_NAME = "snapshot.json"
SNAPSHOT_VERSION = 1


def fsync_path(path: Path) -> None:
    """``fsync`` a file (or directory) by path; best-effort on dirs."""
    flags = os.O_RDONLY
    if path.is_dir():  # pragma: no branch - trivial
        flags |= getattr(os, "O_DIRECTORY", 0)
    try:
        handle = os.open(path, flags)
    except OSError:  # pragma: no cover - platform without dir-open
        return
    try:
        os.fsync(handle)
    finally:
        os.close(handle)


def write_json_atomic(path: Path, payload: Any) -> None:
    """Write ``payload`` as key-sorted JSON via tmp + fsync + rename."""
    write_text_atomic(path, json.dumps(payload, sort_keys=True))


def write_text_atomic(path: Path, text: str) -> None:
    """Write ``text`` via tmp + fsync + rename.

    A failed write deletes its staging file, so nothing but ``path``
    itself is ever left behind.
    """
    staging = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        with open(staging, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        staging.replace(path)
    except BaseException:
        staging.unlink(missing_ok=True)
        raise
    fsync_path(path.parent)


def read_json(path: Path) -> Optional[Any]:
    """Parse ``path`` as JSON; ``None`` on absence or corruption."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None


class JobJournal:
    """The write-ahead journal of one job directory."""

    def __init__(self, directory: "str | Path"):
        self.directory = Path(directory)
        self.journal_path = self.directory / JOURNAL_NAME
        self.snapshot_path = self.directory / SNAPSHOT_NAME

    def append_chunk(self, index: int, result: Any,
                     faults: Any = None) -> None:
        """Durably append one completed chunk.

        The record only counts as checkpointed once the ``fsync``
        returns.  ``faults`` (a :class:`~repro.service.faults.
        FaultInjector`) may demand a torn write: the line is cut in
        half, synced, and the process SIGKILLs itself — exactly the
        torn tail replay must tolerate.
        """
        line = json.dumps({"chunk": int(index), "result": result},
                          sort_keys=True) + "\n"
        data = line.encode("utf-8")
        torn = faults is not None and faults.job_torn_write()
        if torn:
            data = data[:max(1, len(data) // 2)]
        with open(self.journal_path, "ab") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        if torn:
            from ..service.faults import kill_self
            kill_self()

    def replay(self) -> Dict[int, Any]:
        """All durably checkpointed chunks, keyed by chunk index.

        An older release's snapshot first, then journal records on top
        (identical values when both hold a chunk — that release's
        crash window between snapshot rename and journal truncate).  A
        torn trailing line is skipped; a malformed interior line is
        likewise skipped rather than poisoning the job.
        """
        chunks: Dict[int, Any] = {}
        snapshot = read_json(self.snapshot_path)
        if (isinstance(snapshot, dict)
                and snapshot.get("version") == SNAPSHOT_VERSION
                and isinstance(snapshot.get("chunks"), dict)):
            for key, value in snapshot["chunks"].items():
                try:
                    chunks[int(key)] = value
                except (TypeError, ValueError):
                    continue
        try:
            with open(self.journal_path, "rb") as handle:
                raw = handle.read()
        except OSError:
            raw = b""
        for line in raw.split(b"\n"):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                index = int(record["chunk"])
            except (ValueError, KeyError, TypeError):
                continue  # torn or foreign line: not durable, skip
            chunks[index] = record["result"]
        return chunks
