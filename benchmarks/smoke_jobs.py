"""CI smoke check: durable jobs survive a SIGKILL'd fleet worker.

Runs the same keyed Monte-Carlo job twice and demands bit-identical
``result.json`` bytes:

* **baseline** — one in-process :class:`~repro.jobs.JobManager`
  executing the job start-to-finish, never interrupted;
* **chaos** — a 2-worker pre-fork fleet booted from the real CLI
  entry point.  Once the job has durably checkpointed a few chunks,
  the worker running it (the ``pid`` recorded in the job status) is
  SIGKILL'd mid-job.  The supervisor respawns the worker; whichever
  live worker's job manager polls first adopts the job (its flock
  lets exactly one win), replays the write-ahead journal and
  finishes the remaining chunks.

The final status must show ``replayed_chunks >= 1`` (the journal was
actually used) and ``replayed + computed == chunks_total``.  Resume
latency (kill to first sign of the adopting worker), the timings and
the chunk accounting are printed.

Usage: ``PYTHONPATH=src python benchmarks/smoke_jobs.py``
Exits non-zero on any failed expectation.
"""

import os
import signal
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.client import ServiceClient
from repro.jobs import JobManager, JobStore

#: One keyed job, submitted identically on both sides so the job id
#: (and therefore the id embedded in result.json) matches exactly.
JOB_KEY = "smoke-chaos-parity"
JOB_PARAMS = {"samples": 3200, "seed": 2026}
CHUNK_SIZE = 80  # -> 40 chunks, each a durable checkpoint
#: Chunks that must be journaled before the worker is killed, so the
#: resumed run provably replays real progress.
KILL_AFTER_CHUNKS = 6
WORKERS = 2


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _fail(process, message):
    print(f"FAIL: {message}")
    if process is not None and process.poll() is None:
        process.kill()
        process.communicate(timeout=10)
    return 1


def _submit_payload():
    return {"kind": "montecarlo", "params": JOB_PARAMS,
            "chunk_size": CHUNK_SIZE, "idempotency_key": JOB_KEY}


def _baseline(root: str):
    """Uninterrupted single-process run; returns (bytes, seconds)."""
    store = JobStore(root)
    status, _ = store.submit(_submit_payload())
    manager = JobManager(root)
    started = time.perf_counter()
    manager.run_pending()
    elapsed = time.perf_counter() - started
    job_id = status["job"]
    final = store.status(job_id)
    if final["state"] != "done":
        raise RuntimeError(f"baseline ended {final['state']!r}")
    blob = (Path(root) / job_id / "result.json").read_bytes()
    return blob, elapsed


def _boot(jobs_dir: str):
    port = _free_port()
    root = Path(__file__).parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    command = [sys.executable, "-m", "repro", "serve",
               "--port", str(port), "--jobs-dir", jobs_dir,
               "--workers", str(WORKERS)]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stderr=subprocess.STDOUT, text=True,
                               env=env)
    return process, port


def _stop(process):
    process.send_signal(signal.SIGTERM)
    output, _ = process.communicate(timeout=30)
    return process.returncode, output


def _wait_for_victim(handle, supervisor_pid):
    """Poll until the job has checkpointed enough; return its pid."""
    deadline = time.monotonic() + 60.0
    while time.monotonic() < deadline:
        status = handle.status()
        if status["state"] in ("done", "failed", "cancelled"):
            raise RuntimeError(
                f"job reached {status['state']!r} before the kill; "
                f"raise JOB_PARAMS['samples']")
        if (status["state"] == "running"
                and status.get("chunks_done", 0) >= KILL_AFTER_CHUNKS
                and isinstance(status.get("pid"), int)):
            pid = status["pid"]
            if pid == supervisor_pid:
                raise RuntimeError(
                    "job status names the supervisor pid")
            return pid, status["chunks_done"]
        time.sleep(0.02)
    raise RuntimeError("job never reached the kill threshold")


def _await_resume(handle, killed_pid):
    """Wait for adoption + completion; returns (latency, status)."""
    killed_at = time.monotonic()
    resumed_at = None
    deadline = killed_at + 120.0
    while time.monotonic() < deadline:
        try:
            status = handle.status()
        except Exception:  # noqa: BLE001 - fleet mid-respawn
            time.sleep(0.05)
            continue
        owner = status.get("pid")
        if resumed_at is None and isinstance(owner, int) \
                and owner != killed_pid:
            resumed_at = time.monotonic()
        if status["state"] == "done":
            if resumed_at is None:
                resumed_at = time.monotonic()
            return resumed_at - killed_at, status
        if status["state"] in ("failed", "cancelled"):
            raise RuntimeError(
                f"job ended {status['state']!r} after the kill: "
                f"{status.get('error')}")
        time.sleep(0.05)
    raise RuntimeError("job never finished after the kill")


def _chaos(jobs_dir: str):
    """Kill a worker mid-job; returns (bytes, metrics) on success."""
    process, port = _boot(jobs_dir)
    client = ServiceClient(f"http://127.0.0.1:{port}")
    try:
        if not client.wait_until_ready(timeout=60):
            raise RuntimeError(
                f"fleet never ready ({client.last_ready_error})")
        started = time.perf_counter()
        handle = client.submit_job(
            "montecarlo", params=JOB_PARAMS, chunk_size=CHUNK_SIZE,
            idempotency_key=JOB_KEY)
        victim, journaled = _wait_for_victim(handle, process.pid)
        os.kill(victim, signal.SIGKILL)
        print(f"killed worker pid {victim} after {journaled} "
              f"journaled chunks")
        latency, final = _await_resume(handle, victim)
        total = time.perf_counter() - started
    except Exception as exc:  # noqa: BLE001 - single fail funnel
        client.close()
        raise SystemExit(_fail(process, str(exc)))
    client.close()
    returncode, output = _stop(process)
    if returncode != 0:
        raise SystemExit(_fail(
            None, f"fleet exit code {returncode}\n{output}"))
    blob = (Path(jobs_dir) / handle.id / "result.json").read_bytes()
    return blob, {"final": final, "latency": latency,
                  "journaled_at_kill": journaled, "total": total}


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-jobs-") as tmp:
        baseline_blob, baseline_s = _baseline(
            os.path.join(tmp, "baseline-jobs"))
        print(f"baseline: uninterrupted run in {baseline_s:.2f}s")
        chaos_blob, chaos = _chaos(os.path.join(tmp, "jobs"))

    final = chaos["final"]
    replayed = final.get("replayed_chunks", 0)
    computed = final.get("computed_chunks", 0)
    chunks_total = final.get("chunks_total", 0)
    if chaos_blob != baseline_blob:
        print("FAIL: resumed result differs from the uninterrupted "
              "baseline")
        return 1
    if replayed < 1:
        print("FAIL: resumed run replayed no journaled chunks")
        return 1
    if replayed + computed != chunks_total:
        print(f"FAIL: chunk accounting broken: {replayed} replayed "
              f"+ {computed} computed != {chunks_total} total")
        return 1

    print(f"OK: {WORKERS}-worker fleet, {JOB_PARAMS['samples']} "
          f"samples; SIGKILL'd worker after "
          f"{chaos['journaled_at_kill']} journaled chunks; resume "
          f"replayed {replayed}/{chunks_total} chunks, computed "
          f"{computed}, result byte-identical; resume latency "
          f"{chaos['latency']:.2f}s, chaos run {chaos['total']:.2f}s "
          f"against baseline {baseline_s:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
