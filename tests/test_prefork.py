"""Pre-fork tier: routing units, registry, twin servers, live fleet."""

import dataclasses
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.client import ServiceClient
from repro.engine import EvaluationSession
from repro.engine.cache import EngineStats, merge_stats
from repro.service import EvaluationService, create_service
from repro.service.jsonapi import evaluate_payload
from repro.service.routing import (WorkerRegistry, merge_admission,
                                   merge_request_counts, pid_alive,
                                   sum_counter_dicts)


# ----------------------------------------------------------------------
# Worker registry.
# ----------------------------------------------------------------------
class TestWorkerRegistry:
    def test_write_read_remove(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        entry = {"worker": 0, "pid": os.getpid(),
                 "direct_host": "127.0.0.1", "direct_port": 12345}
        registry.write(0, entry)
        assert registry.entries() == {0: entry}
        registry.remove(0)
        registry.remove(0)  # idempotent
        assert registry.entries() == {}

    def test_corrupt_and_foreign_files_skipped(self, tmp_path):
        registry = WorkerRegistry(str(tmp_path))
        registry.write(0, {"worker": 0, "pid": os.getpid()})
        (tmp_path / "worker-1.json").write_text("{torn write")
        (tmp_path / "worker-2.json").write_text(
            json.dumps({"pid": os.getpid()}))  # no worker id
        assert sorted(registry.entries()) == [0]

    def test_dead_pid_filtered(self, tmp_path):
        probe = subprocess.Popen(["true"])
        probe.wait()
        assert not pid_alive(probe.pid)
        registry = WorkerRegistry(str(tmp_path))
        registry.write(0, {"worker": 0, "pid": os.getpid()})
        registry.write(1, {"worker": 1, "pid": probe.pid})
        assert sorted(registry.entries()) == [0]

    def test_crash_leaked_staging_files_collected(self, tmp_path):
        """A worker SIGKILLed between staging write and rename leaks
        ``worker-<id>.json.tmp<pid>``; registry scans collect it."""
        probe = subprocess.Popen(["true"])
        probe.wait()
        assert not pid_alive(probe.pid)
        registry = WorkerRegistry(str(tmp_path))
        registry.write(0, {"worker": 0, "pid": os.getpid()})
        dead_leak = tmp_path / f"worker-3.json.tmp{probe.pid}"
        dead_leak.write_text("{half a reg")
        live_leak = tmp_path / f"worker-4.json.tmp{os.getpid()}"
        live_leak.write_text("{mid-write}")
        odd_old = tmp_path / "worker-5.json.tmpXYZ"
        odd_old.write_text("{}")
        ancient = time.time() - 2 * registry.STALE_STAGING_SECONDS
        os.utime(odd_old, (ancient, ancient))
        odd_new = tmp_path / "worker-6.json.tmpABC"
        odd_new.write_text("{}")
        assert sorted(registry.entries()) == [0]
        assert not dead_leak.exists()  # writer pid dead: collected
        assert live_leak.exists()      # writer alive: in-flight
        assert not odd_old.exists()    # unattributable + old: gone
        assert odd_new.exists()        # unattributable + fresh: kept


# ----------------------------------------------------------------------
# Stats merge helpers.
# ----------------------------------------------------------------------
class TestStatsMerging:
    def test_sum_counter_dicts(self):
        totals = sum_counter_dicts(
            [{"a": 1, "b": 2}, {"a": 3, "b": "bad"}], ("a", "b"))
        assert totals == {"a": 4, "b": 2}

    def test_merge_request_counts(self):
        merged = merge_request_counts(
            [{"/evaluate": 2}, {"/evaluate": 1, "/sweep": 4}])
        assert merged == {"/evaluate": 3, "/sweep": 4}

    def test_merge_admission_drain_flag(self):
        merged = merge_admission(
            [{"capacity": 8, "draining": False},
             {"capacity": 8, "draining": True}])
        assert merged["capacity"] == 16
        assert merged["draining"] is True

    def test_engine_stats_round_trip_and_merge(self):
        left = EngineStats(hits=3, misses=1, evictions=0, size=2,
                           capacity=8, build_seconds=0.5)
        right = EngineStats(hits=1, misses=2, evictions=0, size=3,
                            capacity=8, build_seconds=0.25)
        assert EngineStats.from_dict(
            dataclasses.asdict(left)) == left
        merged = merge_stats(left, right)
        assert merged.hits == 4 and merged.misses == 3
        assert merged.capacity == left.capacity


# ----------------------------------------------------------------------
# Twin servers sharing one warm state.
# ----------------------------------------------------------------------
def test_shared_with_aliases_state():
    primary = create_service(host="127.0.0.1", port=0)
    direct = EvaluationService(("127.0.0.1", 0), shared_with=primary)
    assert direct.session is primary.session
    assert direct.counters is primary.counters
    assert direct.result_cache is primary.result_cache
    threads = [threading.Thread(target=svc.serve_forever,
                                daemon=True)
               for svc in (primary, direct)]
    for thread in threads:
        thread.start()
    try:
        via_direct = ServiceClient(
            f"http://127.0.0.1:{direct.server_port}")
        via_direct.evaluate(device={"node": 44})
        stats = ServiceClient(
            f"http://127.0.0.1:{primary.server_port}").stats()
        # The request entered through the direct port but shows up in
        # the primary's books because the counters are one object.
        assert stats["requests"]["/evaluate"] == 1
        assert stats["engine"]["misses"] >= 1
    finally:
        for svc in (direct, primary):
            svc.shutdown()
            svc.server_close()
        for thread in threads:
            thread.join(timeout=5)
            assert not thread.is_alive()


def test_refusing_sibling_is_reported_unreachable(tmp_path):
    # A live registry entry whose direct port refuses connections: the
    # cluster view still answers, with that worker named unreachable.
    registry = WorkerRegistry(str(tmp_path))
    registry.write(1, {"worker": 1, "pid": os.getpid(), "port": 0,
                       "direct_port": _free_port()})
    svc = create_service(host="127.0.0.1", port=0, registry=registry)
    try:
        body = svc.cluster_stats_payload()
    finally:
        svc.server_close()
    assert body["workers"] == [0]
    assert body["workers_unreachable"] == [1]


# ----------------------------------------------------------------------
# Live two-worker fleet (subprocess, real CLI entry point).
# ----------------------------------------------------------------------
def _free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def _fleet_env():
    env = os.environ.copy()
    root = Path(__file__).parent.parent
    env["PYTHONPATH"] = str(root / "src") + os.pathsep \
        + env.get("PYTHONPATH", "")
    return env


def _child_pids(pid):
    children = Path(f"/proc/{pid}/task/{pid}/children")
    try:
        candidates = [int(part) for part in
                      children.read_text().split()]
    except (OSError, ValueError):
        out = subprocess.run(
            ["ps", "-o", "pid=", "--ppid", str(pid)],
            capture_output=True, text=True)
        candidates = [int(part) for part in out.stdout.split()]
    workers = []
    for child in candidates:
        # The forked workers inherit the supervisor's cmdline.
        try:
            cmdline = Path(f"/proc/{child}/cmdline").read_bytes()
        except OSError:
            continue
        if b"repro" in cmdline:
            workers.append(child)
    return workers


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    port = _free_port()
    jobs_dir = tmp_path_factory.mktemp("fleet-jobs")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--port", str(port), "--workers", "2",
         "--jobs-dir", str(jobs_dir)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True, env=_fleet_env())
    client = ServiceClient(f"http://127.0.0.1:{port}")
    if not client.wait_until_ready(timeout=60):
        process.kill()
        out, _ = process.communicate(timeout=10)
        pytest.fail(f"fleet never became ready:\n{out}")
    yield SimpleNamespace(port=port, process=process, client=client)
    process.send_signal(signal.SIGTERM)
    out, _ = process.communicate(timeout=30)
    assert process.returncode == 0, out
    assert "repro service stopped" in out


def _fleet_post(port, path, payload, timeout=60):
    """POST once on a fresh connection; the reply must be a 200.

    Returns the body bytes.
    """
    conn = http.client.HTTPConnection("127.0.0.1", port,
                                      timeout=timeout)
    try:
        conn.request("POST", path, body=json.dumps(payload),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = response.read()
        assert response.status == 200, body
        return body
    finally:
        conn.close()


class TestFleet:
    def test_fleet_matches_single_process_bit_for_bit(self, fleet):
        payloads = [{"device": {}},
                    {"devices": [{"node": 44}, {"node": 55}]}]
        session = EvaluationSession(capacity=16)
        for payload in payloads:
            bodies = {_fleet_post(fleet.port, "/evaluate", payload)
                      for _ in range(3)}
            assert len(bodies) == 1, \
                "repeat responses were not byte-identical"
            expected = evaluate_payload(session, payload)
            assert json.loads(bodies.pop()) == expected

    def test_cluster_stats_aggregate_both_workers(self, fleet):
        fleet.client.evaluate(device={})
        stats = fleet.client.request("GET", "/stats?scope=cluster")
        assert stats["scope"] == "cluster"
        assert stats["workers"] == [0, 1]
        assert stats["workers_unreachable"] == []
        assert stats["admission"]["capacity"] == 16  # 2 x 8 slots
        assert stats["requests_total"] >= 1
        assert stats["requests"].get("/evaluate", 0) >= 1

    def test_killed_worker_is_respawned(self, fleet):
        workers = _child_pids(fleet.process.pid)
        assert len(workers) == 2
        victim = workers[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 30
        respawned = False
        while time.monotonic() < deadline:
            # The fleet must stay available throughout; transient
            # refusals on the dying worker's accept queue are the
            # client's stale-connection problem, not an outage.
            try:
                assert fleet.client.healthz()["status"] == "ok"
            except Exception:
                pass
            current = _child_pids(fleet.process.pid)
            if len(current) == 2 and victim not in current:
                respawned = True
                break
            time.sleep(0.1)
        assert respawned, "supervisor never replaced the dead worker"
        stats_deadline = time.monotonic() + 30
        while time.monotonic() < stats_deadline:
            stats = fleet.client.request(
                "GET", "/stats?scope=cluster")
            if stats["workers"] == [0, 1]:
                break
            time.sleep(0.2)
        assert stats["workers"] == [0, 1]
        assert fleet.client.evaluate(
            device={})["results"][0]["power_w"] > 0

    def test_durable_job_runs_across_the_fleet(self, fleet):
        """Jobs are on with --jobs-dir; any worker can answer for a
        job another worker is running, because the journal and
        status live in the shared store."""
        handle = fleet.client.submit_job(
            "montecarlo", params={"samples": 6, "seed": 5},
            chunk_size=2, idempotency_key="fleet-mc")
        again = fleet.client.submit_job(
            "montecarlo", params={"samples": 6, "seed": 5},
            chunk_size=2, idempotency_key="fleet-mc")
        assert again.id == handle.id
        assert again.submitted["created"] is False
        result = handle.result(interval=0.1, timeout=60.0)
        assert result["samples"] == 6
        assert len(result["rows"]) == 2
        final = handle.status()
        assert final["state"] == "done"
        assert final["chunks_done"] == 3
