"""The job subsystem over HTTP: endpoints, handles, fleet sharing."""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.client import NO_RETRY, JobHandle, ServiceClient
from repro.errors import JobError, JobNotFound, ServiceError
from repro.service import create_service
from repro.service.faults import FaultRule

MC = {"samples": 6, "seed": 3}


@pytest.fixture()
def jobs_service(tmp_path):
    svc = create_service(host="127.0.0.1", port=0,
                         jobs_dir=str(tmp_path / "jobs"))
    svc.jobs.poll_interval = 0.02
    thread = threading.Thread(target=svc.serve_forever, daemon=True)
    thread.start()
    yield svc
    svc.shutdown()
    svc.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def _client(svc, **kwargs):
    return ServiceClient(f"http://127.0.0.1:{svc.server_port}",
                         **kwargs)


#: Nesting depths around the stack limits of the JSON decoder and
#: encoders: some bodies parse and validate, some do not.
DEEP = range(960, 1001)


def _deep_job(depth, key=None):
    """A valid ``POST /jobs`` body nested ``depth`` levels: two
    objects, then lists under an unknown (kept) ``params`` key."""
    head = json.dumps({"kind": "montecarlo", "idempotency_key": key,
                       "params": {"samples": 2, "seed": 1}})[:-2]
    inner = "[" * (depth - 2) + "]" * (depth - 2)
    return (head + ', "deep": ' + inner + "}}").encode()


def _post_status(svc, body):
    """The HTTP status of one raw ``POST /jobs``."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{svc.server_port}/jobs", data=body,
        method="POST", headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as reply:
            return reply.status
    except urllib.error.HTTPError as failure:
        failure.close()
        return failure.code


class TestJobEndpoints:
    def test_submit_watch_result(self, jobs_service):
        client = _client(jobs_service)
        handle = client.submit_job("montecarlo", params=MC,
                                   chunk_size=2)
        assert handle.submitted["created"] is True
        assert handle.submitted["state"] == "pending"
        states = [s["state"] for s in handle.watch(interval=0.02,
                                                   timeout=30.0)]
        assert states[-1] == "done"
        result = handle.result(timeout=30.0)
        assert result["kind"] == "montecarlo"
        assert result["samples"] == 6
        final = handle.status()
        assert final["chunks_done"] == final["chunks_total"] == 3
        client.close()

    def test_idempotent_resubmit(self, jobs_service):
        client = _client(jobs_service)
        first = client.submit_job("montecarlo", params=MC,
                                  idempotency_key="idem")
        again = client.submit_job("montecarlo", params=MC,
                                  idempotency_key="idem")
        assert first.id == again.id
        assert again.submitted["created"] is False
        client.close()

    def test_conflicting_key_is_409(self, jobs_service):
        client = _client(jobs_service, retry=NO_RETRY)
        client.submit_job("montecarlo", params=MC,
                          idempotency_key="clash")
        with pytest.raises(ServiceError) as caught:
            client.submit_job("montecarlo", params=dict(MC, seed=9),
                              idempotency_key="clash")
        assert caught.value.status == 409
        client.close()

    def test_non_object_json_device_is_400(self, jobs_service):
        client = _client(jobs_service, retry=NO_RETRY)
        with pytest.raises(ServiceError) as caught:
            client.submit_job("evaluate",
                              params={"devices": [{"json": []}]})
        assert caught.value.status == 400
        assert client.request("GET", "/jobs")["count"] == 0
        client.close()

    def test_deep_nesting_is_never_500(self, jobs_service):
        # A body too deep to re-encode is a 400 before the job
        # directory exists, so none is left without its spec.
        for depth in DEEP:
            status = _post_status(jobs_service, _deep_job(depth))
            assert status in (200, 400), depth
        root = jobs_service.jobs.store.root
        assert [entry.name for entry in root.iterdir()
                if not (entry / "spec.json").is_file()] == []

    def test_deep_rejection_leaves_idempotency_key_free(
            self, jobs_service):
        rejected = 0
        for depth in DEEP:
            key = f"deep-{depth}"
            if _post_status(jobs_service, _deep_job(depth, key)) == 200:
                continue  # accepted: the key now names that spec
            rejected += 1
            valid = json.dumps({"kind": "montecarlo", "params": MC,
                                "idempotency_key": key})
            assert _post_status(jobs_service, valid.encode()) == 200, \
                depth
        assert rejected

    def test_listing_counts_jobs(self, jobs_service):
        client = _client(jobs_service)
        client.submit_job("montecarlo", params=MC)
        listing = client.request("GET", "/jobs")
        assert listing["count"] == len(listing["jobs"]) >= 1
        client.close()

    def test_unknown_job_raises_not_found(self, jobs_service):
        client = _client(jobs_service)
        with pytest.raises(JobNotFound):
            client.job("jmissing123456789").status()
        with pytest.raises(JobNotFound):
            client.job("jmissing123456789").cancel()
        client.close()

    def test_result_before_done_is_409(self, jobs_service):
        # Submit directly into the store, never run: stays pending.
        status, _ = jobs_service.jobs.store.submit(
            {"kind": "montecarlo", "params": MC,
             "idempotency_key": "parked"})
        client = _client(jobs_service, retry=NO_RETRY)
        with pytest.raises(ServiceError) as caught:
            client.request("GET", f"/jobs/{status['job']}/result")
        assert caught.value.status == 409
        client.close()

    def test_cancel_pending_job(self, jobs_service):
        status, _ = jobs_service.jobs.store.submit(
            {"kind": "montecarlo", "params": MC,
             "idempotency_key": "doomed"})
        client = _client(jobs_service)
        after = client.job(status["job"]).cancel()
        assert after["state"] == "cancelled"
        with pytest.raises(JobError):
            client.job(status["job"]).result(timeout=5.0)
        client.close()

    def test_failed_job_raises_job_error(self, jobs_service):
        client = _client(jobs_service)
        # Valid at submit, dies at planning: unknown trend node.
        handle = client.submit_job(
            "sweep", params={"kind": "trends", "nodes": [999]})
        with pytest.raises(JobError) as caught:
            handle.result(interval=0.02, timeout=30.0)
        assert "failed" in str(caught.value)
        client.close()

    def test_stats_exposes_job_counters(self, jobs_service):
        client = _client(jobs_service)
        handle = client.submit_job("montecarlo", params=MC)
        handle.result(interval=0.02, timeout=30.0)
        stats = client.stats()
        assert stats["jobs"]["jobs_started"] >= 1
        client.close()

    def test_watch_absorbs_transient_shedding(self, jobs_service):
        client = _client(jobs_service, retry=NO_RETRY, breaker=None)
        handle = client.submit_job("montecarlo", params=MC)
        jobs_service.faults.rules.append(
            FaultRule(kind="error", path=f"/jobs/{handle.id}",
                      times=2, status=503))
        states = [s["state"] for s in handle.watch(interval=0.02,
                                                   timeout=30.0)]
        assert states[-1] == "done"
        assert jobs_service.faults.snapshot()["error"] == 2
        client.close()

    def test_watch_timeout_raises_job_error(self, jobs_service):
        # Stop the manager first so it never runs the job: claiming
        # the job after submit would race the manager's next poll.
        jobs_service.jobs.stop()
        status, _ = jobs_service.jobs.store.submit(
            {"kind": "montecarlo", "params": MC,
             "idempotency_key": "stuck"})
        client = _client(jobs_service)
        try:
            with pytest.raises(JobError) as caught:
                client.job(status["job"]).wait(interval=0.02,
                                               timeout=0.2)
            assert "timed out" in str(caught.value)
            assert client.job(status["job"]).status()["state"] \
                == "pending"
        finally:
            client.close()

    def test_ttl_gc_expires_job_to_404(self, jobs_service):
        client = _client(jobs_service)
        handle = client.submit_job("montecarlo", params=MC)
        handle.result(interval=0.02, timeout=30.0)
        time.sleep(0.05)
        assert jobs_service.jobs.store.gc(ttl=0.01) >= 1
        with pytest.raises(JobNotFound):
            handle.status()
        client.close()


class TestJobsCommand:
    """``repro jobs submit`` against an in-process service: the CLI
    keeps no list of job kinds, the server names them."""

    def _main(self, svc, *argv):
        from repro.cli import main

        return main(["jobs", "--url",
                     f"http://127.0.0.1:{svc.server_port}", *argv])

    def test_submit_trace_wait_prints_the_library_result(
            self, jobs_service, tmp_path, capsys):
        from repro import DramPowerModel
        from repro.devices import build_device
        from repro.service.tracing import trace_result_row
        from repro.trace import AddressDecoder, replay_trace_file

        path = tmp_path / "cli.trc"
        path.write_text("".join(
            f"0x{(i * 4160) % (1 << 30):x} "
            f"{'P_MEM_WR' if i % 3 else 'P_MEM_RD'} {i * 4}\n"
            for i in range(500)))
        params = {"device": {"node": 55}, "path": str(path),
                  "decoder": {"rank_bits": 1}}
        assert self._main(jobs_service, "submit", "trace", "--params",
                          json.dumps(params), "--wait") == 0
        printed = json.loads(capsys.readouterr().out)
        device = build_device(55)
        accumulator, _ = replay_trace_file(
            DramPowerModel(device), path,
            decoder=AddressDecoder.from_device(device, rank_bits=1),
            backend="serial")
        assert printed["kind"] == "trace"
        assert printed["result"] == trace_result_row(
            accumulator.result(), accumulator.commands_seen)

    def test_watch_prints_chunk_counters(self, jobs_service, capsys):
        client = _client(jobs_service)
        handle = client.submit_job("montecarlo", params=MC,
                                   chunk_size=2)
        handle.result(interval=0.02, timeout=30.0)
        client.close()
        assert self._main(jobs_service, "watch", handle.id,
                          "--interval", "0.02") == 0
        assert capsys.readouterr().out.splitlines()[-1] \
            == "done 3/3 chunks"

    def test_unknown_kind_prints_the_server_message(self, jobs_service,
                                                     capsys):
        assert self._main(jobs_service, "submit", "frobnicate") == 1
        err = capsys.readouterr().err
        assert ("unknown job kind 'frobnicate'; choose from "
                "evaluate/montecarlo/sweep/trace") in err


class TestJobsDisabled:
    def test_disabled_service_says_503_with_retry_after(self):
        svc = create_service(host="127.0.0.1", port=0)
        thread = threading.Thread(target=svc.serve_forever,
                                  daemon=True)
        thread.start()
        try:
            client = _client(svc, retry=NO_RETRY, breaker=None)
            for method, path in (("POST", "/jobs"),
                                 ("GET", "/jobs"),
                                 ("DELETE", "/jobs/jx")):
                with pytest.raises(ServiceError) as caught:
                    client.request(method, path,
                                   {"kind": "montecarlo",
                                    "params": MC}
                                   if method == "POST" else None)
                assert caught.value.status == 503
                assert caught.value.retry_after is not None
                assert "--jobs-dir" in str(caught.value)
                assert "--cache-dir" not in str(caught.value)
            client.close()
        finally:
            svc.shutdown()
            svc.server_close()
            thread.join(timeout=10)


class TestFleetSharing:
    def test_shared_service_reuses_manager(self, tmp_path):
        from repro.service import EvaluationService
        primary = create_service(host="127.0.0.1", port=0,
                                 jobs_dir=str(tmp_path / "jobs"))
        secondary = EvaluationService(("127.0.0.1", 0),
                                      shared_with=primary)
        try:
            assert secondary.jobs is primary.jobs
        finally:
            secondary.server_close()
            primary.server_close()

    def test_orphan_adopted_by_second_manager(self, tmp_path):
        """A dead worker's half-done job finishes on a sibling."""
        from repro.engine import EvaluationSession
        from repro.jobs import JobManager, JobStore, plan_job

        root = tmp_path / "jobs"
        store = JobStore(root)
        status, _ = store.submit(
            {"kind": "montecarlo", "params": MC, "chunk_size": 2,
             "idempotency_key": "orphan"})
        job_id = status["job"]
        session = EvaluationSession()
        plan = plan_job(store.load_spec(job_id), session)
        store.journal(job_id).append_chunk(0, plan.run_chunk(0))
        store.write_status(job_id, state="running", worker=0,
                           pid=99999999)
        sibling = JobManager(str(root), session=session, worker_id=1)
        sibling.run_pending()
        after = store.status(job_id)
        assert after["state"] == "done"
        assert after["replayed_chunks"] == 1
        assert after["computed_chunks"] == 2
        assert sibling.jobs_resumed == 1
