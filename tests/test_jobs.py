"""Durable job layer: journal, spec planning, store, runner resume.

The acceptance bar these tests enforce: a job interrupted by SIGKILL
mid-chunk, at a chunk boundary, or during the journal write itself
resumes from the last durable checkpoint and produces a result
*bit-for-bit identical* to an uninterrupted run — no journaled chunk
re-computed, no journaled chunk lost.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import EvaluationSession, numpy_available
from repro.errors import JobError, JobNotFound, ServiceError
from repro.jobs import (DEFAULT_CHUNK_SIZE, JobJournal, JobManager,
                        JobRunner, JobSpec, JobStore, parse_job_spec,
                        plan_job)
from repro.jobs.journal import write_json_atomic
from repro.service.faults import FaultInjector, FaultRule
from repro.trace import STRICT_REFUSAL

MC_PAYLOAD = {"kind": "montecarlo",
              "params": {"samples": 10, "seed": 7},
              "chunk_size": 3}

#: Keyed variant: both sides of a byte-parity comparison submit with
#: the same key, so the job id (embedded in result.json) matches.
MC_KEYED = dict(MC_PAYLOAD, idempotency_key="parity")


def _result_bytes(root, job_id):
    return (Path(root) / job_id / "result.json").read_bytes()


def _run_all(root):
    manager = JobManager(str(root), session=EvaluationSession())
    manager.run_pending()
    return manager


def _write_snapshot(directory, chunks):
    """The version-1 ``snapshot.json`` an older release compacted."""
    (Path(directory) / "snapshot.json").write_text(json.dumps(
        {"version": 1,
         "chunks": {str(index): result
                    for index, result in chunks.items()}},
        sort_keys=True))


# ----------------------------------------------------------------------
# Journal durability.
# ----------------------------------------------------------------------
class TestJournal:
    def test_append_replay_roundtrip(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append_chunk(0, [1.5, 2.5])
        journal.append_chunk(1, [[3.0, 4.0]])
        replayed = JobJournal(tmp_path).replay()
        assert replayed == {0: [1.5, 2.5], 1: [[3.0, 4.0]]}

    def test_torn_tail_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append_chunk(0, ["a"])
        journal.append_chunk(1, ["b"])
        raw = journal.journal_path.read_bytes()
        # Cut the final line in half: the torn-write crash shape.
        journal.journal_path.write_bytes(raw[:len(raw) - 6])
        replayed = JobJournal(tmp_path).replay()
        assert replayed == {0: ["a"]}

    def test_malformed_interior_line_is_skipped(self, tmp_path):
        journal = JobJournal(tmp_path)
        journal.append_chunk(0, ["a"])
        with open(journal.journal_path, "ab") as handle:
            handle.write(b"{not json}\n")
        journal.append_chunk(2, ["c"])
        assert JobJournal(tmp_path).replay() == {0: ["a"], 2: ["c"]}

    def test_compaction_preserves_replay(self, tmp_path):
        """An older release compacted chunks into a version-1
        ``snapshot.json`` and truncated the journal: replay is the
        union of the snapshot and the journal tail."""
        _write_snapshot(tmp_path, {0: [1.25], 1: [2.75]})
        journal = JobJournal(tmp_path)
        journal.append_chunk(2, [9.5])
        replayed = JobJournal(tmp_path).replay()
        assert replayed == {0: [1.25], 1: [2.75], 2: [9.5]}

    def test_duplicate_records_dedupe_by_index(self, tmp_path):
        # That release's crash window between snapshot rename and
        # journal truncate: both files hold chunk 0.  Replay must not
        # double-count.
        _write_snapshot(tmp_path, {0: [1.0]})
        journal = JobJournal(tmp_path)
        journal.append_chunk(0, [1.0])  # duplicate, same value
        journal.append_chunk(1, [2.0])
        assert JobJournal(tmp_path).replay() == {0: [1.0], 1: [2.0]}

    def test_unknown_snapshot_version_is_ignored(self, tmp_path):
        (tmp_path / "snapshot.json").write_text(json.dumps(
            {"version": 2, "chunks": {"0": [1.0]}}))
        JobJournal(tmp_path).append_chunk(1, [2.0])
        assert JobJournal(tmp_path).replay() == {1: [2.0]}

    def test_failed_atomic_write_leaves_no_staging_file(
            self, tmp_path, monkeypatch):
        target = tmp_path / "status.json"
        with pytest.raises(TypeError):
            write_json_atomic(target, {"unencodable": {1, 2}})

        def failing_fsync(handle):
            raise OSError("disk full")

        monkeypatch.setattr("repro.jobs.journal.os.fsync", failing_fsync)
        with pytest.raises(OSError):
            write_json_atomic(target, {"state": "pending"})
        assert list(tmp_path.iterdir()) == []


# ----------------------------------------------------------------------
# Spec parsing and deterministic planning.
# ----------------------------------------------------------------------
class TestSpec:
    def test_parse_defaults(self):
        spec = parse_job_spec({"kind": "montecarlo",
                               "params": {"samples": 4}})
        assert spec.chunk_size == DEFAULT_CHUNK_SIZE
        assert spec.kind == "montecarlo"

    @pytest.mark.parametrize("payload", [
        "not a dict",
        {"kind": "nope", "params": {}},
        {"kind": "montecarlo", "params": {"samples": 0}},
        {"kind": "montecarlo", "params": {"samples": "many"}},
        {"kind": "montecarlo", "params": {"samples": 4,
                                          "seed": "x"}},
        {"kind": "montecarlo", "params": {"samples": 4},
         "chunk_size": 0},
        {"kind": "montecarlo", "params": []},
        {"kind": "sweep", "params": {"kind": "bogus"}},
        {"kind": "evaluate", "params": {"devices": "x"}},
    ])
    def test_parse_rejects_malformed(self, payload):
        with pytest.raises(ServiceError):
            parse_job_spec(payload)

    def test_montecarlo_planning_is_deterministic(self):
        session = EvaluationSession()
        spec = JobSpec(kind="montecarlo",
                       params={"samples": 6, "seed": 3},
                       chunk_size=2)
        first = plan_job(spec, session)
        second = plan_job(spec, session)
        assert first.chunk_count == 3
        assert first.run_chunk(1) == second.run_chunk(1)

    def test_chunked_equals_single_chunk(self):
        """Chunk size never changes the assembled result."""
        session = EvaluationSession()
        params = {"samples": 7, "seed": 11}
        wide = plan_job(JobSpec("montecarlo", params, 7), session)
        narrow = plan_job(JobSpec("montecarlo", params, 2), session)
        whole = wide.assemble({0: wide.run_chunk(0)})
        pieces = narrow.assemble(
            {i: narrow.run_chunk(i)
             for i in range(narrow.chunk_count)})
        assert json.dumps(whole, sort_keys=True) \
            == json.dumps(pieces, sort_keys=True)

    def test_assemble_refuses_missing_chunk(self):
        session = EvaluationSession()
        plan = plan_job(JobSpec("montecarlo",
                                {"samples": 4, "seed": 1}, 2),
                        session)
        with pytest.raises(JobError):
            plan.assemble({0: plan.run_chunk(0)})

    def test_montecarlo_job_matches_library(self):
        """The job's assembled rows are the summaries of
        :func:`repro.analysis.monte_carlo` for the same draws."""
        from repro.analysis.montecarlo import monte_carlo
        from repro.core.idd import IddMeasure
        from repro.devices import build_device

        params = {"device": {"node": 44}, "samples": 11, "seed": 5,
                  "sigmas": {"capacitance": 0.08, "voltage": 0.02},
                  "measures": ["idd0", "idd4w", "idd5b"],
                  "backend": "serial"}
        plan = plan_job(JobSpec("montecarlo", params, 4),
                        EvaluationSession())
        result = _run_plan(plan)
        library = monte_carlo(
            build_device(44),
            measures=[IddMeasure(name) for name in params["measures"]],
            samples=11, sigmas=params["sigmas"], seed=5,
            session=EvaluationSession(), backend="serial")
        assert result["measures"] == params["measures"]
        assert result["rows"] == [
            {"measure": dist.measure.value, "mean_ma": dist.mean,
             "stdev_ma": dist.stdev, "min_ma": dist.minimum,
             "max_ma": dist.maximum, "p95_ma": dist.percentile(0.95),
             "guard_band": dist.guard_band} for dist in library]

    def test_evaluate_plan_matches_endpoint_shape(self):
        session = EvaluationSession()
        plan = plan_job(
            JobSpec("evaluate", {"devices": [{}, {"node": 65}]}, 1),
            session)
        result = plan.assemble({0: plan.run_chunk(0),
                                1: plan.run_chunk(1)})
        assert result["count"] == 2
        assert all("pattern" in r for r in result["results"])


# ----------------------------------------------------------------------
# The trace job kind: one durable replay of a trace file.
# ----------------------------------------------------------------------
def _trace_file(tmp_path, transactions=3000):
    lines = []
    state = 12345
    for i in range(transactions):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        op = "P_MEM_WR" if i % 3 == 0 else "P_MEM_RD"
        lines.append(f"0x{(state << 6) & 0x3FFFFFFF:x} {op} {i * 4}")
    path = tmp_path / "job.trc"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _trace_lines(fmt, count, address_bits, seed=11):
    """Deterministic trace text over the whole decoder width, so every
    (channel, rank) pair sees traffic."""
    lines = []
    state = seed
    mask = (1 << address_bits) - 1
    for i in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        address = (state * 2654435761) & mask
        if i % 89 == 88:
            op = "REF"
        elif state % 3 == 0:
            op = "WRITE"
        else:
            op = "READ"
        if fmt == "jsonl":
            lines.append(json.dumps({"addr": address, "op": op,
                                     "cycle": i * 4}))
        else:
            lines.append(f"0x{address:x} {op} {i * 4}")
    return lines


def _serial_row(plan, path, **decoder):
    """The job's result row as serial one-shot replay computes it."""
    from repro.service.tracing import trace_result_row
    from repro.trace import AddressDecoder, replay_trace_file

    accumulator, backend = replay_trace_file(
        plan.session.model(plan.device), path, plan.fmt,
        AddressDecoder.from_device(plan.device, **decoder),
        backend="serial")
    assert backend == "serial"
    return trace_result_row(accumulator.result(),
                            accumulator.commands_seen)


def _run_plan(plan):
    return plan.assemble({index: plan.run_chunk(index)
                          for index in range(plan.chunk_count)})


#: Decoders of 0, 2, 4 and 70 (channel, rank) bits.
SHARD_DECODERS = ({}, {"channel_bits": 1, "rank_bits": 1},
                  {"channel_bits": 2, "rank_bits": 2},
                  {"rank_bits": 70})


class TestTracePlan:
    def _payload(self, path, chunk_size=1, decoder=None):
        return {"kind": "trace",
                "params": {"device": {"node": 55}, "path": path,
                           "decoder": ({"channel_bits": 1,
                                        "rank_bits": 1}
                                       if decoder is None else decoder)},
                "chunk_size": chunk_size}

    def test_validation_rejects_bad_params(self, tmp_path):
        path = _trace_file(tmp_path, 10)
        good = self._payload(path)
        parse_job_spec(good)  # sanity: the base payload is accepted
        for mutate in (
                lambda p: p["params"].pop("path"),
                lambda p: p["params"].update(path="/no/such/file"),
                lambda p: p["params"].update(format="xml"),
                lambda p: p["params"].update(clock=-1),
                lambda p: p["params"].update(clock=float("inf")),
                lambda p: p["params"].update(strict=True),
                lambda p: p["params"].update(
                    decoder={"policy": "diagonal"}),
                lambda p: p["params"].update(
                    decoder={"channel_bits": -1}),
        ):
            payload = self._payload(path)
            mutate(payload)
            with pytest.raises(ServiceError):
                parse_job_spec(payload)

    def test_strict_is_refused_with_the_shared_reason(self, tmp_path):
        payload = self._payload(_trace_file(tmp_path, 10))
        payload["params"]["strict"] = True
        with pytest.raises(ServiceError) as excinfo:
            parse_job_spec(payload)
        assert excinfo.value.status == 400
        assert str(excinfo.value) == STRICT_REFUSAL

    def test_journaled_spec_with_strict_false_runs(self, tmp_path):
        """A spec journaled by an older build may carry
        ``"strict": false``: it loads and completes with the result of
        a spec without the key."""
        path = _trace_file(tmp_path, 400)
        store = JobStore(tmp_path / "jobs")
        old, _ = store.submit(self._payload(path, 2))
        spec_path = store.job_dir(old["job"]) / "spec.json"
        spec = json.loads(spec_path.read_text())
        spec["params"]["strict"] = False
        spec_path.write_text(json.dumps(spec))
        clean, _ = store.submit(dict(self._payload(path, 2),
                                     idempotency_key="clean"))
        _run_all(tmp_path / "jobs")
        assert store.status(old["job"])["state"] == "done"
        assert store.result(old["job"]) == store.result(clean["job"])

    def test_plan_is_one_unit(self, tmp_path):
        """The whole file is one unit, whatever the (channel, rank)
        bits and the chunk size, and it replays to serial's row."""
        session = EvaluationSession()
        path = _trace_file(tmp_path, 300)
        for decoder in SHARD_DECODERS:
            for chunk_size in (1, 8, 1000):
                plan = plan_job(parse_job_spec(self._payload(
                    path, chunk_size, decoder)), session)
                assert (plan.units, plan.chunk_count) == (1, 1)
                assert plan.chunk_range(0) == (0, 1)
            assert _run_plan(plan)["result"] \
                == _serial_row(plan, path, **decoder)

    @pytest.mark.parametrize("fmt", ["k6", "mase", "jsonl"])
    @pytest.mark.parametrize("policy", ["row-bank-column",
                                        "bank-row-column"])
    def test_job_matches_serial_replay(self, fmt, policy, tmp_path):
        """A 4-pair decoder, every format and policy: the job's row
        equals serial one-shot replay in energy, duration, counts,
        row hits, misses and conflicts, and commands."""
        from repro.devices import build_device
        from repro.trace import AddressDecoder

        decoder = {"policy": policy, "channel_bits": 1, "rank_bits": 1}
        bits = AddressDecoder.from_device(build_device(55),
                                          **decoder).address_bits
        path = tmp_path / f"s.{fmt}.trc"
        path.write_text("\n".join(_trace_lines(fmt, 1200, bits)) + "\n")
        plan = plan_job(parse_job_spec({
            "kind": "trace", "chunk_size": 1,
            "params": {"device": {"node": 55}, "path": str(path),
                       "format": fmt, "decoder": decoder}}),
            EvaluationSession())
        result = _run_plan(plan)
        expected = _serial_row(plan, str(path), **decoder)
        assert result["result"] == expected
        assert result["commands"] == expected["commands"]

    def test_folds_the_file_once(self, tmp_path, monkeypatch):
        """A 16-pair decoder at ``chunk_size`` 1 reads and folds its
        file in one columnar replay."""
        from repro.trace import columnar

        if not numpy_available():
            pytest.skip("numpy not installed")
        calls = []
        replay = columnar.replay_lines_columnar

        def counted(*args, **kwargs):
            calls.append(args)
            return replay(*args, **kwargs)

        monkeypatch.setattr(columnar, "replay_lines_columnar", counted)
        decoder = {"channel_bits": 2, "rank_bits": 2}
        path = _trace_file(tmp_path, 2000)
        plan = plan_job(parse_job_spec(self._payload(path, 1, decoder)),
                        EvaluationSession())
        result = _run_plan(plan)
        assert len(calls) == 1
        assert result["result"] == _serial_row(plan, path, **decoder)

    def test_chunked_equals_single_chunk(self, tmp_path):
        session = EvaluationSession()
        path = _trace_file(tmp_path, 800)
        wide = plan_job(parse_job_spec(self._payload(path, 4)),
                        session)
        narrow = plan_job(parse_job_spec(self._payload(path, 1)),
                          session)
        whole = wide.assemble({0: wide.run_chunk(0)})
        pieces = narrow.assemble(
            {i: narrow.run_chunk(i)
             for i in range(narrow.chunk_count)})
        assert json.dumps(whole, sort_keys=True) \
            == json.dumps(pieces, sort_keys=True)

    def test_states_survive_json_round_trip(self, tmp_path):
        """Chunk results journal as JSON; replayed chunks must
        assemble bit-identically to fresh ones."""
        session = EvaluationSession()
        plan = plan_job(
            parse_job_spec(self._payload(_trace_file(tmp_path, 600),
                                         2)), session)
        chunks = {i: plan.run_chunk(i)
                  for i in range(plan.chunk_count)}
        wired = {i: json.loads(json.dumps(chunk))
                 for i, chunk in chunks.items()}
        assert plan.assemble(wired) == plan.assemble(chunks)

    def test_assembled_result_matches_library(self, tmp_path):
        from repro.trace import AddressDecoder, evaluate_trace_file

        session = EvaluationSession()
        path = _trace_file(tmp_path)
        plan = plan_job(parse_job_spec(self._payload(path, 2)), session)
        result = _run_plan(plan)
        decoder = AddressDecoder.from_device(plan.device,
                                             channel_bits=1,
                                             rank_bits=1)
        reference = evaluate_trace_file(
            session.model(plan.device), path, decoder=decoder,
            backend="serial")
        assert result["result"]["energy_j"] == reference.energy
        assert result["result"]["duration_s"] == reference.duration
        assert result["result"]["row_hits"] == reference.row_hits
        assert "shards" not in result

    def test_durable_run_produces_result(self, tmp_path):
        path = _trace_file(tmp_path, 400)
        manager = JobManager(str(tmp_path / "jobs"),
                             session=EvaluationSession())
        job_id = manager.submit(self._payload(path, 2))["job"]
        manager.run_pending()
        record = manager.status(job_id)
        assert record["state"] == "done"
        result = json.loads(_result_bytes(tmp_path / "jobs", job_id))
        assert result["result"]["kind"] == "trace"
        assert result["result"]["commands"] > 0

    def test_journal_of_shard_states_fails_and_asks_to_resubmit(
            self, tmp_path, monkeypatch):
        """An older release journaled one exported accumulator state
        per shard chunk; resuming such a job must fail, naming the
        fix, and never assemble a result from the states.  Only chunk
        0 is one of this plan's, so no status counts more chunks done
        than the plan has."""
        statuses = []
        write_status = JobStore.write_status

        def recording(store, job_id, **fields):
            statuses.append(write_status(store, job_id, **fields))
            return statuses[-1]

        monkeypatch.setattr(JobStore, "write_status", recording)
        store = JobStore(tmp_path)
        status, _ = store.submit(
            self._payload(_trace_file(tmp_path, 50), 1))
        job_id = status["job"]
        journal = store.journal(job_id)
        for shard in range(2):  # chunks 0 and 1 of the 4-shard plan
            journal.append_chunk(shard, [{
                "device": "2G-DDR3-1600-x16-55nm",
                "counts": {"act": 3, "pre": 2, "rd": 8, "wr": 4,
                           "ref": 0, "nop": 0},
                "row_hits": 9, "row_conflicts": 0, "commands": 17,
                "last_time": 1.96e-07, "previous": 1.96e-07,
                "banks": {str(8 * shard): [5, False]}}])
        store.write_status(job_id, state="running", pid=99999999)
        _run_all(tmp_path)
        after = store.status(job_id)
        assert after["state"] == "failed"
        assert "resubmit" in after["error"]
        assert after["chunks_done"] == after["chunks_total"] == 1
        assert store.result(job_id) is None
        planned = [s for s in statuses if s.get("chunks_total")]
        assert planned
        assert all(s["chunks_done"] <= s["chunks_total"]
                   for s in planned)


# ----------------------------------------------------------------------
# Store: idempotency, claims, cancel, GC.
# ----------------------------------------------------------------------
class TestStore:
    def test_keyed_submit_is_idempotent(self, tmp_path):
        store = JobStore(tmp_path)
        payload = dict(MC_PAYLOAD, idempotency_key="k")
        first, created = store.submit(payload)
        again, recreated = store.submit(payload)
        assert created and not recreated
        assert first["job"] == again["job"]

    def test_same_key_different_spec_conflicts(self, tmp_path):
        store = JobStore(tmp_path)
        store.submit(dict(MC_PAYLOAD, idempotency_key="k"))
        other = dict(MC_PAYLOAD, chunk_size=5, idempotency_key="k")
        with pytest.raises(ServiceError) as caught:
            store.submit(other)
        assert caught.value.status == 409

    def test_unkeyed_submits_are_distinct(self, tmp_path):
        store = JobStore(tmp_path)
        first, _ = store.submit(MC_PAYLOAD)
        second, _ = store.submit(MC_PAYLOAD)
        assert first["job"] != second["job"]

    def test_claim_is_exclusive(self, tmp_path):
        store = JobStore(tmp_path)
        status, _ = store.submit(MC_PAYLOAD)
        claim = store.claim(status["job"])
        assert claim is not None
        assert store.claim(status["job"]) is None
        claim.release()
        retry = store.claim(status["job"])
        assert retry is not None
        retry.release()

    def test_unknown_job_raises_not_found(self, tmp_path):
        store = JobStore(tmp_path)
        with pytest.raises(JobNotFound):
            store.status("jdoesnotexist0000")

    def test_cancel_pending_finalises_immediately(self, tmp_path):
        store = JobStore(tmp_path)
        status, _ = store.submit(MC_PAYLOAD)
        after = store.request_cancel(status["job"])
        assert after["state"] == "cancelled"

    def test_cancel_running_sets_marker_only(self, tmp_path):
        store = JobStore(tmp_path)
        status, _ = store.submit(MC_PAYLOAD)
        claim = store.claim(status["job"])  # a live runner owns it
        after = store.request_cancel(status["job"])
        assert after["state"] == "pending"
        assert after["cancel_requested"] is True
        claim.release()

    def test_gc_reaps_only_stale_terminal_jobs(self, tmp_path):
        now = [1000.0]
        store = JobStore(tmp_path, clock=lambda: now[0])
        done, _ = store.submit(dict(MC_PAYLOAD, idempotency_key="a"))
        live, _ = store.submit(dict(MC_PAYLOAD, idempotency_key="b"))
        store.write_status(done["job"], state="done")
        now[0] += 10.0
        assert store.gc(ttl=60.0) == 0
        now[0] += 100.0
        assert store.gc(ttl=60.0) == 1
        ids = {status["job"] for status in store.list_jobs()}
        assert ids == {live["job"]}

    def test_runnable_in_creation_order(self, tmp_path):
        """Pending jobs and dead owners' jobs, oldest first; a live
        owner's job is not runnable."""
        now = [1000.0]
        store = JobStore(tmp_path, clock=lambda: now[0])
        ids = []
        for key in "zyxw":  # ids sort unlike creation order
            now[0] += 1.0
            status, _ = store.submit(dict(MC_PAYLOAD,
                                          idempotency_key=key))
            ids.append(status["job"])
        assert sorted(ids) != ids
        store.write_status(ids[1], state="running", pid=99999999)
        store.write_status(ids[2], state="running", pid=os.getpid())
        assert store.runnable_jobs() == [ids[0], ids[1], ids[3]]

    def test_running_with_live_owner_not_runnable(self, tmp_path):
        store = JobStore(tmp_path)
        status, _ = store.submit(MC_PAYLOAD)
        store.write_status(status["job"], state="running",
                           pid=os.getpid())
        assert store.runnable_jobs() == []


# ----------------------------------------------------------------------
# Runner and manager: execution, cancel, resume accounting.
# ----------------------------------------------------------------------
class TestRunner:
    def test_runs_to_done_with_progress(self, tmp_path):
        store = JobStore(tmp_path)
        status, _ = store.submit(MC_PAYLOAD)
        manager = _run_all(tmp_path)
        after = store.status(status["job"])
        assert after["state"] == "done"
        assert after["chunks_done"] == after["chunks_total"] == 4
        assert after["replayed_chunks"] == 0
        assert after["computed_chunks"] == 4
        result = store.result(status["job"])
        assert result["kind"] == "montecarlo"
        assert len(result["rows"]) == 2
        assert manager.jobs_started == 1
        assert manager.jobs_resumed == 0

    def test_bad_spec_params_fail_terminally(self, tmp_path):
        store = JobStore(tmp_path)
        # Passes eager validation but dies planning: bad device.
        status, _ = store.submit(
            {"kind": "sweep",
             "params": {"kind": "trends", "nodes": ["x"]}})
        _run_all(tmp_path)
        after = store.status(status["job"])
        assert after["state"] == "failed"
        assert after["error"]

    @pytest.mark.parametrize("params", [{"backend": "process"},
                                        {"jobs": 2}],
                             ids=["backend-process", "jobs-2"])
    def test_journaled_montecarlo_spec_from_older_release(
            self, tmp_path, params):
        """Specs journaled before the process backend and the ``jobs``
        worker count were removed: ``process`` fails that job alone
        with the unknown-backend error, ``jobs`` is ignored."""
        store = JobStore(tmp_path)
        old, _ = store.submit(MC_PAYLOAD)
        spec_path = store.job_dir(old["job"]) / "spec.json"
        spec = json.loads(spec_path.read_text())
        spec["params"].update(params)
        spec_path.write_text(json.dumps(spec))
        clean, _ = store.submit(dict(MC_PAYLOAD,
                                     idempotency_key="clean"))
        manager = _run_all(tmp_path)
        assert manager.jobs_started == 2
        assert store.status(clean["job"])["state"] == "done"
        after = store.status(old["job"])
        if "backend" in params:
            assert after["state"] == "failed"
            assert "unknown backend 'process'" in after["error"]
        else:
            assert after["state"] == "done"
            assert (store.result(old["job"])
                    == store.result(clean["job"]))

    def test_cancel_marker_stops_at_chunk_boundary(self, tmp_path):
        store = JobStore(tmp_path)
        status, _ = store.submit(MC_PAYLOAD)
        (store.job_dir(status["job"]) / "cancel").touch()
        _run_all(tmp_path)
        after = store.status(status["job"])
        assert after["state"] == "cancelled"
        assert store.result(status["job"]) is None

    def test_resume_never_recomputes_journaled_chunks(self, tmp_path):
        session = EvaluationSession()
        store = JobStore(tmp_path)
        status, _ = store.submit(MC_KEYED)
        job_id = status["job"]
        # First owner computes two chunks, then "crashes" (its pid
        # is recorded dead; the journal holds its checkpoints).
        plan = plan_job(store.load_spec(job_id), session)
        journal = store.journal(job_id)
        journal.append_chunk(0, plan.run_chunk(0))
        journal.append_chunk(1, plan.run_chunk(1))
        store.write_status(job_id, state="running", pid=99999999)
        manager = _run_all(tmp_path)
        after = store.status(job_id)
        assert after["state"] == "done"
        assert after["replayed_chunks"] == 2
        assert after["computed_chunks"] == 2
        assert manager.jobs_resumed == 1
        # Bit-for-bit: the resumed result equals a clean run's.
        clean = JobStore(tmp_path / "clean")
        clean_status, _ = clean.submit(MC_KEYED)
        JobManager(str(tmp_path / "clean"),
                   session=session).run_pending()
        assert _result_bytes(tmp_path, job_id) \
            == _result_bytes(tmp_path / "clean", clean_status["job"])

    def test_job_keeps_only_what_resume_needs(self, tmp_path):
        """A run writes no snapshot, even past the 16 appends after
        which older releases compacted, and its status carries chunk
        counters, not progress aggregates or assignments."""
        store = JobStore(tmp_path)
        status, _ = store.submit(
            {"kind": "montecarlo",
             "params": {"samples": 20, "seed": 2}, "chunk_size": 1})
        _run_all(tmp_path)
        after = store.status(status["job"])
        assert after["state"] == "done"
        assert after["chunks_done"] == after["chunks_total"] == 20
        assert not (store.job_dir(status["job"])
                    / "snapshot.json").exists()
        assert {"partial", "assigned", "orphaned"}.isdisjoint(after)
        assert len(store.journal(status["job"]).replay()) == 20

    def test_older_release_status_keys_drop_out(self, tmp_path):
        """An ``evaluate`` job an older release left running under a
        dead pid, with that release's ``partial``, ``assigned`` and
        ``orphaned`` status keys, resumes to ``done`` without them."""
        store = JobStore(tmp_path)
        status, _ = store.submit(
            {"kind": "evaluate", "chunk_size": 1,
             "params": {"devices": [{"node": 55}, {"node": 65}]}})
        job_id = status["job"]
        older = dict(store.status(job_id), state="running",
                     pid=99999999, chunks_total=2, chunks_done=1,
                     partial={"units_done": 1}, assigned="w0",
                     orphaned=True)
        write_json_atomic(store.job_dir(job_id) / "status.json", older)
        _run_all(tmp_path)
        after = json.loads(
            (store.job_dir(job_id) / "status.json").read_text())
        assert after["state"] == "done"
        assert after["chunks_done"] == after["chunks_total"] == 2
        assert {"partial", "assigned", "orphaned",
                "cancel_requested"}.isdisjoint(after)

    def test_older_release_snapshot_resumes(self, tmp_path):
        """A directory an older release left mid-run after compacting
        (a version-1 snapshot plus a journal tail) replays every
        journaled chunk, computes the rest, writes no snapshot and
        ends with the uninterrupted run's bytes."""
        session = EvaluationSession()
        store = JobStore(tmp_path)
        status, _ = store.submit(MC_KEYED)
        job_id = status["job"]
        plan = plan_job(store.load_spec(job_id), session)
        job_dir = store.job_dir(job_id)
        _write_snapshot(job_dir, {0: plan.run_chunk(0),
                                  1: plan.run_chunk(1)})
        store.journal(job_id).append_chunk(2, plan.run_chunk(2))
        store.write_status(job_id, state="running", pid=99999999)
        snapshot = (job_dir / "snapshot.json").read_bytes()
        _run_all(tmp_path)
        after = store.status(job_id)
        assert after["state"] == "done"
        assert (after["replayed_chunks"], after["computed_chunks"]) \
            == (3, 1)
        assert (job_dir / "snapshot.json").read_bytes() == snapshot
        clean_root, clean_id = _clean_run(tmp_path)
        assert _result_bytes(tmp_path, job_id) \
            == _result_bytes(clean_root, clean_id)

    def test_manager_threaded_lifecycle(self, tmp_path):
        manager = JobManager(str(tmp_path),
                             session=EvaluationSession(),
                             poll_interval=0.02)
        manager.start()
        try:
            status = manager.submit(dict(MC_PAYLOAD))
            assert status["created"] is True
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if manager.status(status["job"])["state"] == "done":
                    break
                time.sleep(0.02)
            assert manager.status(status["job"])["state"] == "done"
            counters = manager.counters()
            assert counters["jobs_started"] == 1
        finally:
            manager.stop()


# ----------------------------------------------------------------------
# SIGKILL crash-resume parity (the tentpole acceptance test).
# ----------------------------------------------------------------------
_CRASH_DRIVER = """
import sys
sys.path.insert(0, {src!r})
from repro.engine import EvaluationSession
from repro.jobs import JobManager
from repro.service.faults import FaultInjector, FaultRule

faults = FaultInjector(rules=[FaultRule(kind={fault_kind!r},
                                        point={fault_point!r},
                                        times=1)])
manager = JobManager({root!r}, session=EvaluationSession(),
                     faults=faults)
manager.store.submit({payload!r})
manager.run_pending()  # SIGKILLs itself at the fault point
print("survived")  # reaching here means the fault never fired
"""


def _crash_run(tmp_path, fault_kind, fault_point, payload=MC_KEYED):
    """Run a job in a subprocess armed to SIGKILL itself."""
    root = str(tmp_path / "crashed")
    script = _CRASH_DRIVER.format(
        src=str(Path(__file__).resolve().parent.parent / "src"),
        fault_kind=fault_kind, fault_point=fault_point,
        root=root, payload=payload)
    process = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True,
                             timeout=120)
    assert process.returncode == -signal.SIGKILL, (
        f"expected SIGKILL, got rc={process.returncode}: "
        f"{process.stdout}{process.stderr}")
    return root


def _clean_run(tmp_path, payload=MC_KEYED):
    root = str(tmp_path / "clean")
    store = JobStore(root)
    status, _ = store.submit(payload)
    _run_all(root)
    return root, status["job"]


@pytest.mark.parametrize("fault_kind,fault_point,survivors", [
    ("job-crash", "mid-chunk", 0),
    ("job-crash", "after-checkpoint", 1),
    ("job-torn-write", "*", 0),
])
def test_sigkill_resume_is_bit_for_bit(tmp_path, fault_kind,
                                       fault_point, survivors):
    """SIGKILL at every fault point; resume must be byte-identical.

    ``survivors`` is the number of durable chunks the crash leaves:
    mid-chunk dies before the journal write (0), after-checkpoint
    dies after it (1), and a torn write fsyncs only half a line,
    which replay must discard (0).
    """
    root = _crash_run(tmp_path, fault_kind, fault_point)
    store = JobStore(root)
    job_id = store.list_jobs()[0]["job"]
    journal = store.journal(job_id)
    assert len(journal.replay()) == survivors
    before = store.status(job_id)
    assert before["state"] == "running"  # crashed mid-flight

    manager = _run_all(root)
    after = store.status(job_id)
    assert after["state"] == "done"
    assert after["replayed_chunks"] == survivors
    assert after["computed_chunks"] == 4 - survivors
    assert manager.jobs_resumed == 1

    clean_root, clean_id = _clean_run(tmp_path)
    assert _result_bytes(root, job_id) \
        == _result_bytes(clean_root, clean_id)


@pytest.mark.parametrize("fault_point,survivors",
                         [("mid-chunk", 0), ("after-checkpoint", 1)])
def test_sigkill_resume_of_a_trace_job_is_bit_for_bit(
        tmp_path, fault_point, survivors):
    """A trace job killed while replaying (nothing journaled) or right
    after journaling its one unit resumes to the same bytes."""
    payload = {"kind": "trace", "chunk_size": 1,
               "idempotency_key": "trace-parity",
               "params": {"device": {"node": 55},
                          "path": _trace_file(tmp_path, 2000),
                          "decoder": {"channel_bits": 2,
                                      "rank_bits": 2}}}
    root = _crash_run(tmp_path, "job-crash", fault_point, payload)
    store = JobStore(root)
    job_id = store.list_jobs()[0]["job"]
    assert len(store.journal(job_id).replay()) == survivors
    assert store.status(job_id)["state"] == "running"

    _run_all(root)
    after = store.status(job_id)
    assert after["state"] == "done"
    assert (after["replayed_chunks"], after["computed_chunks"]) \
        == (survivors, 1 - survivors)
    clean_root, clean_id = _clean_run(tmp_path, payload)
    assert _result_bytes(root, job_id) \
        == _result_bytes(clean_root, clean_id)


def test_double_crash_then_resume(tmp_path):
    """Two consecutive crashes still converge to the exact result."""
    root = str(tmp_path / "crashed")
    src = str(Path(__file__).resolve().parent.parent / "src")
    for _ in range(2):
        script = _CRASH_DRIVER.format(
            src=src, fault_kind="job-crash",
            fault_point="after-checkpoint", root=root,
            payload=MC_KEYED)
        process = subprocess.run([sys.executable, "-c", script],
                                 capture_output=True, text=True,
                                 timeout=120)
        assert process.returncode == -signal.SIGKILL
    store = JobStore(root)
    job_id = store.list_jobs()[0]["job"]
    assert len(store.journal(job_id).replay()) == 2
    _run_all(root)
    assert store.status(job_id)["replayed_chunks"] == 2
    clean_root, clean_id = _clean_run(tmp_path)
    assert _result_bytes(root, job_id) \
        == _result_bytes(clean_root, clean_id)


def test_job_fault_rules_do_not_leak_into_requests():
    """Job-level rules never fire on the per-request path."""
    faults = FaultInjector(rules=[
        FaultRule(kind="job-crash", point="mid-chunk")])
    assert faults.before_request("/evaluate") is None
    assert faults.job_crash("mid-chunk") is True
    assert faults.job_crash("mid-chunk") is True  # times=-1
    assert faults.snapshot()["job-crash"] == 2
