"""Process-parallel execution backend: sharding, determinism, errors."""

import functools

import pytest

from repro.analysis.corners import corner_sweep
from repro.analysis.montecarlo import monte_carlo
from repro.analysis.sensitivity import sensitivity
from repro.analysis.trends import generation_trend
from repro.core.idd import idd7_mixed
from repro.engine import EvaluationSession, resolve_backend
from repro.engine.cache import EngineStats
from repro.engine.cache import merge_stats
from repro.engine.executor import default_jobs, shard
from repro.errors import ModelError
from repro.schemes import compare_schemes
from repro.service.faults import power_kill_always, power_kill_once


def _power(model):
    """Module-level evaluation callable (picklable for the pool)."""
    return idd7_mixed(model).power


def _explode(model):
    """Module-level callable that always fails."""
    raise ValueError("intentional failure")


def _variants(device, count=6):
    return [device.scale_path("technology.c_bitline", 1.0 + 0.01 * step)
            for step in range(count)]


class TestSharding:
    def test_contiguous_cover_in_order(self):
        ranges = shard(10, 3)
        assert ranges == [(0, 4), (4, 7), (7, 10)]

    def test_more_chunks_than_items(self):
        assert shard(2, 8) == [(0, 1), (1, 2)]

    def test_empty_input(self):
        assert shard(0, 4) == []

    def test_single_chunk(self):
        assert shard(5, 1) == [(0, 5)]

    def test_balanced_within_one(self):
        sizes = [stop - start for start, stop in shard(17, 4)]
        assert sum(sizes) == 17
        assert max(sizes) - min(sizes) <= 1

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1


class TestBackendResolution:
    def test_default_is_serial(self):
        assert resolve_backend(None, None) == "serial"
        assert resolve_backend(None, 1) == "serial"

    def test_jobs_alone_stays_serial(self, ddr3_device):
        assert resolve_backend(None, 4) == "serial"
        devices = _variants(ddr3_device)
        serial = EvaluationSession().map(devices, _power)
        session = EvaluationSession()
        assert session.map(devices, _power, jobs=2) == serial
        # Built in this process: no pool was involved.
        assert session.stats.size == len(devices)

    def test_explicit_backends_pass_through(self):
        for name in ("serial", "process"):
            assert resolve_backend(name, 2) == name

    def test_unknown_backend_rejected(self):
        for name in ("gpu", "thread"):
            with pytest.raises(ModelError):
                resolve_backend(name, 2)

    def test_map_rejects_unknown_backend(self, ddr3_device):
        for name in ("gpu", "thread"):
            with pytest.raises(ModelError):
                EvaluationSession().map([ddr3_device], _power,
                                        backend=name)


class TestProcessBackend:
    def test_map_matches_serial_bit_for_bit(self, ddr3_device):
        devices = _variants(ddr3_device)
        serial = EvaluationSession().map(devices, _power)
        pooled = EvaluationSession().map(devices, _power, jobs=2,
                                         backend="process")
        assert pooled == serial

    def test_worker_stats_merge_into_parent(self, ddr3_device):
        devices = _variants(ddr3_device)
        session = EvaluationSession()
        session.map(devices, _power, jobs=2, backend="process")
        stats = session.stats
        # One worker miss per device; the parent builds nothing.
        assert stats.misses == len(devices)
        assert stats.build_seconds > 0.0

    def test_unpicklable_callable_rejected(self, ddr3_device):
        devices = _variants(ddr3_device)
        with pytest.raises(ModelError, match="picklable"):
            EvaluationSession().map(devices,
                                    lambda model: model.device.name,
                                    jobs=2, backend="process")

    def test_worker_error_names_device(self, ddr3_device):
        devices = _variants(ddr3_device)
        with pytest.raises(ModelError) as failure:
            EvaluationSession().map(devices, _explode, jobs=2,
                                    backend="process")
        message = str(failure.value)
        assert "device" in message
        assert "fingerprint" in message
        assert "intentional failure" in message

    def test_single_device_degrades_to_serial(self, ddr3_device):
        result = EvaluationSession().map([ddr3_device], _power,
                                         jobs=4, backend="process")
        assert result == [_power(EvaluationSession().model(
            ddr3_device))]


class TestSerialAndThreadErrorReporting:
    def test_serial_fn_error_names_index_and_fingerprint(
            self, ddr3_device):
        devices = _variants(ddr3_device, count=3)
        with pytest.raises(ModelError) as failure:
            EvaluationSession().map(devices, _explode)
        message = str(failure.value)
        assert "device 0" in message
        assert "fingerprint" in message
        assert failure.value.__cause__ is not None


class TestSweepDeterminism:
    """Process backend == serial bit-for-bit on every hot sweep path."""

    def test_montecarlo(self, ddr3_device):
        serial = monte_carlo(ddr3_device, samples=12, seed=7)
        pooled = monte_carlo(ddr3_device, samples=12, seed=7,
                             jobs=2, backend="process")
        assert [d.samples for d in pooled] == \
            [d.samples for d in serial]

    def test_sensitivity(self, ddr3_device):
        serial = sensitivity(ddr3_device)
        pooled = sensitivity(ddr3_device, jobs=2, backend="process")
        assert [(r.name, r.power_low, r.power_high) for r in pooled] \
            == [(r.name, r.power_low, r.power_high) for r in serial]

    def test_corners(self, ddr3_device):
        serial = corner_sweep(ddr3_device)
        pooled = corner_sweep(ddr3_device, jobs=2, backend="process")
        assert [b.values_ma for b in pooled] == \
            [b.values_ma for b in serial]

    def test_trends(self):
        serial = generation_trend(node_list=[170, 90, 55])
        pooled = generation_trend(node_list=[170, 90, 55], jobs=2,
                                  backend="process")
        assert pooled == serial

    def test_schemes(self, ddr3_device):
        serial = compare_schemes(ddr3_device)
        pooled = compare_schemes(ddr3_device, jobs=2,
                                 backend="process")
        assert [(r.scheme, r.modified.power) for r in pooled] == \
            [(r.scheme, r.modified.power) for r in serial]


class TestWorkerStatsMerge:
    def test_size_merges_as_max_not_sum(self):
        # size is an occupancy gauge: two workers each holding a few
        # models do not jointly hold the sum from any single cache's
        # point of view.  The pre-fix merge summed it.
        left = EngineStats(hits=2, misses=3, evictions=1, size=3,
                           capacity=8, build_seconds=0.25,
                           disk_hits=1, disk_misses=2, disk_writes=2)
        right = EngineStats(hits=1, misses=5, evictions=0, size=5,
                            capacity=8, build_seconds=0.5,
                            disk_misses=5, disk_writes=5,
                            disk_corrupt=1)
        merged = merge_stats(left, right)
        assert merged.size == 5

    def test_counters_still_sum(self):
        left = EngineStats(hits=2, misses=3, evictions=1, size=3,
                           capacity=8, build_seconds=0.25,
                           disk_hits=1, disk_misses=2, disk_writes=2)
        right = EngineStats(hits=1, misses=5, evictions=0, size=5,
                            capacity=8, build_seconds=0.5,
                            disk_misses=5, disk_writes=5,
                            disk_corrupt=1)
        merged = merge_stats(left, right)
        assert merged.hits == 3
        assert merged.misses == 8
        assert merged.evictions == 1
        assert merged.capacity == 8
        assert merged.build_seconds == pytest.approx(0.75)
        assert merged.disk_hits == 1
        assert merged.disk_misses == 7
        assert merged.disk_writes == 7
        assert merged.disk_corrupt == 1

    def test_pooled_size_is_parent_occupancy(self, ddr3_device):
        # End to end: models were built in the workers, so absorbing
        # their counters must not inflate the parent's occupancy
        # gauge — it stays the parent cache's own (empty) count while
        # the build counters reflect the whole sweep.
        devices = _variants(ddr3_device)
        session = EvaluationSession()
        session.map(devices, _power, jobs=2, backend="process")
        assert session.stats.size == 0
        assert session.stats.misses == len(devices)


class TestWorkerLoss:
    """A killed pool worker must not abort the sweep.

    The kill callables (:mod:`repro.service.faults`) SIGKILL their own
    *worker* when an arming file exists and are no-ops in the parent,
    so the serial baseline evaluates the same devices normally.
    """

    def test_killed_worker_retries_and_matches_serial(
            self, ddr3_device, tmp_path):
        devices = _variants(ddr3_device)
        flag = tmp_path / "kill-once"
        fn = functools.partial(power_kill_once, str(flag))
        serial = EvaluationSession().map(devices, fn)
        flag.write_text("armed")
        session = EvaluationSession()
        pooled = session.map(devices, fn, jobs=2, backend="process")
        # Bit-for-bit identical despite one worker dying mid-sweep.
        assert pooled == serial
        assert session.stats.pool_retries >= 1
        assert session.stats.serial_fallbacks == 0
        assert not flag.exists()  # consumed by exactly one worker

    def test_repeated_kills_degrade_to_serial_fallback(
            self, ddr3_device, tmp_path):
        devices = _variants(ddr3_device)
        flag = tmp_path / "kill-always"
        fn = functools.partial(power_kill_always, str(flag))
        serial = EvaluationSession().map(devices, fn)
        flag.write_text("armed")
        session = EvaluationSession()
        pooled = session.map(devices, fn, jobs=2, backend="process")
        # Both pool attempts die, so the lost chunks are finished
        # in-parent — still bit-for-bit identical.
        assert pooled == serial
        assert session.stats.serial_fallbacks >= 1

    def test_unarmed_kill_callable_is_plain_evaluation(
            self, ddr3_device, tmp_path):
        devices = _variants(ddr3_device, count=4)
        fn = functools.partial(power_kill_once,
                               str(tmp_path / "never-armed"))
        session = EvaluationSession()
        pooled = session.map(devices, fn, jobs=2, backend="process")
        assert pooled == EvaluationSession().map(devices, fn)
        assert session.stats.pool_retries == 0
        assert session.stats.serial_fallbacks == 0
