"""Sweep backend validation, error reporting and the stats merge."""

import pytest

from repro.core.idd import idd7_mixed
from repro.engine import EvaluationSession, resolve_backend
from repro.engine.cache import EngineStats
from repro.engine.cache import merge_stats
from repro.errors import ModelError


def _power(model):
    """Module-level evaluation callable."""
    return idd7_mixed(model).power


def _explode(model):
    """Module-level callable that always fails."""
    raise ValueError("intentional failure")


def _variants(device, count=6):
    return [device.scale_path("technology.c_bitline", 1.0 + 0.01 * step)
            for step in range(count)]


class TestBackendResolution:
    def test_default_is_serial(self):
        assert resolve_backend(None) == "serial"

    def test_explicit_backends_pass_through(self):
        for name in ("serial", "auto", "vector"):
            assert resolve_backend(name) == name

    def test_unknown_backend_rejected(self):
        for name in ("gpu", "thread", "process"):
            with pytest.raises(ModelError):
                resolve_backend(name)

    def test_map_rejects_unknown_backend(self, ddr3_device):
        for name in ("gpu", "thread", "process"):
            with pytest.raises(ModelError):
                EvaluationSession().map([ddr3_device], _power,
                                        backend=name)


class TestErrorReporting:
    def test_serial_fn_error_names_index_and_fingerprint(
            self, ddr3_device):
        devices = _variants(ddr3_device, count=3)
        with pytest.raises(ModelError) as failure:
            EvaluationSession().map(devices, _explode)
        message = str(failure.value)
        assert "device 0" in message
        assert "fingerprint" in message
        assert failure.value.__cause__ is not None


class TestWorkerStatsMerge:
    def test_size_merges_as_max_not_sum(self):
        # size is an occupancy gauge: two workers each holding a few
        # models do not jointly hold the sum from any single cache's
        # point of view.  The pre-fix merge summed it.
        left = EngineStats(hits=2, misses=3, evictions=1, size=3,
                           capacity=8, build_seconds=0.25,
                           vector_batches=1, vector_builds=8)
        right = EngineStats(hits=1, misses=5, evictions=0, size=5,
                            capacity=8, build_seconds=0.5,
                            vector_fallbacks=2, vector_downgrades=1)
        merged = merge_stats(left, right)
        assert merged.size == 5

    def test_counters_still_sum(self):
        left = EngineStats(hits=2, misses=3, evictions=1, size=3,
                           capacity=8, build_seconds=0.25,
                           vector_batches=1, vector_builds=8,
                           vector_seconds=0.125)
        right = EngineStats(hits=1, misses=5, evictions=0, size=5,
                            capacity=8, build_seconds=0.5,
                            vector_batches=2, vector_builds=16,
                            vector_fallbacks=2, vector_downgrades=1,
                            vector_seconds=0.25)
        merged = merge_stats(left, right)
        assert merged.hits == 3
        assert merged.misses == 8
        assert merged.evictions == 1
        assert merged.capacity == 8
        assert merged.build_seconds == pytest.approx(0.75)
        assert merged.vector_batches == 3
        assert merged.vector_builds == 24
        assert merged.vector_fallbacks == 2
        assert merged.vector_downgrades == 1
        assert merged.vector_seconds == pytest.approx(0.375)
