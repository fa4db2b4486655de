"""Adaptive backend selection (``backend="auto"``) and its policy."""

import pytest

from repro.cli import build_parser
from repro.devices import build_device
from repro.engine import (AUTO, EvaluationSession, choose_backend,
                          estimate_build_seconds)
from repro.engine.cache import EngineStats
from repro.engine.executor import (DEFAULT_BUILD_SECONDS,
                                   WORKER_STARTUP_SECONDS,
                                   is_picklable, resolve_backend)
from repro.errors import ModelError
from repro.schemes import compare_schemes


def _stats(misses=0, build_seconds=0.0):
    return EngineStats(hits=0, misses=misses, evictions=0, size=0,
                       capacity=8, build_seconds=build_seconds)


def _power(model):
    return model.pattern_power().power


class TestChooseBackendPolicy:
    """The policy table the ISSUE asks for, case by case."""

    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_tiny_sweeps_stay_serial(self, width):
        # Even with many workers and a huge build cost.
        assert choose_backend(width, jobs=16,
                              build_seconds=10.0) == "serial"

    def test_single_worker_stays_serial(self):
        assert choose_backend(400, jobs=1,
                              build_seconds=10.0) == "serial"

    def test_wide_sweep_with_workers_goes_process(self):
        # serial = 400 * 5 ms = 2.0 s; pooled = 4 * 0.1 + 0.5 = 0.9 s.
        assert choose_backend(400, jobs=4,
                              build_seconds=0.005) == "process"

    def test_narrow_sweep_stays_serial_despite_workers(self):
        # serial = 4 * 5 ms = 20 ms; pool startup alone is 400 ms.
        assert choose_backend(4, jobs=4,
                              build_seconds=0.005) == "serial"

    def test_expensive_builds_tip_narrow_sweeps_to_process(self):
        # serial = 3 * 0.5 = 1.5 s; pooled = 2 * 0.1 + 0.75 = 0.95 s.
        assert choose_backend(3, jobs=2,
                              build_seconds=0.5) == "process"

    def test_workers_capped_at_width(self):
        # 16 requested workers only cost 3 startups for 3 devices:
        # serial = 3.0 s; pooled = 3 * 0.1 + 1.0 = 1.3 s.
        assert choose_backend(3, jobs=16,
                              build_seconds=1.0) == "process"

    def test_breakeven_prefers_serial(self):
        # pooled == serial exactly: width * b = w * S + width * b / w
        # with width=4, jobs=2 -> 4b = 0.2 + 2b -> b = 0.1.
        assert 4 * 0.1 == pytest.approx(
            2 * WORKER_STARTUP_SECONDS + 4 * 0.1 / 2)
        assert choose_backend(4, jobs=2, build_seconds=0.1) == "serial"

    @pytest.mark.parametrize("bad", [None, 0.0, -1.0])
    def test_unknown_build_cost_uses_default(self, bad):
        expected = choose_backend(400, jobs=4,
                                  build_seconds=DEFAULT_BUILD_SECONDS)
        assert choose_backend(400, jobs=4,
                              build_seconds=bad) == expected

    def test_never_chooses_thread(self):
        for width in (1, 3, 10, 1000):
            for jobs in (1, 2, 8):
                assert choose_backend(width, jobs, 0.05) != "thread"


class TestEstimateBuildSeconds:
    def test_no_stats_uses_default(self):
        assert estimate_build_seconds(None) == DEFAULT_BUILD_SECONDS

    def test_no_cold_builds_uses_default(self):
        stats = _stats(misses=0, build_seconds=0.0)
        assert estimate_build_seconds(stats) == DEFAULT_BUILD_SECONDS

    def test_observed_cost_is_per_miss(self):
        stats = _stats(misses=4, build_seconds=0.2)
        assert estimate_build_seconds(stats) == pytest.approx(0.05)

    def test_zero_measured_time_falls_back(self):
        stats = _stats(misses=3, build_seconds=0.0)
        assert estimate_build_seconds(stats) == DEFAULT_BUILD_SECONDS


class TestResolveBackend:
    def test_auto_passes_through_unresolved(self):
        assert resolve_backend(AUTO, None) == AUTO
        assert resolve_backend(AUTO, 4) == AUTO

    def test_none_keeps_historical_defaults(self):
        assert resolve_backend(None, None) == "serial"
        assert resolve_backend(None, 1) == "serial"
        assert resolve_backend(None, 2) == "serial"

    def test_unknown_backend_names_the_choices(self):
        for unknown in ("cluster", "thread"):
            with pytest.raises(ModelError) as failure:
                resolve_backend(unknown, None)
            for name in ("serial", "process", "auto", "vector"):
                assert name in str(failure.value)

    # "thread" is no longer a backend; jobs are still checked first.
    @pytest.mark.parametrize("backend",
                             ["serial", "thread", "process", AUTO,
                              None])
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_nonpositive_jobs_rejected_for_every_backend(
            self, backend, jobs):
        # The centralized validation point: before the fix only the
        # process pool checked, so serial accepted jobs=0.
        with pytest.raises(ModelError, match="positive worker count"):
            resolve_backend(backend, jobs)

    @pytest.mark.parametrize("backend",
                             ["serial", "thread", "process", AUTO])
    def test_session_map_rejects_zero_jobs(self, backend):
        session = EvaluationSession()
        with pytest.raises(ModelError, match="positive worker count"):
            session.map([build_device(55)], _power,
                        jobs=0, backend=backend)


class TestSessionAutoBackend:
    def test_auto_matches_serial_bit_for_bit(self):
        devices = [build_device(node) for node in (170, 90, 55)]
        session = EvaluationSession()
        serial = session.map(devices, _power, backend="serial")
        auto = session.map(devices, _power, backend=AUTO)
        assert auto == serial

    def test_auto_process_path(self, monkeypatch):
        # Force the policy to pick the pool and prove the call still
        # produces serial-identical results through it.
        monkeypatch.setattr("repro.engine.session.choose_backend",
                            lambda *args, **kwargs: "process")
        devices = [build_device(node) for node in (170, 90, 55)]
        session = EvaluationSession()
        serial = session.map(devices, _power, backend="serial")
        auto = session.map(devices, _power, backend=AUTO, jobs=2)
        assert auto == serial

    def test_auto_downgrades_unpicklable_to_serial(self, monkeypatch):
        monkeypatch.setattr("repro.engine.session.choose_backend",
                            lambda *args, **kwargs: "process")
        devices = [build_device(node) for node in (170, 90, 55)]
        session = EvaluationSession()
        results = session.map(devices,
                              lambda model: model.pattern_power().power,
                              backend=AUTO, jobs=2)
        assert results == session.map(devices, _power,
                                      backend="serial")

    def test_explicit_process_still_rejects_unpicklable(self):
        session = EvaluationSession()
        with pytest.raises(ModelError, match="picklable"):
            session.map([build_device(55)] * 3,
                        lambda model: model.pattern_power().power,
                        backend="process", jobs=2)

    def test_is_picklable_distinguishes(self):
        assert is_picklable(_power)
        assert not is_picklable(lambda model: model)


class TestAutoInFrontEnds:
    @pytest.mark.parametrize("command", ["sensitivity", "corners",
                                         "trends", "schemes"])
    def test_cli_sweeps_default_to_auto(self, command):
        args = build_parser().parse_args([command])
        assert args.backend == "auto"

    def test_cli_accepts_explicit_auto(self):
        args = build_parser().parse_args(
            ["sensitivity", "--backend", "auto"])
        assert args.backend == "auto"

    def test_compare_schemes_accepts_auto(self, ddr3_device):
        explicit = compare_schemes(ddr3_device, backend="serial")
        auto = compare_schemes(ddr3_device, backend=AUTO)
        assert [result.scheme for result in auto] == \
            [result.scheme for result in explicit]
        assert [result.power_saving for result in auto] == \
            [result.power_saving for result in explicit]
