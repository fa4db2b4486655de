"""The columnar vectorized kernel (``repro.engine.vector``).

Three concerns, in the order the ISSUE states them:

* **parity** — vector-folded models agree with the scalar oracle to
  1e-9 relative (measured: ~1e-15, float summation order only) across
  the datasheet corpus, for voltage, technology and mixed Monte-Carlo
  style families, under both the explicit ``backend="vector"`` and the
  ``"auto"`` routing;
* **fallback** — ineligible structures (singletons, mixed floorplans)
  take the scalar path and are counted, and a process without numpy
  degrades whole batches to scalar with the one-time
  ``vector_downgrades`` marker;
* **policy** — grouping, eligibility and the counters the engine
  stats report (the ``auto`` rule itself is tabled in
  ``test_auto_backend.py``).
"""

import importlib.util
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.montecarlo import monte_carlo
from repro.analysis.sensitivity import sensitivity
from repro.devices import build_device
from repro.engine import (MIN_BATCH, VECTOR, EvaluationSession,
                          build_family_models, numpy_available,
                          plan_batches, resolve_backend)
from repro.engine.cache import EngineStats

needs_numpy = pytest.mark.skipif(not numpy_available(),
                                 reason="numpy not installed")

TOLERANCE = 1e-9


def _power(model):
    return model.pattern_power().power


def _voltage_family(device, points=12):
    return [device.scale_path("voltages.vint", 1.0 + 0.003 * step)
            for step in range(points)]


def _technology_family(device, points=12):
    return [device.scale_path("technology.c_bitline",
                              1.0 + 0.004 * step)
            for step in range(points)]


def _mixed_family(device, points=12):
    # Monte-Carlo shape: voltage and capacitance move together.
    return [device.scale_path("voltages.vbl", 1.0 + 0.002 * step)
            .scale_path("technology.c_cell", 1.0 + 0.003 * step)
            for step in range(points)]


def _assert_parity(vector_values, serial_values):
    assert len(vector_values) == len(serial_values)
    for folded, oracle in zip(vector_values, serial_values):
        assert folded == pytest.approx(oracle, rel=TOLERANCE)


# ----------------------------------------------------------------------
# Parity against the scalar oracle.
# ----------------------------------------------------------------------
@needs_numpy
@pytest.mark.parametrize("family", [_voltage_family,
                                    _technology_family,
                                    _mixed_family])
def test_parity_across_datasheet_corpus(all_devices, family):
    for device in all_devices:
        devices = family(device)
        folded = EvaluationSession().map(devices, _power,
                                         backend="vector")
        oracle = EvaluationSession().map(devices, _power,
                                         backend="serial")
        _assert_parity(folded, oracle)


@needs_numpy
def test_vector_models_are_fully_usable(ddr3_device):
    devices = _voltage_family(ddr3_device)
    session = EvaluationSession()
    models = build_family_models(devices, session.cache)
    scalar = EvaluationSession()
    for device, model in zip(devices, models):
        oracle = scalar.model(device)
        # Folded energies, lazily-resolved events, geometry binding.
        assert model.pattern_power().power == pytest.approx(
            oracle.pattern_power().power, rel=TOLERANCE)
        assert len(model.events) == len(oracle.events)
        assert model.geometry.device is device
        for left, right in zip(model.events, oracle.events):
            assert left.swing == pytest.approx(right.swing,
                                               rel=TOLERANCE)
            assert left.capacitance == right.capacitance


@needs_numpy
def test_auto_routes_wide_families_through_vector(ddr3_device):
    devices = _voltage_family(ddr3_device, points=16)
    session = EvaluationSession()
    auto = session.map(devices, _power, backend="auto")
    stats = session.stats
    assert stats.vector_batches >= 1
    assert stats.vector_builds == len(devices)
    assert stats.vector_fallbacks == 0
    assert stats.vector_downgrades == 0
    oracle = EvaluationSession().map(devices, _power, backend="serial")
    _assert_parity(auto, oracle)


@needs_numpy
def test_sensitivity_auto_matches_serial(ddr3_device):
    session = EvaluationSession()
    auto = sensitivity(ddr3_device, variation=0.1, backend="auto",
                       session=session)
    serial = sensitivity(ddr3_device, variation=0.1, backend="serial",
                         session=EvaluationSession())
    assert session.stats.vector_builds > 0
    assert [row.name for row in auto] == [row.name for row in serial]
    for left, right in zip(auto, serial):
        assert left.impact == pytest.approx(right.impact,
                                            rel=TOLERANCE)


@needs_numpy
def test_monte_carlo_vector_matches_serial(ddr3_device):
    folded = monte_carlo(ddr3_device, samples=16, backend="vector",
                         session=EvaluationSession())
    oracle = monte_carlo(ddr3_device, samples=16, backend="serial",
                         session=EvaluationSession())
    for left, right in zip(folded, oracle):
        assert left.mean == pytest.approx(right.mean, rel=TOLERANCE)
        assert left.maximum == pytest.approx(right.maximum,
                                             rel=TOLERANCE)


@needs_numpy
@settings(max_examples=10, deadline=None)
@given(factor=st.floats(min_value=0.85, max_value=1.1,
                        allow_nan=False, allow_infinity=False),
       path=st.sampled_from(["voltages.vint", "voltages.vbl",
                             "voltages.vpp", "technology.c_bitline",
                             "technology.c_cell",
                             "technology.c_wire_signal"]))
def test_parity_property(factor, path):
    device = build_device(55)
    if path == "voltages.vint" and factor > 1.0:
        # vint has only ~8 % headroom below vdd; mirror upward
        # perturbations downward to stay inside the description
        # invariant while keeping the same magnitude.
        factor = 2.0 - factor
    steps = [1.0 + (factor - 1.0) * k / 8.0 for k in range(9)]
    devices = [device.scale_path(path, step) for step in steps]
    folded = EvaluationSession().map(devices, _power,
                                     backend="vector")
    oracle = EvaluationSession().map(devices, _power,
                                     backend="serial")
    _assert_parity(folded, oracle)


# ----------------------------------------------------------------------
# Caching semantics.
# ----------------------------------------------------------------------
@needs_numpy
def test_vector_models_enter_the_lru(ddr3_device):
    devices = _voltage_family(ddr3_device)
    session = EvaluationSession()
    session.map(devices, _power, backend="vector")
    first = session.stats
    assert first.vector_builds == len(devices)
    assert first.lookups == first.vector_builds
    # The refold finds every model in the LRU: all hits, no new folds.
    session.map(devices, _power, backend="vector")
    second = session.stats
    assert second.hits == first.hits + len(devices)
    assert second.vector_builds == first.vector_builds


@needs_numpy
def test_partially_warm_batch_folds_the_remainder(ddr3_device):
    devices = _voltage_family(ddr3_device, points=10)
    session = EvaluationSession()
    session.map(devices[:4], _power, backend="vector")
    session.map(devices, _power, backend="vector")
    stats = session.stats
    assert stats.hits == 4
    assert stats.vector_builds == len(devices)


# ----------------------------------------------------------------------
# Fallback accounting.
# ----------------------------------------------------------------------
@needs_numpy
def test_singletons_fall_back_to_scalar(ddr3_device, ddr5_device):
    # Two one-device "families": no subgroup reaches two members.
    session = EvaluationSession()
    results = session.map([ddr3_device, ddr5_device], _power,
                          backend="vector")
    stats = session.stats
    assert stats.vector_fallbacks == 2
    assert stats.vector_builds == 0
    oracle = EvaluationSession().map([ddr3_device, ddr5_device],
                                     _power, backend="serial")
    assert results == oracle


@needs_numpy
def test_mixed_batch_folds_families_and_spills_the_rest(
        ddr3_device, ddr5_device):
    devices = _voltage_family(ddr3_device) + [ddr5_device]
    session = EvaluationSession()
    results = session.map(devices, _power, backend="vector")
    stats = session.stats
    assert stats.vector_builds == len(devices) - 1
    assert stats.vector_fallbacks == 1
    oracle = EvaluationSession().map(devices, _power,
                                     backend="serial")
    _assert_parity(results, oracle)


# ----------------------------------------------------------------------
# numpy-absent degradation.
# ----------------------------------------------------------------------
def _vector_module_without_numpy(monkeypatch):
    """Re-execute repro.engine.vector with numpy import-blocked."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    spec = importlib.util.find_spec("repro.engine.vector")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_import_survives_numpy_absence(monkeypatch):
    module = _vector_module_without_numpy(monkeypatch)
    assert module._np is None
    assert module.numpy_available() is False


def test_no_numpy_batch_degrades_with_marker(monkeypatch, ddr3_device):
    module = _vector_module_without_numpy(monkeypatch)
    devices = _voltage_family(ddr3_device)
    session = EvaluationSession()
    models = module.build_family_models(devices, session.cache)
    stats = session.stats
    assert stats.vector_downgrades == 1
    assert stats.vector_builds == 0
    assert stats.misses == len(devices)
    oracle = EvaluationSession()
    for device, model in zip(devices, models):
        assert model.pattern_power().power == \
            oracle.model(device).pattern_power().power


def test_no_numpy_marker_reports_once(monkeypatch, ddr3_device):
    module = _vector_module_without_numpy(monkeypatch)
    session = EvaluationSession()
    for _ in range(3):
        module.build_family_models([ddr3_device], session.cache)
    assert session.stats.vector_downgrades == 1


def test_session_degrades_without_numpy(monkeypatch, ddr3_device):
    # The live session module: blind the kernel, keep everything else.
    monkeypatch.setattr("repro.engine.vector._np", None)
    devices = _voltage_family(ddr3_device)
    session = EvaluationSession()
    folded = session.map(devices, _power, backend="vector")
    assert session.stats.vector_downgrades == 1
    auto = session.map(devices, _power, backend="auto")
    assert session.stats.vector_batches == 0
    oracle = EvaluationSession().map(devices, _power,
                                     backend="serial")
    assert folded == oracle
    assert auto == oracle


# ----------------------------------------------------------------------
# Planning and grouping.
# ----------------------------------------------------------------------
def test_plan_groups_by_shared_floorplan(ddr3_device, ddr5_device):
    family = _voltage_family(ddr3_device, points=MIN_BATCH)
    plan = plan_batches(family + [ddr5_device])
    assert len(plan.groups) == 2
    sizes = sorted(len(members) for members in plan.groups.values())
    assert sizes == [1, MIN_BATCH]
    assert plan.eligible


def test_plan_below_batch_floor_is_ineligible(ddr3_device):
    plan = plan_batches(_voltage_family(ddr3_device,
                                        points=MIN_BATCH - 1))
    assert not plan.eligible
    assert plan_batches(_voltage_family(ddr3_device,
                                        points=MIN_BATCH)).eligible


def test_plan_keys_align_with_devices(ddr3_device):
    devices = _technology_family(ddr3_device, points=4)
    plan = plan_batches(devices)
    assert len(plan.geometry_keys) == len(devices)
    assert len(plan.capacitance_keys) == len(devices)
    # One floorplan, four perturbed technologies.
    assert len(set(plan.geometry_keys)) == 1
    assert len(set(plan.capacitance_keys)) == 4


# ----------------------------------------------------------------------
# Backend names.
# ----------------------------------------------------------------------
def test_resolve_backend_passes_vector_through():
    assert resolve_backend(VECTOR) == VECTOR
    with pytest.raises(Exception, match="vector"):
        resolve_backend("cluster")


# ----------------------------------------------------------------------
# Stats plumbing.
# ----------------------------------------------------------------------
def test_stats_string_reports_vector_segment():
    stats = EngineStats(hits=0, misses=0, evictions=0, size=0,
                        capacity=8, build_seconds=0.0,
                        vector_batches=2, vector_builds=64,
                        vector_fallbacks=1, vector_seconds=0.5)
    text = str(stats)
    assert "vector[batches=2 builds=64 fallbacks=1" in text


@needs_numpy
def test_vector_builds_count_as_lookups_not_misses(ddr3_device):
    devices = _voltage_family(ddr3_device)
    session = EvaluationSession()
    session.map(devices, _power, backend="vector")
    stats = session.stats
    assert stats.misses == 0
    assert stats.lookups == stats.vector_builds
    # ``build_seconds`` counts scalar cold builds only; folds are
    # timed in ``vector_seconds``.
    assert stats.build_seconds == 0.0
