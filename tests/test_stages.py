"""Incremental stage-level model construction: keys, reuse, parity."""

import pytest

from repro.core import DramPowerModel
from repro.core.idd import idd7_mixed
from repro.description import Command
from repro.engine import (EvaluationSession, StageCache, Variant,
                          build_model, dirty_stages, stage_keys)
from repro.engine.stages import (FIELD_STAGES, STAGE_INPUTS, STAGE_ORDER,
                                 seed_stage_cache, stage_payload)


def _power(model):
    """Module-level evaluation callable (picklable for the pool)."""
    return idd7_mixed(model).power


def _assert_models_identical(left, right):
    """Bit-for-bit equality across every model output surface."""
    assert left.events == right.events
    assert left.geometry.die_area == right.geometry.die_area
    for command in Command:
        assert (left.operation_breakdown(command).values
                == right.operation_breakdown(command).values)
    assert (left.background_breakdown.values
            == right.background_breakdown.values)
    lp, rp = left.pattern_power(), right.pattern_power()
    assert lp.power == rp.power
    assert lp.current == rp.current
    assert lp.breakdown.values == rp.breakdown.values
    assert dict(lp.operation_power) == dict(rp.operation_power)


class TestStageMap:
    def test_order_matches_inputs(self):
        assert set(STAGE_INPUTS) == set(STAGE_ORDER)

    def test_every_input_is_a_description_field(self, ddr3_device):
        for fields in STAGE_INPUTS.values():
            for name in fields:
                assert hasattr(ddr3_device, name), name

    def test_field_stages_inverts_inputs(self):
        for field, stages in FIELD_STAGES.items():
            for stage in stages:
                assert field in STAGE_INPUTS[stage]


class TestStageKeys:
    def test_equal_devices_equal_keys(self, ddr3_device):
        clone = ddr3_device.scale_path("voltages.vdd", 1.0)
        assert stage_keys(ddr3_device) == stage_keys(clone)

    def test_voltage_change_preserves_upstream_keys(self, ddr3_device):
        base = stage_keys(ddr3_device)
        bumped = stage_keys(ddr3_device.scale_path("voltages.vdd", 1.1))
        assert bumped["geometry"] == base["geometry"]
        assert bumped["capacitance"] == base["capacitance"]
        assert bumped["charge"] != base["charge"]
        assert bumped["current"] != base["current"]
        assert bumped["power"] != base["power"]

    def test_technology_change_preserves_geometry_only(self, ddr3_device):
        base = stage_keys(ddr3_device)
        bumped = stage_keys(
            ddr3_device.scale_path("technology.c_bitline", 1.1))
        assert bumped["geometry"] == base["geometry"]
        for stage in ("capacitance", "charge", "current", "power"):
            assert bumped[stage] != base[stage]

    def test_name_change_dirties_power_only(self, ddr3_device):
        base = stage_keys(ddr3_device)
        renamed = stage_keys(ddr3_device.evolve(name="other"))
        for stage in ("geometry", "capacitance", "charge", "current"):
            assert renamed[stage] == base[stage]
        assert renamed["power"] != base["power"]

    def test_timing_change_preserves_every_key(self, ddr3_device):
        # ``timing`` feeds no construction stage (only trace/IDD
        # evaluation reads it), so timing sweeps reuse everything.
        base = stage_keys(ddr3_device)
        bumped = stage_keys(ddr3_device.scale_path("timing.trc", 1.2))
        assert bumped == base

    def test_floorplan_change_dirties_all(self, ddr3_device):
        base = stage_keys(ddr3_device)
        bumped = stage_keys(
            ddr3_device.scale_path("floorplan.array.bl_pitch", 1.1))
        for stage in STAGE_ORDER:
            assert bumped[stage] != base[stage]


class TestDirtyStages:
    def test_voltage_dirty_suffix(self):
        assert dirty_stages(["voltages"]) == ("charge", "current",
                                              "power")

    def test_unknown_field_dirties_nothing(self):
        assert dirty_stages(["timing"]) == ()
        assert dirty_stages(["interface", "node"]) == ()

    def test_floorplan_dirties_everything(self):
        assert dirty_stages(["floorplan"]) == STAGE_ORDER

    def test_earliest_touched_stage_wins(self):
        assert dirty_stages(["name", "technology"])[0] == "capacitance"

    def test_variant_voltage_delta(self):
        variant = Variant().scaled("voltages.vdd", 1.1)
        assert variant.touched_fields() == ("voltages",)
        assert variant.dirty_stages() == ("charge", "current", "power")

    def test_variant_logic_delta(self):
        variant = Variant().scaled_logic("toggle", 1.2)
        assert variant.touched_fields() == ("logic_blocks",)
        assert variant.dirty_stages()[0] == "capacitance"

    def test_variant_transform_is_conservative(self):
        variant = Variant().transformed(lambda device: device)
        assert "voltages" in variant.touched_fields()
        assert variant.dirty_stages() == STAGE_ORDER


class TestIncrementalParity:
    """Assembled-from-cache models equal cold builds bit-for-bit."""

    @pytest.mark.parametrize("path", [
        "voltages.vdd", "voltages.vpp", "technology.c_bitline",
        "spec.f_ctrlclock", "timing.trc",
    ])
    def test_single_parameter_sweeps(self, ddr3_device, path):
        devices = [ddr3_device.scale_path(path, 1.0 + 0.02 * step)
                   for step in range(5)]
        stages = StageCache()
        build_model(ddr3_device, stages)
        for device in devices:
            _assert_models_identical(build_model(device, stages),
                                     DramPowerModel(device))

    def test_mixed_sweep_shared_cache(self, ddr3_device, ddr5_device):
        stages = StageCache()
        devices = [ddr3_device, ddr5_device,
                   ddr3_device.scale_path("voltages.vdd", 1.05),
                   ddr5_device.scale_path("voltages.vdd", 1.05),
                   ddr3_device]
        for device in devices:
            _assert_models_identical(build_model(device, stages),
                                     DramPowerModel(device))

    def test_rebound_artifacts_track_the_device(self, ddr3_device):
        stages = StageCache()
        build_model(ddr3_device, stages)
        variant = ddr3_device.scale_path("voltages.vdd", 1.1)
        model = build_model(variant, stages)
        assert model.device is variant
        assert model.geometry.device is variant
        assert model.energies.device is variant

    @pytest.mark.parametrize("backend", ["serial", "auto"])
    def test_session_sweep_matches_cold_builds(self, ddr3_device,
                                               backend):
        devices = [ddr3_device.scale_path("voltages.vdd",
                                          1.0 + 0.01 * step)
                   for step in range(6)]
        swept = EvaluationSession().map(devices, _power,
                                        backend=backend)
        cold = [_power(DramPowerModel(device)) for device in devices]
        assert swept == cold


class TestStageCounters:
    def test_cold_build_misses_every_stage(self, ddr3_device):
        session = EvaluationSession()
        session.model(ddr3_device)
        stats = session.stats
        assert stats.stage_misses == len(STAGE_ORDER)
        assert stats.stage_hits == 0

    def test_voltage_variant_reuses_two_stages(self, ddr3_device):
        session = EvaluationSession()
        session.model(ddr3_device)
        session.model(ddr3_device.scale_path("voltages.vdd", 1.1))
        stats = session.stats
        assert stats.stage_hits == 2  # geometry + capacitance
        assert stats.stage_misses == 2 * len(STAGE_ORDER) - 2
        assert 0.0 < stats.stage_hit_rate < 1.0

    def test_model_cache_hit_skips_stage_lookups(self, ddr3_device):
        session = EvaluationSession()
        session.model(ddr3_device)
        before = session.stats
        session.model(ddr3_device)
        after = session.stats
        assert after.stage_lookups == before.stage_lookups

    def test_stats_string_reports_stages(self, ddr3_device):
        session = EvaluationSession()
        session.model(ddr3_device)
        text = str(session.stats)
        assert "stages[" in text
        assert "stages[" not in str(EvaluationSession().stats)


class TestStageCacheBounds:
    def test_lru_eviction(self):
        cache = StageCache(capacity=2)
        cache.put("geometry", "a", 1)
        cache.put("geometry", "b", 2)
        cache.put("geometry", "c", 3)
        assert cache.get("geometry", "a") is None
        assert cache.get("geometry", "c") == 3
        assert len(cache) == 2

    def test_put_keeps_first_copy(self):
        cache = StageCache()
        first, second = object(), object()
        cache.put("charge", "k", first)
        cache.put("charge", "k", second)
        assert cache.get("charge", "k") is first


class TestStagePayload:
    def test_roundtrip_seeds_full_reuse(self, ddr3_device):
        model = DramPowerModel(ddr3_device)
        payload = stage_payload(ddr3_device, model)
        assert set(payload) == set(STAGE_ORDER)
        stages = StageCache()
        assert seed_stage_cache(stages, payload) == len(STAGE_ORDER)
        rebuilt = build_model(ddr3_device, stages)
        _assert_models_identical(rebuilt, model)
        hits, misses = stages.counters()
        assert hits == len(STAGE_ORDER)
        assert misses == 0

    def test_substituted_events_export_nothing(self, ddr3_device):
        model = DramPowerModel(ddr3_device)
        substituted = DramPowerModel(ddr3_device, events=model.events,
                                     geometry=model.geometry)
        assert stage_payload(ddr3_device, substituted) is None
