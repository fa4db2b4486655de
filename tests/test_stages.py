"""The vector planner's stage keys, and session sweeps against cold builds."""

import pytest

from repro.core import DramPowerModel
from repro.description import Command
from repro.engine import EvaluationSession, stage_keys
from repro.engine.stages import STAGE_INPUTS, STAGE_ORDER

SWEEP_PATHS = ["voltages.vdd", "voltages.vpp", "technology.c_bitline",
               "spec.f_ctrlclock", "timing.trc"]


def _sweep(device, path):
    return [device.scale_path(path, 1.0 + 0.02 * step) for step in range(6)]


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


class TestStageKeys:
    def test_equal_devices_equal_keys(self, ddr3_device):
        clone = ddr3_device.scale_path("voltages.vdd", 1.0)
        assert stage_keys(ddr3_device) == stage_keys(clone)

    def test_voltage_change_preserves_upstream_keys(self, ddr3_device):
        base = stage_keys(ddr3_device)
        bumped = stage_keys(ddr3_device.scale_path("voltages.vdd", 1.1))
        assert bumped == base

    def test_technology_change_preserves_geometry_only(self, ddr3_device):
        base = stage_keys(ddr3_device)
        bumped = stage_keys(
            ddr3_device.scale_path("technology.c_bitline", 1.1))
        assert bumped["geometry"] == base["geometry"]
        assert bumped["capacitance"] != base["capacitance"]

    def test_name_change_preserves_every_key(self, ddr3_device):
        base = stage_keys(ddr3_device)
        renamed = stage_keys(ddr3_device.evolve(name="other"))
        assert renamed == base

    def test_timing_change_preserves_every_key(self, ddr3_device):
        # ``timing`` feeds no construction stage (only trace/IDD
        # evaluation reads it).
        base = stage_keys(ddr3_device)
        bumped = stage_keys(ddr3_device.scale_path("timing.trc", 1.2))
        assert bumped == base

    def test_floorplan_change_dirties_all(self, ddr3_device):
        base = stage_keys(ddr3_device)
        bumped = stage_keys(
            ddr3_device.scale_path("floorplan.array.bl_pitch", 1.1))
        for stage in STAGE_ORDER:
            assert bumped[stage] != base[stage]


class TestIncrementalParity:
    """Session-built models equal cold builds bit-for-bit.

    Six points stay below the vector kernel's MIN_BATCH, so ``auto``
    takes the scalar path and equality is exact.
    """

    @pytest.mark.parametrize("path", SWEEP_PATHS)
    def test_single_parameter_sweeps(self, ddr3_device, path):
        devices = _sweep(ddr3_device, path)
        for backend in ("serial", "auto"):
            swept = EvaluationSession().map(devices, lambda model: model,
                                            backend=backend)
            for model, device in zip(swept, devices):
                _assert_models_identical(model, DramPowerModel(device))

    @pytest.mark.parametrize("backend", ["serial", "auto"])
    def test_session_sweep_matches_cold_builds(self, ddr3_device,
                                               backend):
        # One session serves every path in turn, so each sweep after
        # the first also meets a cached model (its base device).
        session = EvaluationSession()
        for path in SWEEP_PATHS:
            devices = _sweep(ddr3_device, path)
            swept = session.map(devices, lambda model: model,
                                backend=backend)
            for model, device in zip(swept, devices):
                _assert_models_identical(model, DramPowerModel(device))
