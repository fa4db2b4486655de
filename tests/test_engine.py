"""Engine package: fingerprints, model cache, sessions, variants."""

import threading

import pytest

from repro.analysis.sensitivity import PARAMETERS, sensitivity
from repro.core import DramPowerModel
from repro.core.idd import idd7_mixed
from repro.devices import build_device, ddr3_2g_55nm
from repro.engine import (
    EvaluationSession,
    ModelCache,
    Variant,
    canonical_form,
    ensure_session,
    evaluate_many,
    fingerprint,
    scaling,
)
from repro.errors import ModelError

#: One dotted path per Table-I parameter group, to prove each group
#: participates in the cache key.
TABLE_I_PATHS = [
    "technology.c_bitline",
    "technology.c_cell",
    "technology.c_wire_signal",
    "technology.tox_logic",
    "technology.cj_logic",
    "technology.w_sa_n",
    "technology.w_swd_n",
    "technology.w_cell",
    "voltages.vint",
    "voltages.vpp",
    "voltages.vbl",
    "constant_current",
]


class TestFingerprint:
    def test_stable_across_rebuilds(self):
        assert fingerprint(ddr3_2g_55nm()) == fingerprint(ddr3_2g_55nm())

    def test_stable_across_nodes(self):
        first = {node: fingerprint(build_device(node))
                 for node in (170, 55, 18)}
        second = {node: fingerprint(build_device(node))
                  for node in (170, 55, 18)}
        assert first == second

    def test_distinct_devices_differ(self):
        keys = {fingerprint(build_device(node))
                for node in (170, 110, 55, 18)}
        assert len(keys) == 4

    @pytest.mark.parametrize("path", TABLE_I_PATHS)
    def test_any_table_i_change_changes_key(self, ddr3_device, path):
        perturbed = ddr3_device.scale_path(path, 1.01)
        assert fingerprint(perturbed) != fingerprint(ddr3_device)

    @pytest.mark.parametrize("parameter", PARAMETERS,
                             ids=lambda parameter: parameter.name)
    def test_every_sensitivity_parameter_changes_key(self, ddr3_device,
                                                     parameter):
        perturbed = parameter.apply(ddr3_device, 1.05)
        assert fingerprint(perturbed) != fingerprint(ddr3_device)

    def test_logic_block_change_changes_key(self, ddr3_device):
        perturbed = Variant().scaled_logic("n_gates", 2.0)(ddr3_device)
        assert fingerprint(perturbed) != fingerprint(ddr3_device)

    def test_canonical_form_tags_types(self):
        assert canonical_form(1) != canonical_form(1.0)
        assert canonical_form(1) != canonical_form("1")
        assert canonical_form(True) != canonical_form(1)
        assert canonical_form(None) != canonical_form("")

    def test_canonical_form_sorts_mappings(self):
        assert canonical_form({"a": 1, "b": 2}) == \
            canonical_form({"b": 2, "a": 1})

    def test_unfingerprintable_value_raises(self):
        with pytest.raises(ModelError):
            canonical_form(object())


class TestModelCache:
    def test_hit_returns_identical_model_and_events(self, ddr3_device):
        cache = ModelCache()
        first = cache.model(ddr3_device)
        again = cache.model(ddr3_device)
        assert again is first
        assert again.events is first.events

    def test_equal_value_different_object_hits(self):
        cache = ModelCache()
        first = cache.model(ddr3_2g_55nm())
        again = cache.model(ddr3_2g_55nm())
        assert again is first
        assert cache.stats().hits == 1

    def test_lru_eviction_at_capacity(self):
        cache = ModelCache(capacity=2)
        devices = [build_device(node) for node in (170, 110, 55)]
        for device in devices:
            cache.model(device)
        stats = cache.stats()
        assert stats.size == 2
        assert stats.evictions == 1
        # 170 nm was least recently used: rebuilding it must miss.
        cache.model(devices[0])
        assert cache.stats().misses == 4

    def test_lru_order_refreshes_on_hit(self):
        cache = ModelCache(capacity=2)
        old, mid, new = [build_device(node) for node in (170, 110, 55)]
        cache.model(old)
        cache.model(mid)
        cache.model(old)          # refresh: now `mid` is the LRU entry
        cache.model(new)          # evicts `mid`
        kept = cache.model(old)
        assert cache.stats().hits == 2
        assert kept is not None

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ModelError):
            ModelCache(capacity=0)

    def test_clear_keeps_counters(self, ddr3_device):
        cache = ModelCache()
        cache.model(ddr3_device)
        cache.clear()
        stats = cache.stats()
        assert stats.size == 0
        assert stats.misses == 1

    def test_stats_snapshot_fields(self, ddr3_device):
        cache = ModelCache()
        cache.model(ddr3_device)
        cache.model(ddr3_device)
        stats = cache.stats()
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5
        assert stats.build_seconds > 0.0
        assert "hit-rate=50.0%" in str(stats)

    def test_racing_misses_share_one_model(self, ddr3_device,
                                           monkeypatch):
        # Both threads miss and build; the barrier holds each build
        # until the other has started, so both stores race and the
        # second must hand back the first copy.
        barrier = threading.Barrier(2, timeout=30)

        def waiting_build(device):
            barrier.wait()
            return DramPowerModel(device)

        monkeypatch.setattr("repro.engine.cache.DramPowerModel",
                            waiting_build)
        cache = ModelCache()
        models = [None, None]

        def build(slot):
            models[slot] = cache.model(ddr3_device)

        threads = [threading.Thread(target=build, args=(slot,))
                   for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert models[0] is not None
        assert models[0] is models[1]
        stats = cache.stats()
        assert stats.size == 1
        assert stats.misses == 2


class TestEvaluationSession:
    def test_evaluate_matches_direct_model(self, ddr3_device,
                                           ddr3_model):
        session = EvaluationSession()
        result = session.evaluate(ddr3_device)
        assert result.power == ddr3_model.pattern_power(None).power

    def test_map_parallel_equals_serial_bit_for_bit(self, ddr3_device):
        devices = [ddr3_device.scale_path("technology.c_bitline",
                                          1.0 + 0.01 * step)
                   for step in range(8)]
        serial = EvaluationSession().map(
            devices, lambda model: idd7_mixed(model).power)
        explicit = EvaluationSession().map(
            devices, lambda model: idd7_mixed(model).power,
            backend="serial")
        assert explicit == serial

    def test_map_devices_hands_descriptions(self, ddr3_device):
        session = EvaluationSession()
        names = session.map_devices([ddr3_device],
                                    lambda device: device.name)
        assert names == [ddr3_device.name]

    def test_repeated_sweep_has_nonzero_hit_rate(self, ddr3_device):
        session = EvaluationSession()
        sensitivity(ddr3_device, session=session)
        sensitivity(ddr3_device, session=session)
        assert session.stats.hit_rate > 0.0

    def test_second_pass_over_variants_is_all_hits(self, ddr3_device):
        devices = [ddr3_device.scale_path("technology.c_bitline",
                                          1.0 + 0.002 * step)
                   for step in range(100)]
        session = EvaluationSession()
        cold = session.map(devices,
                           lambda model: idd7_mixed(model).power)
        warm = session.map(devices,
                           lambda model: idd7_mixed(model).power)
        assert warm == cold
        stats = session.stats
        assert stats.misses == stats.hits == 100
        assert stats.hit_rate == 0.5

    def test_evaluate_many_one_shot(self, ddr3_device):
        powers = evaluate_many([ddr3_device],
                               lambda model: idd7_mixed(model).power)
        assert powers[0] > 0.0

    def test_ensure_session_passthrough(self):
        session = EvaluationSession()
        assert ensure_session(session) is session
        assert ensure_session(None) is not session


class TestVariant:
    def test_scaling_matches_scale_path(self, ddr3_device):
        variant = scaling(["technology.c_bitline"], 1.2)
        by_hand = ddr3_device.scale_path("technology.c_bitline", 1.2)
        assert variant(ddr3_device) == by_hand

    def test_deltas_apply_in_order(self, ddr3_device):
        variant = (Variant().scaled("voltages.vdd", 2.0)
                   .scaled("voltages.vdd", 0.5))
        assert variant(ddr3_device).voltages.vdd == \
            ddr3_device.voltages.vdd

    def test_logic_clamps(self, ddr3_device):
        dense = Variant().scaled_logic("layout_density", 50.0)
        for block in dense(ddr3_device).logic_blocks:
            assert block.layout_density <= 1.0
        tiny = Variant().scaled_logic("n_gates", 1e-9)
        for block in tiny(ddr3_device).logic_blocks:
            assert block.n_gates == 1

    def test_merged_and_labels(self):
        left = scaling(["voltages.vdd"], 1.1, label="vdd")
        right = scaling(["voltages.vpp"], 1.1, label="vpp")
        both = left.merged(right)
        assert both.label == "vdd+vpp"
        assert len(both.deltas) == 2
        assert both.labelled("slow").label == "slow"

    def test_empty_variant_is_falsy_identity(self, ddr3_device):
        empty = Variant()
        assert not empty
        assert empty(ddr3_device) == ddr3_device
