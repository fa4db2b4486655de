"""Experiment E-ENG — engine model cache: cold vs warm sweep cost.

A 100-variant sensitivity-style sweep (bitline capacitance scaled over
a fine grid) is evaluated twice through one
:class:`~repro.engine.EvaluationSession`: the first (cold) pass builds
every model, the second (warm) pass must answer every lookup from the
fingerprint-keyed cache.  The warm pass is required to be at least 3x
faster, and the cache counters must show a perfect second-pass hit
rate.  Measured numbers are written to
``benchmarks/engine_cache_metrics.json`` next to
``baseline_metrics.json``.
"""

import time

from repro.core.idd import idd7_mixed
from repro.engine import EvaluationSession

from conftest import emit, record_metrics

VARIANTS = 100


def _variants(device):
    return [device.scale_path("technology.c_bitline",
                              1.0 + 0.002 * step)
            for step in range(VARIANTS)]


def _sweep(session, devices):
    return session.map(devices,
                       lambda model: idd7_mixed(model).power)


def test_engine_cache_cold_vs_warm(benchmark, ddr3_device):
    devices = _variants(ddr3_device)
    session = EvaluationSession()

    started = time.perf_counter()
    cold = _sweep(session, devices)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = _sweep(session, devices)
    warm_seconds = time.perf_counter() - started

    # The cached models are bit-identical, so the results are too.
    assert warm == cold
    stats = session.stats
    assert stats.misses == VARIANTS
    assert stats.hits == VARIANTS
    assert stats.hit_rate == 0.5

    speedup = cold_seconds / warm_seconds
    emit(f"engine cache: cold {cold_seconds * 1e3:.1f} ms, "
         f"warm {warm_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x "
         f"({stats})")
    assert speedup >= 3.0

    record_metrics("engine_cache_metrics.json", {
        "engine_cache.variants": VARIANTS,
        "engine_cache.cold_ms": round(cold_seconds * 1e3, 2),
        "engine_cache.warm_ms": round(warm_seconds * 1e3, 2),
        "engine_cache.speedup": round(speedup, 2),
        "engine_cache.hit_rate_second_pass": 1.0,
        "engine_cache.build_seconds": round(stats.build_seconds, 4),
    })

    # pytest-benchmark records the steady-state (warm) sweep cost.
    benchmark(_sweep, session, devices)


def test_engine_parallel_map_matches_serial(ddr3_device):
    devices = _variants(ddr3_device)[:16]
    serial = _sweep(EvaluationSession(), devices)
    mapped = EvaluationSession().map(
        devices, lambda model: idd7_mixed(model).power)
    assert mapped == serial
