"""Experiment E-PAR — the disk cache: sweep wall-clock cost.

A cold-vs-disk-warm pass over a 60-variant sweep through the
persistent on-disk model cache feeds
``benchmarks/parallel_metrics.json``: the second (warm) process
answers every lookup from disk — a required 1.0 hit rate with zero
cold builds — and its results equal the cold run bit-for-bit.
"""

import time

from repro.core.idd import idd7_mixed
from repro.engine import EvaluationSession

from conftest import emit, record_metrics

DISK_VARIANTS = 60


def _disk_sweep(session, devices):
    return session.map(devices, _power)


def _power(model):
    return idd7_mixed(model).power


def test_disk_cache_cold_vs_warm(tmp_path, ddr3_device):
    cache_dir = tmp_path / "model-cache"
    devices = [ddr3_device.scale_path("technology.c_bitline",
                                      1.0 + 0.003 * step)
               for step in range(DISK_VARIANTS)]

    cold_session = EvaluationSession(cache_dir=cache_dir)
    started = time.perf_counter()
    cold = _disk_sweep(cold_session, devices)
    cold_seconds = time.perf_counter() - started
    assert cold_session.stats.misses == DISK_VARIANTS
    assert cold_session.stats.disk_writes == DISK_VARIANTS

    # A brand-new session simulates the next CLI run / CI job.
    warm_session = EvaluationSession(cache_dir=cache_dir)
    started = time.perf_counter()
    warm = _disk_sweep(warm_session, devices)
    warm_seconds = time.perf_counter() - started

    assert warm == cold
    stats = warm_session.stats
    assert stats.misses == 0, "warm pass must have zero cold builds"
    assert stats.disk_hits == DISK_VARIANTS
    assert stats.hit_rate == 1.0

    speedup = cold_seconds / warm_seconds
    emit(f"disk cache x{DISK_VARIANTS}: cold "
         f"{cold_seconds * 1e3:.1f} ms, warm "
         f"{warm_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x "
         f"({stats})")

    record_metrics("parallel_metrics.json", {
        "disk_cache.variants": DISK_VARIANTS,
        "disk_cache.cold_ms": round(cold_seconds * 1e3, 2),
        "disk_cache.warm_ms": round(warm_seconds * 1e3, 2),
        "disk_cache.speedup": round(speedup, 2),
        "disk_cache.warm_hit_rate": stats.hit_rate,
        "disk_cache.warm_cold_builds": stats.misses,
    })

    # Warm must not be slower; it usually wins by ~2-3x (unpickle vs
    # full geometry + event build).
    assert speedup >= 1.0
