"""Experiment E-PAR — backends and disk cache: sweep wall-clock cost.

Two measurements feed ``benchmarks/parallel_metrics.json``:

* a 400-sample Monte-Carlo sweep evaluated on the serial and process
  backends of one :class:`~repro.engine.EvaluationSession`.  The
  process backend shards the samples across worker processes and is
  required to be at least 2x faster than serial on runners with four
  or more usable cores (the assertion is skipped on smaller machines,
  but the measured numbers are always recorded together with the core
  count);
* a cold-vs-disk-warm pass over a 60-variant sweep through the
  persistent on-disk model cache: the second (warm) process answers
  every lookup from disk — a required 1.0 hit rate with zero cold
  builds.

Determinism is asserted throughout: every backend's results equal the
serial run bit-for-bit.
"""

import os
import time

from repro.analysis.montecarlo import monte_carlo
from repro.core.idd import idd7_mixed
from repro.engine import EvaluationSession
from repro.engine.executor import default_jobs

from conftest import emit, record_metrics

SAMPLES = 400
DISK_VARIANTS = 60


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sample_distributions(device, jobs=None, backend=None):
    return monte_carlo(device, samples=SAMPLES, seed=11, jobs=jobs,
                       backend=backend)


def test_montecarlo_backend_scaling(ddr3_device):
    cores = _usable_cores()
    workers = max(2, default_jobs())

    started = time.perf_counter()
    serial = _sample_distributions(ddr3_device)
    serial_seconds = time.perf_counter() - started

    started = time.perf_counter()
    pooled = _sample_distributions(ddr3_device, jobs=workers,
                                   backend="process")
    process_seconds = time.perf_counter() - started

    # The process backend reproduces the serial sweep bit-for-bit.
    assert [d.samples for d in pooled] == \
        [d.samples for d in serial]

    process_speedup = serial_seconds / process_seconds
    emit(f"montecarlo x{SAMPLES}: serial {serial_seconds * 1e3:.0f} ms, "
         f"process {process_seconds * 1e3:.0f} ms "
         f"({process_speedup:.2f}x) on {cores} cores / "
         f"{workers} workers")

    record_metrics("parallel_metrics.json", {
        "parallel.samples": SAMPLES,
        "parallel.cores": cores,
        "parallel.workers": workers,
        "parallel.serial_ms": round(serial_seconds * 1e3, 1),
        "parallel.process_ms": round(process_seconds * 1e3, 1),
        "parallel.process_speedup": round(process_speedup, 2),
        "parallel.bit_for_bit_identical": True,
    })

    if cores >= 4:
        assert process_speedup >= 2.0, (
            f"process backend only {process_speedup:.2f}x over serial "
            f"on {cores} cores")


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
