"""Experiment E-VEC — columnar vectorized sweeps: scalar warm vs folded.

A 64-point sweep family is evaluated three ways through the engine:

* **cold** — every variant is a full scalar ``DramPowerModel`` build;
* **scalar warm** — the family maps through an
  :class:`~repro.engine.EvaluationSession` whose model cache already
  holds the base model, ``backend="serial"``: every variant is still a
  full scalar build (there is no stage reuse between builds);
* **vectorized** — the same warm-session scenario with
  ``backend="vector"``: the whole family folds as one
  (variants × events) broadcast plus one firing-weight matmul
  (:mod:`repro.engine.vector`).

Powers must agree with the scalar oracle to 1e-9 relative (measured
~1e-15: float summation order is the only difference).  Three families
are measured and recorded honestly:

* ``voltage``     — dirties charge → current → power only: the pure
  per-variant fold the kernel eliminates, and where the ≥3x
  acceptance floor is asserted;
* ``montecarlo``  — voltages plus the constant-current adder, the
  Monte-Carlo draw shape: folds like voltage;
* ``technology``  — dirties capacitance onward, so every variant still
  builds its skeleton list scalar before folding; the speedup is
  bounded by that scalar share (~1.5-2x — printed, not asserted).

Each test prints its numbers (run with ``-s``); the voltage and
Monte-Carlo families assert their speed floors.
"""

import time

import pytest

from repro.core import DramPowerModel
from repro.engine import EvaluationSession, numpy_available

from conftest import emit

pytestmark = pytest.mark.skipif(
    not numpy_available(),
    reason="the vectorized kernel needs the repro[vector] extra")

POINTS = 64
TOLERANCE = 1e-9

#: family label → the (path, direction) pairs a variant perturbs.
#: Directions keep every draw physical: vint scales down so it never
#: crosses vdd, the constant-current adder scales up.
FAMILIES = {
    "voltage": (("voltages.vdd", 1.0), ("voltages.vint", 1.0)),
    "montecarlo": (("voltages.vint", -1.0), ("voltages.vbl", -1.0),
                   ("constant_current", 1.0)),
    "technology": (("technology.c_bitline", 1.0),),
}


def _variants(device, paths):
    # Steps start at 1 so no variant collapses onto the warm base.
    out = []
    for step in range(1, POINTS + 1):
        variant = device
        for offset, (path, sign) in enumerate(paths):
            variant = variant.scale_path(
                path, 1.0 + sign * (0.002 * step + 0.001 * offset))
        out.append(variant)
    return out


def _power(model):
    return model.pattern_power().power


def _measure_family(base, paths):
    devices = _variants(base, paths)

    started = time.perf_counter()
    cold = [_power(DramPowerModel(device)) for device in devices]
    cold_seconds = time.perf_counter() - started

    scalar_session = EvaluationSession()
    scalar_session.model(base)
    started = time.perf_counter()
    scalar = scalar_session.map(devices, _power, backend="serial")
    scalar_seconds = time.perf_counter() - started

    vector_session = EvaluationSession()
    vector_session.model(base)
    started = time.perf_counter()
    folded = vector_session.map(devices, _power, backend="vector")
    vector_seconds = time.perf_counter() - started

    # The scalar warm path is the bit-exact oracle; the fold agrees to
    # float-summation-order precision.
    assert scalar == cold
    for left, right in zip(folded, scalar):
        assert left == pytest.approx(right, rel=TOLERANCE)
    assert len(set(cold)) > 1  # the family actually moves the power

    stats = vector_session.stats
    assert stats.vector_batches >= 1
    assert stats.vector_builds == POINTS
    assert stats.vector_fallbacks == 0

    return {
        "cold_seconds": cold_seconds,
        "scalar_seconds": scalar_seconds,
        "vector_seconds": vector_seconds,
        "speedup_vs_cold": cold_seconds / vector_seconds,
        "speedup_vs_scalar_warm": scalar_seconds / vector_seconds,
    }


def _emit(label, measured):
    emit(f"vectorized sweep ({label}, {POINTS} points): "
         f"cold {measured['cold_seconds'] * 1e3:.1f} ms, "
         f"scalar warm {measured['scalar_seconds'] * 1e3:.1f} ms, "
         f"vectorized {measured['vector_seconds'] * 1e3:.1f} ms, "
         f"{measured['speedup_vs_cold']:.2f}x vs cold, "
         f"{measured['speedup_vs_scalar_warm']:.2f}x vs scalar warm")


def test_vectorized_voltage_sweep(benchmark, ddr3_device):
    """Pure-fold family: the ≥3x acceptance criterion lives here."""
    measured = _measure_family(ddr3_device, FAMILIES["voltage"])
    _emit("voltage", measured)
    assert measured["speedup_vs_scalar_warm"] >= 3.0

    # pytest-benchmark records the steady-state fold cost on fresh
    # family values each round (the warm LRU never short-circuits it).
    session = EvaluationSession()
    session.model(ddr3_device)
    rounds = iter(range(1, 1_000_000))

    def fold_fresh_family():
        offset = 1.0 + next(rounds) * 1e-7
        devices = [
            device.scale_path("voltages.vbl", offset)
            for device in _variants(ddr3_device, FAMILIES["voltage"])
        ]
        return session.map(devices, _power, backend="vector")

    benchmark(fold_fresh_family)


def test_vectorized_montecarlo_sweep(ddr3_device):
    """The Monte-Carlo draw shape folds like a voltage family."""
    measured = _measure_family(ddr3_device, FAMILIES["montecarlo"])
    _emit("montecarlo", measured)
    assert measured["speedup_vs_scalar_warm"] >= 2.0


def test_vectorized_technology_sweep(ddr3_device):
    """Capacitance-dirty family: skeletons rebuild scalar, recorded
    honestly without a speedup floor."""
    measured = _measure_family(ddr3_device, FAMILIES["technology"])
    _emit("technology", measured)
    # Parity and counter assertions happened in _measure_family; the
    # speedup is bounded by the scalar skeleton share and printed
    # as-is — no silent caps.
    assert measured["speedup_vs_scalar_warm"] > 0.0
