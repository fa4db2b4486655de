"""Shared fixtures and reporting helpers for the experiment benchmarks.

Each paper-target module in this directory (``test_fig*``,
``test_tab*``, ``test_sec*``, ``test_ablation*``) regenerates one table
or figure of the paper (see the experiment index in DESIGN.md),
asserts its shape targets, and times the computation with
pytest-benchmark.  Run with ``-s`` to see the regenerated tables:

    pytest benchmarks/ --benchmark-only -s

Speed is measured end to end by ``benchmarks/e2e`` (trace replay and
upload rates by its ``trace_replay`` and ``trace_upload`` workloads);
the remaining smokes and their JSON files are older checks that are
moving into the tier-1 tests and those workloads.
"""

import json
from pathlib import Path

import pytest

from repro import DramPowerModel
from repro.devices import ddr3_2g_55nm, sensitivity_trio

#: All metric JSON files live next to the benchmarks.
METRICS_DIR = Path(__file__).parent


def emit(text: str) -> None:
    """Print a regenerated artifact (visible with pytest -s)."""
    print()
    print(text)


def record_metrics(filename: str, entries: dict) -> Path:
    """Merge ``entries`` into ``benchmarks/<filename>``.

    The recording path of the last measurement artifact,
    ``BENCH_vectorized.json`` (``test_vectorized_sweep.py``): existing
    keys are preserved unless overwritten, output is sorted and
    stable, and an unreadable file is replaced rather than crashing
    the benchmark.
    """
    path = METRICS_DIR / filename
    existing = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except ValueError:
            existing = {}
    existing.update(entries)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True)
                    + "\n")
    return path


@pytest.fixture(scope="session")
def ddr3_device():
    return ddr3_2g_55nm()


@pytest.fixture(scope="session")
def ddr3_model(ddr3_device):
    return DramPowerModel(ddr3_device)


@pytest.fixture(scope="session")
def trio():
    return sensitivity_trio()
