"""Shared fixtures and the print helper of the experiment benchmarks.

Each paper-target module in this directory (``test_fig*``,
``test_tab*``, ``test_sec*``, ``test_ablation*``) regenerates one table
or figure of the paper (see the experiment index in DESIGN.md),
asserts its shape targets, and times the computation with
pytest-benchmark.  Run with ``-s`` to see the regenerated tables:

    pytest benchmarks/ --benchmark-only -s

Speed is measured end to end by ``benchmarks/e2e`` (trace replay and
upload rates by its ``trace_replay`` and ``trace_upload`` workloads).
The smokes and ``test_vectorized_sweep.py`` are older checks that
print their numbers and write no file; their speed floors still run
in CI until an e2e workload carries each one.
"""

import pytest

from repro import DramPowerModel
from repro.devices import ddr3_2g_55nm, sensitivity_trio


def emit(text: str) -> None:
    """Print a regenerated artifact (visible with pytest -s)."""
    print()
    print(text)


@pytest.fixture(scope="session")
def ddr3_device():
    return ddr3_2g_55nm()


@pytest.fixture(scope="session")
def ddr3_model(ddr3_device):
    return DramPowerModel(ddr3_device)


@pytest.fixture(scope="session")
def trio():
    return sensitivity_trio()
