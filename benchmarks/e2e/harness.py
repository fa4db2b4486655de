"""Shared pieces of the end-to-end benchmark: paths, one timed phase,
percentiles, host facts and answer comparison.

Imports only the standard library, so ``compare.py`` and the harness
tests run without the model on ``sys.path``.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Root of the checkout: ``benchmarks/e2e/`` sits two levels below.
ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"

#: Default directory for results, spans and generated inputs.  Inside
#: the checkout and ignored by git, so a run never dirties the tree.
DEFAULT_OUT = ROOT / ".bench_out" / "e2e"

#: Failure lines kept in a result; the failure count is always exact.
MAX_FAILURE_LINES = 20


def use_src() -> None:
    """Put the checkout's ``src/`` first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"e2e benchmark: no program source at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for subprocesses: ``src/`` on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part)
    return env


@dataclass
class Rep:
    """One repetition of a workload's fixed unit of work."""

    items: int = 0
    """Work items completed (model points, requests or commands)."""
    latencies: List[float] = field(default_factory=list)
    """Seconds per user-visible call made in this repetition."""
    failures: List[str] = field(default_factory=list)
    """One line per call that raised."""
    digest: str = ""
    """Hash of every output; equal inputs must give equal digests."""
    counters: Dict[str, float] = field(default_factory=dict)
    """Program counters of this repetition (engine statistics)."""


@dataclass
class Phase:
    """The repetitions of one timed phase and its wall time."""

    reps: List[Rep]
    wall_s: float
    durations: List[float] = field(default_factory=list)
    """Wall seconds of each repetition."""

    @property
    def items(self) -> int:
        return sum(rep.items for rep in self.reps)

    @property
    def latencies(self) -> List[float]:
        return [value for rep in self.reps for value in rep.latencies]

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failures(self) -> List[str]:
        return [line for rep in self.reps for line in rep.failures]

    def best(self) -> Optional[Dict[str, Any]]:
        """The fastest repetition that raised nothing: its wall time,
        its work and its call latencies; ``None`` if every one failed.
        """
        clean = [(seconds, rep) for seconds, rep
                 in zip(self.durations, self.reps) if not rep.failures]
        if not clean:
            return None
        seconds, rep = min(clean, key=lambda pair: pair[0])
        return {"seconds": seconds, "items": rep.items,
                "latency": latency_summary(rep.latencies)}


def timed_phase(rep: Callable[[], Rep], seconds: float) -> Phase:
    """Repeat ``rep`` until ``seconds`` of wall time have passed.

    The repetition that crosses the deadline completes, so throughput
    is total work over total wall time.
    """
    phase = Phase([], 0.0)
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        phase.reps.append(rep())
        end = time.perf_counter()
        phase.durations.append(end - began)
        if end - start >= seconds:
            phase.wall_s = end - start
            return phase


# ----------------------------------------------------------------------
# Statistics.
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """The ``q``-th percentile (0 < q < 100), linear interpolation."""
    if not values:
        raise ValueError("percentile of no samples")
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def latency_summary(latencies_s: List[float]) -> Dict[str, float]:
    """Median and p99 in ms, the sample count, and the p99 tail count
    (samples strictly slower than p99)."""
    p99 = percentile(latencies_s, 99.0)
    return {"p50_ms": percentile(latencies_s, 50.0) * 1e3,
            "p99_ms": p99 * 1e3,
            "samples": len(latencies_s),
            "p99_tail": sum(1 for value in latencies_s if value > p99)}


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median, first and third quartile as ``statistics`` gives them."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


# ----------------------------------------------------------------------
# Host and process facts.
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int) -> float:
    """Peak resident set of a live process (``VmHWM``), MB.

    Not ``ru_maxrss``: Linux carries that across ``exec`` from the
    forking parent, so a worker would report its parent's peak.
    """
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_info() -> Dict[str, Any]:
    """Facts that decide whether two results are comparable."""
    try:
        import numpy
        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy_version,
            "machine": platform.machine(),
            "commit": _git_commit()}


# ----------------------------------------------------------------------
# Answer comparison.
# ----------------------------------------------------------------------
def same_answer(left: Any, right: Any, rel: float = 0.0) -> bool:
    """Structural equality of two JSON values; floats may differ by
    ``rel`` relative (the vector kernel agrees with the scalar path to
    ~1e-15, so service sweeps compare at 1e-9)."""
    if isinstance(left, float) or isinstance(right, float):
        if not isinstance(left, (int, float)) \
                or not isinstance(right, (int, float)) \
                or isinstance(left, bool) or isinstance(right, bool):
            return False
        if left == right:
            return True
        scale = max(abs(left), abs(right))
        return abs(left - right) <= rel * scale
    if isinstance(left, dict) and isinstance(right, dict):
        return (left.keys() == right.keys()
                and all(same_answer(left[key], right[key], rel)
                        for key in left))
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return (len(left) == len(right)
                and all(same_answer(a, b, rel)
                        for a, b in zip(left, right)))
    return left == right
