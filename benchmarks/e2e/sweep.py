"""The ``sweep`` workload: the paper's own analyses as a user runs them.

Each repetition uses a fresh ``EvaluationSession()`` without a disk
cache (the CLI default) and runs, on the DDR3 2 Gb 55 nm device:
three 64-point parameter families through ``session.map`` on the
``auto`` backend, a 64-sample Monte-Carlo, the Figure 10 sensitivity
study of the three Table III devices, the Figure 13 generation trend,
the power-reduction scheme comparison, a corner sweep and the Figure 8/9
datasheet verification.  No HTTP.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

from harness import ROOT, Rep

from repro.analysis import (corner_sweep, generation_trend, monte_carlo,
                            sensitivity, verify_ddr2, verify_ddr3)
from repro.core import DramPowerModel
from repro.devices import ddr3_2g_55nm, sensitivity_trio
from repro.engine import EvaluationSession
from repro.schemes import compare_schemes

#: (dotted path, lowest factor, highest factor) of each swept family;
#: the ranges keep every variant a legal device (vint <= vdd,
#: tRAS + tRP <= tRC).
FAMILIES = (("voltages.vint", 0.85, 1.05),
            ("technology.c_bitline", 0.8, 1.2),
            ("timing.trc", 1.0, 1.3))
FAMILY_POINTS = 64
MC_SAMPLES = 64

#: Family points per repetition whose power is held against a cold
#: ``DramPowerModel(device)`` build.
CHECKED_POINTS = 16
CHECK_TOLERANCE = 1e-9

#: The Figure 8/9 pins of the regression baseline.
BASELINE = ROOT / "benchmarks" / "baseline_metrics.json"


def family_power(model: DramPowerModel) -> float:
    """Default-pattern power of one built model (module level, so any
    backend can ship it)."""
    return model.pattern_power().power


def expected_datasheet_hits(path: Path = BASELINE) -> int:
    pins = json.loads(path.read_text(encoding="utf-8"))
    return int(pins["verify.ddr2_hits"] + pins["verify.ddr3_hits"])


class Sweep:
    """Inputs and one repetition of the ``sweep`` workload."""

    unit = "points"

    def __init__(self, seed: int, _input: Any = None):
        rng = random.Random(seed)
        self.seed = seed
        self.base = ddr3_2g_55nm()
        self.trio = sensitivity_trio()
        self.families = [
            [self.base.scale_path(path, rng.uniform(low, high))
             for _ in range(FAMILY_POINTS)]
            for path, low, high in FAMILIES]
        flat = [device for family in self.families for device in family]
        self.checked = sorted(rng.sample(range(len(flat)),
                                         CHECKED_POINTS))
        self.checked_devices = [flat[index] for index in self.checked]
        self.expected_hits = expected_datasheet_hits()
        self.checked_powers: List[List[float]] = []
        self.datasheet_hits: List[int] = []

    def rep(self) -> Rep:
        rep = Rep()
        session = EvaluationSession()

        def call(name: str, fn: Callable, *args, **kwargs) -> Any:
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                rep.failures.append(f"{name}: {type(exc).__name__}: {exc}")
                return None
            finally:
                rep.latencies.append(time.perf_counter() - start)

        outputs: Dict[str, Any] = {}
        powers: List[float] = []
        for (path, _, _), family in zip(FAMILIES, self.families):
            result = call(path, session.map, family, family_power,
                          backend="auto")
            if result is not None:
                rep.items += len(result)
                powers.extend(result)
            outputs[path] = result
        mc = call("monte_carlo", monte_carlo, self.base,
                  samples=MC_SAMPLES, seed=self.seed, session=session,
                  backend="auto")
        if mc is not None:
            rep.items += MC_SAMPLES
            outputs["monte_carlo"] = [d.samples for d in mc]
        for device in self.trio:
            rows = call("sensitivity", sensitivity, device,
                        session=session, backend="auto")
            if rows is not None:
                rep.items += 1 + 2 * len(rows)
                outputs[device.name] = [(r.name, r.power_low,
                                         r.power_high) for r in rows]
        trend = call("generation_trend", generation_trend,
                     session=session)
        if trend is not None:
            rep.items += len(trend)
            outputs["trend"] = [p.energy_idd7_pj for p in trend]
        schemes = call("compare_schemes", compare_schemes, self.base,
                       session=session)
        if schemes is not None:
            rep.items += len(schemes)
            outputs["schemes"] = [(s.scheme, s.power_saving)
                                  for s in schemes]
        bands = call("corner_sweep", corner_sweep, self.base,
                     session=session)
        if bands is not None:
            rep.items += len(bands[0].values_ma)
            outputs["corners"] = [b.values_ma for b in bands]
        hits = 0
        for name, verify in (("verify_ddr2", verify_ddr2),
                             ("verify_ddr3", verify_ddr3)):
            rows = call(name, verify, session=session)
            if rows is not None:
                rep.items += sum(len(row.model_ma) for row in rows)
                hits += sum(row.within_spread(0.25) for row in rows)
        outputs["datasheet_hits"] = hits
        rep.digest = hashlib.sha256(
            repr(outputs).encode("utf-8")).hexdigest()
        if len(powers) == len(FAMILIES) * FAMILY_POINTS:
            self.checked_powers.append([powers[i] for i in self.checked])
        self.datasheet_hits.append(hits)
        rep.counters = dataclasses.asdict(session.stats)
        return rep

    def reset(self) -> None:
        """Forget per-repetition records (the warm-up's)."""
        self.checked_powers.clear()
        self.datasheet_hits.clear()

    def check(self) -> List[str]:
        """Output checks, run after the clock stops; one line per
        failed repetition and check."""
        failures = []
        cold = [DramPowerModel(device).pattern_power().power
                for device in self.checked_devices]
        for number, powers in enumerate(self.checked_powers):
            wrong = [f"point {index}: {value!r} != {truth!r}"
                     for index, value, truth
                     in zip(self.checked, powers, cold)
                     if abs(value - truth) > CHECK_TOLERANCE * abs(truth)]
            if wrong:
                failures.append(f"rep {number}: family powers differ "
                                f"from cold builds: {'; '.join(wrong)}")
        for number, hits in enumerate(self.datasheet_hits):
            if hits != self.expected_hits:
                failures.append(
                    f"rep {number}: {hits} datasheet hits, pinned "
                    f"{self.expected_hits}")
        return failures

    def report(self) -> Dict[str, Any]:
        """Workload-specific numbers of the timed phase."""
        return {"datasheet_hits": (min(self.datasheet_hits)
                                   if self.datasheet_hits else 0)}


WORKLOADS = {"sweep": Sweep}
