"""One library workload in its own process, so that its set-up time and
peak memory belong to it alone.

Protocol with ``run.py``: after imports, input generation and one
discarded warm-up repetition the worker prints one ``{"ready": ...}``
JSON line and reads a line from stdin.  ``go`` runs the timed phase
(``--trace 1``: half untraced, then half with every layer wrapped) and
prints one JSON result line; anything else exits.

Usage: ``python benchmarks/e2e/worker.py --workload W --seed N
--seconds S [--input PATH] [--trace 0|1] [--spans PATH]``
"""

from __future__ import annotations

import argparse
import gzip
import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Dict, List

from harness import (MAX_FAILURE_LINES, latency_summary, peak_rss_mb,
                     timed_phase, use_src)

#: Module defining each library workload.
MODULES = {"sweep": "sweep", "trace_replay": "trace_lib",
           "trace_strict": "trace_lib"}


def _emit(payload: Dict[str, Any]) -> None:
    print(json.dumps(payload), flush=True)


def _per_item(phase) -> float:
    """Seconds per work item of the phase's fastest clean repetition."""
    best = phase.best() or {"seconds": phase.wall_s, "items": phase.items}
    return best["seconds"] / best["items"]


def _summed(reps) -> Dict[str, float]:
    total: Counter = Counter()
    for rep in reps:
        total.update(rep.counters)
    return dict(total)


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=MODULES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--input", default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    use_src()
    module = importlib.import_module(MODULES[args.workload])
    started = time.perf_counter()
    workload = module.WORKLOADS[args.workload](args.seed, args.input)
    gen_s = time.perf_counter() - started
    workload.rep()  # warm-up, discarded
    workload.reset()
    _emit({"ready": True, "gen_s": gen_s})
    if sys.stdin.readline().strip() != "go":
        return 0

    result: Dict[str, Any] = {"unit": workload.unit}
    if args.trace:
        import spans
        untraced = timed_phase(workload.rep, args.seconds / 2)
        recorder = spans.Recorder()
        spans.install(recorder, extra_modules=(module.__name__,))
        phase = timed_phase(workload.rep, args.seconds / 2)
        layers = spans.layer_metrics(
            spans.layer_totals(recorder.spans),
            spans.counter_totals(recorder.counts), phase.wall_s)
        layers.update(spans.engine_extras(_summed(phase.reps)))
        layers["tracing_overhead"] = _per_item(phase) / _per_item(
            untraced) - 1.0
        result["layers"] = layers
        result["traced_wall_s"] = phase.wall_s
        if args.spans:
            with gzip.open(args.spans, "wt", encoding="utf-8") as handle:
                json.dump(recorder.spans, handle)
        reps = untraced.reps + phase.reps
    else:
        phase = timed_phase(workload.rep, args.seconds)
        result["peak_rss_mb"] = peak_rss_mb(os.getpid())
        reps = phase.reps
    failures = [line for rep in reps for line in rep.failures]
    attempted = sum(len(rep.latencies) for rep in reps)
    digests = Counter(rep.digest for rep in reps if rep.digest)
    if len(digests) > 1:
        common = digests.most_common(1)[0][1]
        failures += [f"equal inputs gave {len(digests)} different "
                     f"outputs across repetitions"] * (sum(
                         digests.values()) - common)
    failures += workload.check()
    result.update({
        "wall_s": phase.wall_s,
        "items": phase.items,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_FAILURE_LINES],
        "latency": latency_summary(phase.latencies),
        "report": workload.report(),
        "best": phase.best(),
    })
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
