"""End-to-end benchmark of the DRAM power model: every workload, one
command.

Runs each workload (see README.md) for ``--seconds`` of timed work,
checks the program's answers, prints every metric by name and unit,
and writes the result, spans and logs under ``--out``.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (``--trace 0``) or the per-layer metrics
of a separate traced run (``--trace 1``).  Without ``--workload`` every
workload runs in turn and prints its own JSON line.

Usage: ``python3 benchmarks/e2e/run.py [--workload W] [--seed N]
[--seconds S] [--trace 0|1] [--out DIR]``
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from harness import (DEFAULT_OUT, ROOT, child_env, host_info, use_src)

HERE = Path(__file__).resolve().parent

#: Every workload; the library ones run in ``worker.py`` processes.
WORKLOADS = ("sweep", "serve_hot", "serve_explore", "trace_replay",
             "trace_upload", "trace_strict")
LIBRARY = ("sweep", "trace_replay", "trace_strict")
#: Workloads replaying the trace file generated before the clock.
TRACE_FILE = ("trace_replay", "trace_upload")

#: End-to-end metrics and their units; every workload reports each.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "throughput": "1/s",
              "p50_ms": "ms", "p99_ms": "ms"}

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Seconds a worker may take beyond the timed phase (set-up, checks).
WORKER_SLACK = 150.0


def _read_json_line(process: subprocess.Popen, timeout: float
                    ) -> Dict[str, Any]:
    ready, _, _ = select.select([process.stdout], [], [], timeout)
    line = process.stdout.readline() if ready else ""
    if not line:
        raise RuntimeError(f"worker {process.args} exited without "
                           f"reporting (code {process.poll()})")
    return json.loads(line)


def run_library(name: str, seed: int, seconds: float, trace: bool,
                run_dir: Path, input_file: Optional[Path]
                ) -> Tuple[List[float], Dict[str, Any]]:
    """Spawn the worker ``SETUPS`` times (once when traced); the last
    one runs the timed phase.  Set-up runs from spawn to ready, less
    the worker's own input generation."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload",
               name, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace))]
    if input_file is not None:
        command += ["--input", str(input_file)]
    if trace:
        command += ["--spans", str(run_dir / "spans.json.gz")]
    setups: List[float] = []
    count = 1 if trace else SETUPS
    with open(run_dir / "worker.log", "ab") as log:
        for number in range(count):
            last = number == count - 1
            began = time.perf_counter()
            process = subprocess.Popen(
                command, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=log, text=True)
            try:
                ready = _read_json_line(process, WORKER_SLACK)
                setups.append(time.perf_counter() - began - ready["gen_s"])
                process.stdin.write("go\n" if last else "quit\n")
                process.stdin.close()
                if last:
                    result = _read_json_line(process,
                                             seconds + WORKER_SLACK)
                process.wait(timeout=WORKER_SLACK)
            finally:
                if process.poll() is None:
                    process.kill()
                    process.wait()
                process.stdout.close()
    return setups, result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out: Path) -> Dict[str, Any]:
    """One workload from input generation to checked result."""
    run_dir = out / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    if load_before[0] > nproc / 2:
        print(f"warning: load average {load_before[0]:.2f} exceeds "
              f"{nproc / 2:g} (nproc/2); timings may be disturbed",
              file=sys.stderr)
    input_file = None
    if name in TRACE_FILE:
        from trace_lib import write_trace_file
        input_file = run_dir / "trace.trc.gz"
        write_trace_file(seed, input_file)
    try:
        if name in LIBRARY:
            setups, measured = run_library(name, seed, seconds, trace,
                                           run_dir, input_file)
        else:
            import serve
            setups, measured = serve.run(name, seed, seconds, trace,
                                         run_dir, 1 if trace else SETUPS,
                                         input_file)
    finally:
        if input_file is not None:
            input_file.unlink()
    result = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "started_unix": started,
        "elapsed_s": time.time() - started,
        "host": dict(host_info(), load_before=load_before,
                     load_after=os.getloadavg()),
        "setup_times_s": setups,
        "measured": measured,
        "metrics": _metrics(trace, setups, measured),
    }
    (run_dir / "result.json").write_text(json.dumps(result, indent=1))
    return result


def _rate_and_latency(measured: Dict[str, Any]
                      ) -> Tuple[float, Dict[str, float]]:
    """Throughput and latencies a run reports.

    A workload of sequential fixed-work repetitions reports its fastest
    clean repetition: on a shared host that repetition is the one least
    slowed by other tenants, which keeps run-to-run spread small.  The
    closed-loop service workloads report the whole timed phase.
    """
    best = measured.get("best")
    if best is not None:
        return best["items"] / best["seconds"], best["latency"]
    return measured["items"] / measured["wall_s"], measured["latency"]


def _metrics(trace: bool, setups: List[float],
             measured: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    if trace:
        import spans
        units = spans.metric_units()
        return {metric: {"value": value, "unit": units[metric]}
                for metric, value in measured["layers"].items()}
    rate, latency = _rate_and_latency(measured)
    values = {"setup_s": statistics.median(setups),
              "peak_rss_mb": measured["peak_rss_mb"],
              "throughput": rate,
              "p50_ms": latency["p50_ms"],
              "p99_ms": latency["p99_ms"]}
    return {metric: {"value": values[metric], "unit": unit}
            for metric, unit in END_TO_END.items()}


def named_metrics(result: Dict[str, Any]) -> List[Tuple[str, Any, str]]:
    """The workload's metrics under their user-facing names."""
    name = result["workload"]
    measured = result["measured"]
    metrics = result["metrics"]
    rate, latency = _rate_and_latency(measured)
    rows = []
    if name == "sweep":
        rows += [("points_per_s", rate, "points/s"),
                 ("datasheet_hits",
                  measured["report"]["datasheet_hits"], "count")]
    elif name.startswith("serve_"):
        rows.append(("rps", rate, "req/s"))
    else:
        rows.append((f"{name.split('_')[1]}_mcmd_per_s", rate / 1e6,
                     "Mcmd/s"))
    rows.append(("error_rate", measured["failed"] / measured["attempted"],
                 "ratio"))
    rows.append(("latency_samples",
                 f"{latency['samples']} (p99 tail "
                 f"{latency['p99_tail']})", "count"))
    if measured.get("best"):
        rows.append(("whole_run_throughput",
                     measured["items"] / measured["wall_s"], "1/s"))
    if "setup_s" in metrics:
        rows.append(("setup_times_s", ", ".join(
            f"{value:.4f}" for value in result["setup_times_s"]), "s"))
    return rows


def report(result: Dict[str, Any]) -> Dict[str, Any]:
    """Print one workload's metrics; return its JSON result line."""
    host = result["host"]
    measured = result["measured"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  ({host['nproc']} CPUs, Python "
          f"{host['python']}, numpy {host['numpy']}, load "
          f"{host['load_before'][0]:.2f} -> {host['load_after'][0]:.2f})")
    for metric, entry in sorted(result["metrics"].items()):
        print(f"  {metric:34s} {entry['value']:>14.6g} {entry['unit']}")
    if result["trace"]:
        total = sum(entry["value"]
                    for metric, entry in result["metrics"].items()
                    if metric.endswith(".self_s"))
        print(f"  {'sum of self_s (incl. other)':34s} {total:>14.6g} s "
              f"of {measured['traced_wall_s']:.6g} s traced wall")
    else:
        for metric, value, unit in named_metrics(result):
            text = f"{value:>14.6g}" if isinstance(value, float) \
                else f"{value:>14}"
            print(f"  {metric:34s} {text} {unit}")
    for line in measured["failures"][:10]:
        print(f"  FAILED: {line}")
    return {"correct": measured["failed"] == 0,
            "attempted": measured["attempted"],
            "failed": measured["failed"],
            "metrics": result["metrics"]}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the DRAM power model.")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="one workload (default: all in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="timed seconds per run (default 12, the "
                             "BENCHMARK.json run length)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the separate per-layer traced run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"results directory (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)
    use_src()
    for name in ([args.workload] if args.workload else WORKLOADS):
        line = report(run_workload(name, args.seed, args.seconds,
                                   bool(args.trace), args.out))
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
