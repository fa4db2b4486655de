"""Compare a parent result set with a change result set.

Usage: ``python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR``

Each directory holds the ``result.json`` files of untraced ``run.py``
runs (found recursively).  Runs of one workload pair up in start
order, so measure the two commits alternating.  Every (metric,
workload) gets one verdict, with the bound and direction from
``BENCHMARK.json``:

* ``improved`` — at least 10 pairs, the change wins at least 9 in 10
  of them (ties count for neither), its median beats the parent's by
  more than the parent's interquartile range, and it fails no larger
  share of operations;
* ``unresolved`` — the run-to-run spread (interquartile range over
  median, either side) is wider than the bound, unless every change
  run is better than every parent run;
* ``regressed`` — the change median is worse than the parent's by more
  than the bound;
* ``no change`` — anything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from harness import ROOT, quartiles

MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9


def load_results(directory: Path) -> Dict[str, List[Dict[str, Any]]]:
    """Untraced results per workload, oldest first."""
    runs: Dict[str, List[Dict[str, Any]]] = {}
    for path in sorted(Path(directory).rglob("result.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if not result.get("trace"):
            runs.setdefault(result["workload"], []).append(result)
    for results in runs.values():
        results.sort(key=lambda result: result["started_unix"])
    return runs


def failed_share(results: Sequence[Dict[str, Any]]) -> float:
    attempted = sum(r["measured"]["attempted"] for r in results)
    failed = sum(r["measured"]["failed"] for r in results)
    return failed / attempted if attempted else 0.0


def verdict(parent: Sequence[float], change: Sequence[float],
            better: str, bound: float,
            parent_failed: float = 0.0, change_failed: float = 0.0
            ) -> Tuple[str, Dict[str, Any]]:
    """The verdict on one (metric, workload) and the numbers behind it.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` the share of
    the parent median by which the metric may worsen.
    """
    sign = 1.0 if better == "higher" else -1.0
    p, c = quartiles(list(parent)), quartiles(list(change))
    # Positive gain = the change is better, as a share of the parent.
    gain = sign * (c["median"] - p["median"]) / abs(p["median"])
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    spread = max((q["q3"] - q["q1"]) / abs(q["median"]) for q in (p, c))
    all_better = min(sign * value for value in change) \
        > max(sign * value for value in parent)
    details = {"parent": p, "change": c, "gain": gain, "wins": wins,
               "pairs": len(pairs), "spread": spread,
               "runs": (len(parent), len(change))}
    if (len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pairs)
            and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]
            and change_failed <= parent_failed):
        return "improved", details
    if spread > bound and not all_better:
        return "unresolved", details
    if -gain > bound:
        return "regressed", details
    return "no change", details


def compare(parent_dir: Path, change_dir: Path,
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (metric, workload) present on both sides."""
    parent_runs = load_results(parent_dir)
    change_runs = load_results(change_dir)
    rows = []
    for workload in sorted(set(parent_runs) & set(change_runs)):
        old, new = parent_runs[workload], change_runs[workload]
        shares = (failed_share(old), failed_share(new))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            result, details = verdict(
                [r["metrics"][name]["value"] for r in old],
                [r["metrics"][name]["value"] for r in new],
                metric["better"], metric["bound"], *shares)
            rows.append(dict(details, workload=workload, metric=name,
                             unit=metric["unit"], bound=metric["bound"],
                             verdict=result, failed=shares))
    return rows


def _fmt(q: Dict[str, float]) -> str:
    return f"{q['median']:.6g} [{q['q1']:.6g}, {q['q3']:.6g}]"


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    benchmark = json.loads(args.benchmark.read_text(encoding="utf-8"))
    rows = compare(args.parent, args.change, benchmark)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 1
    print(f"{'workload':14s} {'metric':12s} {'verdict':10s} "
          f"{'parent median [q1, q3]':34s} {'change median [q1, q3]':34s} "
          f"{'gain':>7s} {'bound':>6s} {'wins':>6s} runs  failed p/c")
    for row in rows:
        print(f"{row['workload']:14s} {row['metric']:12s} "
              f"{row['verdict']:10s} {_fmt(row['parent']):34s} "
              f"{_fmt(row['change']):34s} {row['gain']:+7.1%} "
              f"{row['bound']:6.0%} {row['wins']:>2d}/{row['pairs']:<3d} "
              f"{row['runs'][0]}/{row['runs'][1]}  "
              f"{row['failed'][0]:.2%}/{row['failed'][1]:.2%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
