"""Scheme comparison harness (the quantitative side of Section V)."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..description import DramDescription
from ..engine import EvaluationSession, ensure_session
from .base import Scheme, SchemeResult
from .library import ALL_SCHEMES
from ..analysis.reporting import format_table


def compare_schemes(device: DramDescription,
                    schemes: Sequence[Scheme] = ALL_SCHEMES,
                    session: Optional[EvaluationSession] = None
                    ) -> List[SchemeResult]:
    """Evaluate every scheme on one device, sorted by power saving.

    One shared ``session`` means the unmodified baseline model is
    built once for the whole comparison instead of once per scheme.
    Each scheme builds its own transformed models, so the comparison
    runs serially.
    """
    session = ensure_session(session)
    results = [scheme.evaluate(device, session=session)
               for scheme in schemes]
    results.sort(key=lambda result: -result.power_saving)
    return results


def pareto_frontier(results: Iterable[SchemeResult]
                    ) -> List[SchemeResult]:
    """Non-dominated schemes in (power saving, area overhead) space.

    A scheme is dominated when another saves at least as much power at
    no more area cost (with at least one strict inequality).  The paper's
    §V argument is exactly this frontier: SSA is dominated by SBA, the
    CSL-ratio architecture anchors the zero-area end.
    """
    candidates = list(results)
    frontier = []
    for result in candidates:
        dominated = False
        for other in candidates:
            if other is result:
                continue
            at_least_as_good = (other.power_saving >= result.power_saving
                                and other.area_overhead
                                <= result.area_overhead)
            strictly_better = (other.power_saving > result.power_saving
                               or other.area_overhead
                               < result.area_overhead)
            if at_least_as_good and strictly_better:
                dominated = True
                break
        if not dominated:
            frontier.append(result)
    frontier.sort(key=lambda result: result.area_overhead)
    return frontier


def scheme_report(results: Iterable[SchemeResult], title: str = "") -> str:
    """Render a scheme comparison as a plain-text table."""
    rows = []
    for result in results:
        rows.append([
            result.scheme,
            round(result.baseline.energy_per_bit_pj, 1),
            round(result.modified.energy_per_bit_pj, 1),
            f"{result.power_saving:+.1%}",
            f"{result.act_energy_saving:+.1%}",
            f"{result.area_overhead:+.1%}",
        ])
    headers = ["scheme", "base pJ/bit", "new pJ/bit", "power saving",
               "act-energy saving", "area overhead"]
    return format_table(headers, rows, title=title)
