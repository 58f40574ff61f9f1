#!/usr/bin/env python3
"""Compare two result sets against the bounds in ``BENCHMARK.json``.

    python3 benchmarks/e2e/agree.py A.json B.json

``A`` is the reference (the parent commit, or the earlier of two runs
of one commit), ``B`` the candidate.  One row per end-to-end metric and
workload: each side's median and spread (the distance between the first
and third quartile as a share of the median), how much ``B``'s median
is worse than ``A``'s, and a verdict:

* ``within``      ``B`` is not worse than ``A`` by more than the bound;
* ``outside``     it is;
* ``unresolved``  a side's spread exceeds the bound, so the medians
                  cannot settle it - unless every ``B`` run reads better
                  than every ``A`` run, which counts as ``within``.

Exit code 0 when every row is ``within``, 1 otherwise, 2 on unusable
input (smoke results are refused: their windows are too short to mean
anything).
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the range, with
    fewer than four values)."""
    middle = statistics.median(values)
    if len(values) < 2 or middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def worsening(reference: float, candidate: float, better: str) -> float:
    """How much worse ``candidate`` is, as a share of ``reference``
    (negative: it is better)."""
    change = (candidate - reference) / abs(reference)
    return change if better == "lower" else -change


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    worse = worsening(statistics.median(a), statistics.median(b), better)
    if max(spread(a), spread(b)) > bound:
        b_wins = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("within" if b_wins else "unresolved"), worse
    return ("within" if worse <= bound else "outside"), worse


def load(path: str) -> Dict[Tuple[str, str], List[float]]:
    """``(workload, metric) -> values`` of a result set's untraced runs."""
    runs = json.loads(Path(path).read_text())["runs"]
    if any(run["stamp"]["smoke"] for run in runs):
        raise ValueError(f"{path} holds smoke results; agree.py refuses them")
    values: Dict[Tuple[str, str], List[float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, entry in run["metrics"].items():
            values.setdefault((run["workload"], name), []).append(entry["value"])
    return values


def compare(a_path: str, b_path: str) -> Tuple[List[Dict[str, Any]], bool]:
    declared = json.loads(BENCHMARK_JSON.read_text())
    a, b = load(a_path), load(b_path)
    rows = []
    for workload in (entry["name"] for entry in declared["workloads"]):
        for entry in declared["end_to_end"]:
            key = (workload, entry["name"])
            if key not in a or key not in b:
                raise ValueError(f"{key} is missing from a result set")
            outcome, worse = verdict(a[key], b[key], entry["better"], entry["bound"])
            rows.append(
                {
                    "workload": workload,
                    "metric": entry["name"],
                    "unit": entry["unit"],
                    "bound": entry["bound"],
                    "a_median": statistics.median(a[key]),
                    "a_spread": spread(a[key]),
                    "a_runs": len(a[key]),
                    "b_median": statistics.median(b[key]),
                    "b_spread": spread(b[key]),
                    "b_runs": len(b[key]),
                    "worse_by": worse,
                    "verdict": outcome,
                }
            )
    return rows, all(row["verdict"] == "within" for row in rows)


def render(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<14}{'metric':<20}{'A median':>12}{'spread':>8}"
        f"{'B median':>12}{'spread':>8}{'worse by':>10}{'bound':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<14}{row['metric']:<20}"
            f"{row['a_median']:>12.4f}{row['a_spread']:>8.3f}"
            f"{row['b_median']:>12.4f}{row['b_spread']:>8.3f}"
            f"{row['worse_by']:>+10.3f}{row['bound']:>7.2f}  {row['verdict']}"
            f"  ({row['a_runs']}+{row['b_runs']} runs, {row['unit']})"
        )
    return "\n".join(lines)


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        rows, agreed = compare(argv[0], argv[1])
    except (OSError, ValueError, KeyError) as exc:
        print(f"agree.py: {exc}", file=sys.stderr)
        return 2
    print(render(rows))
    print("AGREE" if agreed else "DO NOT AGREE")
    return 0 if agreed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
