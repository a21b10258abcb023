#!/usr/bin/env python3
"""Compare two result files of ``bench/run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first set of runs), B the candidate.
One row per (workload, end-to-end metric), each ratio given with its base:

  better      B's median is better than A's by more than the metric's bound
  worse       B's median is worse than A's by more than the bound
  within      the medians differ by no more than the bound
  unresolved  the run-to-run spread (IQR / median, either side) is wider than
              the bound — unless every run of one side beats every run of
              the other, which settles it

Counts the program makes repeat exactly, so every ``count`` metric of the
traced runs, every ``attempted``/``failed`` of the traced runs and every
digest must be identical in A and B.  Exit code 1 on any ``worse`` row, any
differing exact count or digest, or any run whose outputs were wrong.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

import metrics


def spread(values: Sequence[float]) -> float:
    """Inter-quartile range as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (statistics.median(b) - statistics.median(a)) / statistics.median(a)
    if max(spread(a), spread(b)) > bound:
        if all(sign * y < sign * x for x in a for y in b):
            return "better"
        if all(sign * y > sign * x for x in a for y in b) and worsening > bound:
            return "worse"
        return "unresolved"
    if worsening > bound:
        return "worse"
    return "better" if worsening < -bound else "within"


def by_workload(result: dict, trace: bool) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for record in result["runs"]:
        if record["trace"] == trace:
            grouped.setdefault(record["workload"], []).append(record)
    return grouped


def exact_differences(a: dict, b: dict) -> List[str]:
    """Digests and exact counts that differ between the two result files."""
    problems = []
    for label, result in (("A", a), ("B", b)):
        for record in result["runs"]:
            if not record["correct"]:
                problems.append(
                    f"{label}: {record['workload']} gave wrong outputs: "
                    + "; ".join(record["problems"])
                )
    digests = []
    for result in (a, b):
        seen: Dict[str, set] = {}
        for record in result["runs"]:
            seen.setdefault(record["workload"], set()).add(record["digest"])
        digests.append(seen)
    for workload in sorted(set(digests[0]) | set(digests[1])):
        if digests[0].get(workload) != digests[1].get(workload):
            problems.append(
                f"{workload}: digests {sorted(digests[0].get(workload, ()))} != "
                f"{sorted(digests[1].get(workload, ()))}"
            )
    traced_a, traced_b = by_workload(a, True), by_workload(b, True)
    for workload in sorted(set(traced_a) & set(traced_b)):
        ra, rb = traced_a[workload][0], traced_b[workload][0]
        for key in ("attempted", "failed"):
            if ra[key] != rb[key]:
                problems.append(f"{workload}: {key} {ra[key]} != {rb[key]}")
        for name, unit, _ in metrics.PER_LAYER:
            if unit != "count":
                continue
            va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
            if va != vb:
                problems.append(f"{workload}: {name} {va} != {vb}")
    return problems


def compare(a: dict, b: dict) -> int:
    if a["header"]["seed"] != b["header"]["seed"]:
        print(f"seeds differ ({a['header']['seed']} vs {b['header']['seed']}): "
              "inputs are not the same, nothing to compare", file=sys.stderr)
        return 2
    print(f"A: commit {a['header']['git_commit'][:12]}  "
          f"B: commit {b['header']['git_commit'][:12]}  seed {a['header']['seed']}")
    print(f"{'workload':16s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
          f"{'B/A':>7s} {'IQR A':>6s} {'IQR B':>6s} {'bound':>6s}  verdict")
    runs_a, runs_b = by_workload(a, False), by_workload(b, False)
    worse = 0
    for workload in runs_a:
        if workload not in runs_b:
            continue
        for name, unit, better, bound in metrics.END_TO_END:
            va = [r["metrics"][name]["value"] for r in runs_a[workload]]
            vb = [r["metrics"][name]["value"] for r in runs_b[workload]]
            status = verdict(va, vb, better, bound)
            worse += status == "worse"
            ma, mb = statistics.median(va), statistics.median(vb)
            print(f"{workload:16s} {name:12s} {ma:12.5g} {mb:12.5g} "
                  f"{mb / ma:7.3f} {spread(va):6.1%} {spread(vb):6.1%} "
                  f"{bound:6.0%}  {status} ({len(va)} vs {len(vb)} runs, {unit}, "
                  f"{better} is better, base A)")
    problems = exact_differences(a, b)
    for problem in problems:
        print(f"DIFFERS: {problem}")
    print(f"{worse} worse, {len(problems)} exact difference(s)")
    return 1 if worse or problems else 0


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
