#!/usr/bin/env python3
"""Is the benchmark steady?  ``python3 bench/spread.py [--seeds 10] [NAME ...]``.

Runs each workload once per seed (1..N, one process after another) exactly as
the driver does and prints, per end-to-end metric, the inter-quartile range of
the N values as a share of their median beside the metric's bound.  A spread
above a third of the bound is marked; above the bound the benchmark could not
tell a regression from noise, and the exit code is 1.  ``setup_s`` is shown
but never fails the check.  Re-run this whenever a workload is resized.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import metrics
from compare import spread

REPO_ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args(argv)

    too_wide = 0
    for workload in args.workloads:
        values = {name: [] for name, _, _, _ in metrics.END_TO_END}
        for seed in range(1, args.seeds + 1):
            done = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().rsplit("\n", 1)[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: wrong outputs "
                      f"({result['failed']} of {result['attempted']} failed)")
                too_wide += 1
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for name, _, _, bound in metrics.END_TO_END:
            share = spread(values[name])
            mark = ""
            if share > bound and name != "setup_s":
                mark, too_wide = "  WIDER THAN THE BOUND", too_wide + 1
            elif share > bound / 3:
                mark = "  above a third of the bound"
            print(f"{workload:16s} {name:12s} median {statistics.median(values[name]):12.5g}  "
                  f"spread {share:6.2%}  bound {bound:4.0%}{mark}", flush=True)
    return 1 if too_wide else 0


if __name__ == "__main__":
    sys.exit(main())
