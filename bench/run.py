#!/usr/bin/env python3
"""The repo's benchmark: ``python3 bench/run.py [--workload NAME] ...``.

With ``--workload`` it runs that workload once in this process and prints
every metric by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

Without ``--workload`` it runs all five workloads one after another, each in
a fresh Python process (untraced ``--repeat`` times, then traced once), and
writes every record with a run header to ``--out`` (default
``bench/out/results.json``) — the input of ``bench/compare.py``.

Nothing runs in parallel and no thread is started: the box has two shared
cores, and a second busy process would be measured instead of the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1


def benchmark_spec() -> dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload, in this process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the generated inputs (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of measured work (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: per-layer metrics from a traced slice")
    parser.add_argument("--smoke", action="store_true",
                        help="one set-up and one slice of 1/50 the operations")
    parser.add_argument("--repeat", type=int, default=1,
                        help="untraced runs per workload when running all")
    parser.add_argument("--out", type=Path, default=None,
                        help="write the full record(s) to this JSON file")
    return parser.parse_args(argv)


def run_header() -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "load_1m_at_start": os.getloadavg()[0],
    }


def warn_if_busy() -> None:
    load, cores = os.getloadavg()[0], os.cpu_count() or 1
    if load > cores - 1:
        print(f"warning: 1-min load average {load:.2f} exceeds nproc-1 = "
              f"{cores - 1}; timings will be noisy", file=sys.stderr)


def print_record(record: dict) -> None:
    mode = "traced" if record["trace"] else "untraced"
    print(f"== {record['workload']} ({mode}, seed {record['seed']}) ==")
    for key, entry in record["metrics"].items():
        print(f"{key:36s} {entry['value']:>16.6g} {entry['unit']}")
    for key, value in record["diagnostics"].items():
        if not isinstance(value, (dict, list)):
            print(f"  {key}: {value}")
    pinned = record["expect_digest"] or "none for this seed"
    print(f"  digest: {record['digest']} (pinned: {pinned})")
    print(f"  attempted {record['attempted']}, failed {record['failed']}")
    for problem in record["problems"]:
        print(f"  WRONG: {problem}")


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    try:
        import harness
    except ImportError as exc:
        print(f"cannot import the program under src/: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    warn_if_busy()
    seconds = benchmark_spec()["run_seconds"] if args.seconds is None else args.seconds
    record = harness.run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke
    )
    print_record(record)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        key: record[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


def run_all(args: argparse.Namespace) -> int:
    names = [w["name"] for w in benchmark_spec()["workloads"]]
    out = args.out or BENCH_DIR / "out" / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = out.with_suffix(".run.json")
    result = {"header": dict(run_header(), seed=args.seed, smoke=args.smoke), "runs": []}
    for name in names:
        for trace in [0] * args.repeat + [1]:
            command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--trace", str(trace),
                       "--out", str(scratch)]
            if args.seconds is not None:
                command += ["--seconds", str(args.seconds)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # Everything but the machine-readable last line.
            print(done.stdout.rsplit("\n", 2)[0])
            if done.returncode != 0:
                print(f"{name}: exit code {done.returncode}", file=sys.stderr)
                return done.returncode
            result["runs"].append(json.loads(scratch.read_text()))
            scratch.unlink()
    out.write_text(json.dumps(result, indent=1))
    wrong = [r["workload"] for r in result["runs"] if not r["correct"]]
    print(f"wrote {out}" + (f"; WRONG outputs in: {', '.join(wrong)}" if wrong else ""))
    return 1 if wrong else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
