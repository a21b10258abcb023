#!/usr/bin/env python3
"""Reach audit: which ``src/repro`` code a production root ever runs.

Runs every production root in this one process under a ``sys.settrace``
line tracer restricted to ``src/repro/``:

* every experiment, via ``run_experiment(id, fast=True)`` and its report;
* the CLI (``repro.experiments.runner.main``);
* every ``BENCHMARK.json`` workload at smoke scale, imported from ``bench/``
  and run untraced, so nothing is written there;
* every script under ``examples/``.

It prints the executable-line totals and each module that defines functions
but runs none of their bodies. Such a module must be listed in DESIGN.md's
"Reached only by tests" ledger, and every ledger entry must be such a
module; otherwise the audit exits 1.

Run:  PYTHONPATH=src python tests/tools/reach.py  (several minutes)
"""

import contextlib
import dis
import io
import json
import re
import runpy
import sys
from collections import defaultdict
from inspect import CO_NEWLOCALS
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
PREFIX = str(PACKAGE) + "/"

lines_run = defaultdict(set)   # file -> line numbers run
bodies_run = set()             # files that ran at least one function body
#: Comprehensions run inside whatever runs them, import time included.
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def is_body(code) -> bool:
    return bool(code.co_flags & CO_NEWLOCALS) and code.co_name not in COMPREHENSIONS


def _local(frame, event, arg):
    if event == "line":
        lines_run[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(PREFIX):
        return None
    lines_run[code.co_filename].add(frame.f_lineno)
    if is_body(code):
        bodies_run.add(code.co_filename)
    return _local


def run_roots() -> None:
    from repro.experiments import runner
    from repro.experiments.registry import EXPERIMENTS, run_experiment

    for exp_id in sorted(EXPERIMENTS):
        run_experiment(exp_id, fast=True).report()
    runner.main(["table1"])
    sys.dont_write_bytecode = True  # leave bench/ as it is
    sys.path.insert(0, str(ROOT / "bench"))
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        harness.run_workload(workload["name"], 1, 0.0, trace=False, smoke=True)
    for script in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(script), run_name="__main__")


def executable(path: Path):
    """(all executable lines, whether any function is defined) of a file."""
    lines, has_function = set(), False
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        has_function |= is_body(code)
        lines.update(n for _, n in dis.findlinestarts(code) if n)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines, has_function


def ledger() -> set:
    """Module paths listed under DESIGN.md's "Reached only by tests"."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.partition("Reached only by tests")[2].split("\n#", 1)[0]
    return set(re.findall(r"^- `([\w/]+\.py)`", section, re.M))


def main() -> int:
    sys.settrace(_global)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            run_roots()
    finally:
        sys.settrace(None)
    total = run = 0
    unrun, unreached = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        lines, has_function = executable(path)
        hit = lines & lines_run[str(path)]
        total, run = total + len(lines), run + len(hit)
        name = str(path.relative_to(PACKAGE))
        unrun[name] = len(lines) - len(hit)
        if has_function and str(path) not in bodies_run:
            unreached.add(name)
    print(f"executable lines in src/repro: {total}; run: {run}; "
          f"not run: {total - run} ({100 * (total - run) / total:.1f} %)")
    print("most lines not run:")
    for name in sorted(unrun, key=lambda n: -unrun[n])[:10]:
        print(f"  {unrun[name]:5d}  {name}")
    listed = ledger()
    print("modules that run no function body:")
    for name in sorted(unreached):
        print(f"  {name}" + ("" if name in listed else "  <- not in the ledger"))
    for name in sorted(listed - unreached):
        print(f"ledger entry {name} is reached now (or gone): drop it")
    return 0 if unreached == listed else 1


if __name__ == "__main__":
    sys.exit(main())
