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

On every call into ``src/repro`` it also records which defaulted parameters
the caller bound to something other than the default.  It prints how many
defaulted parameters of the functions the roots enter no root ever sets,
and the same count for constructors.  Every such parameter must be in one
of DESIGN.md's two parameter ledgers: a constructor's in "Constructor
parameters only tests set" (one line per class), any other function's or
method's in "Parameters only tests set" (one line per qualname).  A
parameter no root sets that is in neither, or a ledger entry a root now
sets, makes the audit exit 1.

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
#: (file, qualname) -> {defaulted parameter: bound to a non-default value}
params_set = {}
#: code object -> (its params_set entry, defaulted (name, default) pairs
#: not yet seen set); None for code that is not a module-level function or
#: method (nested functions, lambdas, comprehensions, module bodies).
_defaults_of = {}
#: Comprehensions run inside whatever runs them, import time included.
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def is_body(code) -> bool:
    return bool(code.co_flags & CO_NEWLOCALS) and code.co_name not in COMPREHENSIONS


def _local(frame, event, arg):
    if event == "line":
        lines_run[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _function(code, namespace):
    """The function object whose body ``code`` is, found from the module
    globals along ``co_qualname``; None if it cannot be found that way."""
    if "<" in code.co_qualname:
        return None
    obj = None
    for part in code.co_qualname.split("."):
        scope = namespace if obj is None else vars(obj)
        obj = scope.get(part)
        if obj is None:
            return None
    if isinstance(obj, property):
        obj = next((f for f in (obj.fget, obj.fset) if f is not None
                    and f.__code__ is code), None)
    obj = getattr(obj, "__func__", obj)  # classmethod, staticmethod
    return obj if getattr(obj, "__code__", None) is code else None


def _defaulted(code, function):
    """``(name, default)`` of each parameter of ``function`` with a default."""
    positional = code.co_varnames[:code.co_argcount]
    defaults = function.__defaults__ or ()
    pairs = list(zip(positional[len(positional) - len(defaults):], defaults))
    pairs.extend((function.__kwdefaults__ or {}).items())
    return pairs


def _is_default(value, default) -> bool:
    # ``repro.obs.resolve`` turns a ``None`` telemetry into the no-op
    # bundle, so passing that bundle sets nothing.  The module is looked up,
    # not imported: the tracer also runs while ``repro.obs`` initialises.
    noop = getattr(sys.modules.get("repro.obs"), "NOOP_TELEMETRY", None)
    if value is default or (default is None and value is noop):
        return True
    try:
        return type(value) is type(default) and bool(value == default)
    except (TypeError, ValueError):  # e.g. an array compared elementwise
        return False


def _record_call(frame) -> None:
    code = frame.f_code
    if code.co_code[frame.f_lasti + 1] != 0:
        return  # RESUME 1+: a generator resumed, not a fresh call
    try:
        entry = _defaults_of[code]
    except KeyError:
        function = _function(code, frame.f_globals)
        entry = None
        if function is not None:
            pairs = _defaulted(code, function)
            key = (code.co_filename, code.co_qualname)
            seen = params_set.setdefault(key, {})
            for name, _ in pairs:
                seen.setdefault(name, False)
            entry = (seen, [p for p in pairs if not seen[p[0]]])
        _defaults_of[code] = entry
    if not entry or not entry[1]:
        return
    seen, unset = entry
    bound = frame.f_locals
    for pair in list(unset):
        name, default = pair
        if not _is_default(bound.get(name, default), default):
            seen[name] = True
            unset.remove(pair)


def _global(frame, event, arg):
    code = frame.f_code
    if not code.co_filename.startswith(PREFIX):
        return None
    lines_run[code.co_filename].add(frame.f_lineno)
    if is_body(code):
        bodies_run.add(code.co_filename)
        _record_call(frame)
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


def _design_section(title: str) -> str:
    text = (ROOT / "DESIGN.md").read_text()
    return text.partition(title)[2].split("\n#", 1)[0]


def ledger() -> set:
    """Module paths listed under DESIGN.md's "Reached only by tests"."""
    section = _design_section("Reached only by tests")
    return set(re.findall(r"^- `([\w/]+\.py)`", section, re.M))


def _parameter_lines(title: str) -> set:
    """``(name, parameter)`` pairs from ``- `name`: a, b — why`` lines."""
    section = _design_section(f"### {title}\n")
    return {
        (owner, name.strip())
        for owner, names in re.findall(r"^- `([\w.]+)`: ([\w, ]+) —", section, re.M)
        for name in names.split(",")
    }


def constructor_ledger() -> set:
    """``(class, parameter)`` pairs listed under DESIGN.md's "Constructor
    parameters only tests set" (lines ``- `Class`: a, b — why``)."""
    return _parameter_lines("Constructor parameters only tests set")


def parameter_ledger() -> set:
    """``(qualname, parameter)`` pairs listed under DESIGN.md's "Parameters
    only tests set" (lines ``- `Class.method`: a, b — why``)."""
    return _parameter_lines("Parameters only tests set")


def unset_parameters():
    """(all, constructor, other) defaulted parameters of the functions the
    roots entered that no root bound to a non-default value; constructor
    ones as ``(class, parameter)``, the others as ``(qualname, parameter)``."""
    unset, constructors, others = [], set(), set()
    for (_, qualname), seen in params_set.items():
        for name, was_set in seen.items():
            if was_set:
                continue
            unset.append((qualname, name))
            cls, _, method = qualname.rpartition(".")
            if method == "__init__":
                constructors.add((cls, name))
            else:
                others.add((qualname, name))
    return unset, constructors, others


def _check_ledger(kind: str, found: set, listed: set) -> bool:
    print(f"{kind} parameters no root sets: {len(found)}")
    for owner, name in sorted(found - listed):
        print(f"  {owner}({name})  <- not in the ledger")
    for owner, name in sorted(listed - found):
        print(f"ledger entry {owner}({name}) is set by a root now (or gone): drop it")
    return found == listed


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
    unset, constructors, others = unset_parameters()
    print(f"defaulted parameters no root sets: {len(unset)} "
          f"(of {sum(map(len, params_set.values()))} in functions the roots enter)")
    ok = unreached == listed
    ok &= _check_ledger("constructor", constructors, constructor_ledger())
    ok &= _check_ledger("other", others, parameter_ledger())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
