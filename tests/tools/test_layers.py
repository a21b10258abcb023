"""Every import in ``src/repro`` points down the ranks, and the runtime needs
nothing outside the standard library.

The layers of ``repro`` are ranked (DESIGN.md §2, "Layers"); a module may
import its own layer and any layer of a lower rank, never a higher one.  The
scan reads every ``import`` node of a module — at module level, inside a
function and under ``TYPE_CHECKING`` alike — so a lazy import cannot hide a
cycle.  It also fails on any top-level module that is neither ``repro`` nor
in the standard library (``sys.stdlib_module_names``), and on relative
imports, which ``src/`` does not use.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"

#: Lowest first.  ``errors`` is the module ``repro/errors.py``.
RANKS = (
    "errors",
    "obs",
    "netsim",
    "resilience",
    "scion",
    "endhost",
    "core",
    "sciera",
    "harness",
    "experiments",
)
RANK = {name: rank for rank, name in enumerate(RANKS)}


def layer_findings(source: str, layer: str):
    """(line, message) for each import of ``source`` that a module of
    ``layer`` may not make."""
    findings = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                findings.append((node.lineno, "relative import"))
                continue
            targets = [node.module]
        else:
            continue
        for target in targets:
            parts = target.split(".")
            if parts[0] != "repro":
                if parts[0] != "__future__" and parts[0] not in sys.stdlib_module_names:
                    findings.append((node.lineno, f"third-party import {target}"))
            elif len(parts) > 1 and RANK[parts[1]] > RANK[layer]:
                findings.append((node.lineno, f"{target} is above {layer}"))
    return findings


def test_scanner_sees_function_and_type_checking_imports():
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy as np\n"
        "from repro.errors import ReproError\n"
        "from . import chaos\n"
        "if TYPE_CHECKING:\n"
        "    from repro.resilience.overload import OverloadGuard\n"
        "def f():\n"
        "    import repro.scion.topology\n"
    )
    assert sorted(layer_findings(source, "netsim")) == [
        (2, "third-party import numpy"),
        (4, "relative import"),
        (6, "repro.resilience.overload is above netsim"),
        (8, "repro.scion.topology is above netsim"),
    ]


def test_every_layer_is_ranked():
    layers = {path.stem for path in PACKAGE.iterdir()
              if path.name not in ("__init__.py", "__pycache__")}
    assert layers == set(RANKS)


def test_imports_point_down_the_ranks_and_stay_in_the_stdlib():
    findings = [
        f"{path.relative_to(ROOT)}:{line}: {message}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.parent != PACKAGE or path.name != "__init__.py"
        for line, message in layer_findings(
            path.read_text(), path.relative_to(PACKAGE).parts[0].removesuffix(".py"))
    ]
    assert not findings, "layer violations:\n" + "\n".join(findings)
