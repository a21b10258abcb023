"""Every name a module of ``src/repro``, ``tests/`` or ``examples/`` imports,
it uses.

A stdlib ``ast`` scan (no linter needed): each name an ``import`` binds must
be referenced somewhere in the module — as a name, as the base of an
attribute, inside a string annotation, or in ``__all__``.  Package
``__init__.py`` files are skipped (they import to re-export), and so is
``from __future__ import ...``.  Names used only under ``TYPE_CHECKING``
count, because the scan reads the whole module.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"


def _annotation_names(node):
    """Names inside an annotation, string annotations included."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed)


def unused_imports(source: str):
    """(line, name) for each imported name ``source`` never references."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                elt.value for elt in getattr(node.value, "elts", ())
                if isinstance(elt, ast.Constant)
            )
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scanner_sees_string_annotations_and_type_checking():
    source = (
        "from typing import TYPE_CHECKING, Optional\n"
        "import os.path\n"
        "from a import b as c, d\n"
        "if TYPE_CHECKING:\n"
        "    from e import F\n"
        "def g(x: 'Optional[F]') -> None:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [(3, "c"), (3, "d")]


def _findings(directory: Path):
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(directory.rglob("*.py"))
        if path.name != "__init__.py"
        for line, name in unused_imports(path.read_text())
    ]


def test_no_unused_imports_in_src():
    findings = _findings(PACKAGE)
    assert not findings, "unused imports:\n" + "\n".join(findings)


@pytest.mark.parametrize("directory", ["tests", "examples"])
def test_no_unused_imports_outside_src(directory):
    findings = _findings(ROOT / directory)
    assert not findings, "unused imports:\n" + "\n".join(findings)
