"""DESIGN.md §9's two ledgers name things that exist.

The reach audit (``tests/tools/reach.py``) checks both ledgers against what
the production roots run, which takes minutes.  This checks, in tier-1, that
every module entry is still a file under ``src/repro`` and every
constructor entry still names a class whose ``__init__`` has that defaulted
parameter, so a rename cannot leave a stale entry behind.
"""

import importlib
import inspect
import pkgutil

import repro
from tests.tools import reach


def _classes():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                found[name] = obj
    return found


def test_module_ledger_names_files():
    entries = reach.ledger()
    assert entries
    for name in sorted(entries):
        assert (reach.PACKAGE / name).is_file(), name


def test_constructor_ledger_names_defaulted_parameters():
    entries = reach.constructor_ledger()
    assert entries
    classes = _classes()
    for cls_name, param in sorted(entries):
        assert cls_name in classes, f"no class {cls_name} in src/repro"
        parameters = inspect.signature(classes[cls_name].__init__).parameters
        assert param in parameters, f"{cls_name}.__init__ has no {param}"
        assert parameters[param].default is not inspect.Parameter.empty, (
            f"{cls_name}.__init__({param}) has no default"
        )
