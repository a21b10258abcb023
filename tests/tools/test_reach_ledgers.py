"""DESIGN.md §9's three ledgers name things that exist.

The reach audit (``tests/tools/reach.py``) checks the ledgers against what
the production roots run, which takes minutes.  This checks, in tier-1, that
every module entry is still a file under ``src/repro``, every constructor
entry still names a class whose ``__init__`` has that defaulted parameter,
and every parameter entry still names a module-level function or a method
(by qualname) with that defaulted parameter, so a rename cannot leave a
stale entry behind.
"""

import importlib
import inspect
import pkgutil

import repro
from tests.tools import reach


def _modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield info.name, importlib.import_module(info.name)


def _classes():
    found = {}
    for module_name, module in _modules():
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == module_name:
                found[name] = obj
    return found


def _functions():
    """qualname -> every module-level function or method of that qualname."""
    found = {}
    for module_name, module in _modules():
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module_name:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members = [getattr(m, "__func__", m) for m in vars(obj).values()]
            for member in members:
                if inspect.isfunction(member):
                    found.setdefault(member.__qualname__, []).append(member)
    return found


def _has_default(function, param) -> bool:
    parameter = inspect.signature(function).parameters.get(param)
    return parameter is not None and parameter.default is not inspect.Parameter.empty


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


def test_parameter_ledger_names_defaulted_parameters():
    entries = reach.parameter_ledger()
    assert entries
    functions = _functions()
    for qualname, param in sorted(entries):
        assert qualname in functions, f"no function or method {qualname} in src/repro"
        assert any(_has_default(f, param) for f in functions[qualname]), (
            f"no {qualname} in src/repro has a defaulted {param}"
        )
