"""Every mbem module's public surface names what the module defines,
every module-level import is used, no handler catches every exception, and
no function rebinds a name outside its own scope.

The benchmark tracer (perfbench/spans.py) looks up each __all__ entry
with getattr(mod, name, None) and skips what it does not find, so a
stale entry would drop a layer from the trace without a sign.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import mbem

MODULES = ["mbem"] + [f"mbem.{info.name}"
                      for info in pkgutil.iter_modules(mbem.__path__)]


def _tree(name):
    return ast.parse(Path(importlib.import_module(name).__file__).read_text())


@pytest.mark.parametrize("name", MODULES)
def test_all_names_what_the_module_defines(name):
    mod = importlib.import_module(name)
    defined = set()
    for node in _tree(name).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    # __all__ may list a module-level constant (methods.METHODS); a
    # function or class must be defined in the module, not imported.
    stale = [entry for entry in getattr(mod, "__all__", ())
             if entry not in defined
             or getattr(getattr(mod, entry), "__module__", name) != name]
    assert stale == []


@pytest.mark.parametrize("name", MODULES)
def test_every_module_level_import_is_used(name):
    tree = _tree(name)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [alias for alias in imported if alias not in used] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_handler_catches_every_exception(name):
    # The harness and the CLI catch ValueError and RuntimeError only; a
    # broad handler below them would turn a bug into a failed cell.
    broad = {"Exception", "BaseException"}
    caught = []
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ExceptHandler):
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            if any(t is None or getattr(t, "id", None) in broad
                   for t in types):
                caught.append(node.lineno)
    assert caught == []


@pytest.mark.parametrize("name", MODULES)
def test_no_function_rebinds_a_global_or_nonlocal_name(name):
    # A function that rebinds a module or enclosing name keeps state its
    # callers cannot see; harness keeps a pool worker's inputs in a cache.
    rebinds = [node.lineno for node in ast.walk(_tree(name))
               if isinstance(node, (ast.Global, ast.Nonlocal))]
    assert rebinds == []
