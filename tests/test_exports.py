"""Every name a module exports through __all__ must be bound in it, and
every name it imports must be read in it.

A stale __all__ entry breaks `from shadow_wlo.<module> import *` and
misleads readers about the public surface, and nothing else would notice
it when a function leaves a module.  An import nobody reads is the same
kind of leftover: it outlives the code that used it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import shadow_wlo
from test_bench_layers import _layers

MODULES = ["shadow_wlo"] + [
    f"shadow_wlo.{info.name}"
    for info in pkgutil.iter_modules(shadow_wlo.__path__)]


def test_the_submodules_are_found():
    assert {"shadow_wlo.complex", "shadow_wlo.lie", "shadow_wlo.discrete",
            "shadow_wlo.statesum"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def _imported_names(tree):
    """The names a module's import statements bind, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_read(name):
    """The package re-exports what its __init__ imports, and the
    benchmark's tracer wraps the LAYERS attributes of the modules that
    bind them; every other imported name must be read where it is bound.
    """
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exempt = {attr for mod, attr, _, _ in _layers()
              if name == f"shadow_wlo.{mod}"}
    if name == "shadow_wlo":
        exempt |= set(module.__all__)
    unread = sorted(set(_imported_names(tree)) - read - exempt)
    assert unread == []
