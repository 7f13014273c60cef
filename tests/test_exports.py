"""Every name a module exports through __all__ must be bound in it.

A stale __all__ entry breaks `from shadow_wlo.<module> import *` and
misleads readers about the public surface, and nothing else would notice
it when a function leaves a module.
"""

import importlib
import pkgutil

import pytest

import shadow_wlo

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
