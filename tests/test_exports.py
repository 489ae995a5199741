"""Every exported name resolves: a stale ``__all__`` entry left behind by a
deletion raises nothing at import, only at ``from ... import *``."""

import importlib
import pkgutil

import pytest

import omsqueeze

MODULES = ["omsqueeze"] + sorted(
    f"omsqueeze.{info.name}" for info in pkgutil.iter_modules(omsqueeze.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in getattr(module, "__all__", ())
               if not hasattr(module, entry)]
    assert missing == []


def test_package_lists_each_module_name_once():
    # the package's list is the union of its modules' lists
    names = {"BACKEND", "__version__"}
    for name in MODULES[1:]:
        names.update(getattr(importlib.import_module(name), "__all__", ()))
    assert len(omsqueeze.__all__) == len(set(omsqueeze.__all__))
    assert set(omsqueeze.__all__) == names


@pytest.mark.parametrize("name", [m for m in MODULES[1:] if m != "omsqueeze.cli"])
def test_every_library_module_lists_its_names(name):
    assert hasattr(importlib.import_module(name), "__all__")
