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
