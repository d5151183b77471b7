"""Every name a module exports resolves, so a deleted helper cannot stay exported."""

import importlib
import pkgutil

import pytest

import bcdexact

MODULES = ["bcdexact"] + [
    f"bcdexact.{info.name}" for info in pkgutil.iter_modules(bcdexact.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
