"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

import pytest

import nlbt

MODULES = ["nlbt"] + [f"nlbt.{m.name}" for m in pkgutil.iter_modules(nlbt.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert missing == []
