"""Every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import wigsim

MODULES = ["wigsim"] + [f"wigsim.{m.name}" for m in pkgutil.iter_modules(wigsim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
