"""Package surface: every name a module exports resolves."""

import importlib
import pkgutil

import pytest

import liftbank

MODULES = [f"liftbank.{m.name}" for m in pkgutil.iter_modules(liftbank.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_exist(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists missing names {missing}"
