"""Every public export list names what its module defines, once."""

import importlib
import pkgutil

import pytest

import icuxai

MODULES = [icuxai] + [
    importlib.import_module(f"icuxai.{info.name}")
    for info in pkgutil.iter_modules(icuxai.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_all_lists_names_that_resolve_once(module):
    names = list(module.__all__)
    assert sorted({n for n in names if names.count(n) > 1}) == []
    assert [n for n in names if not hasattr(module, n)] == []
