"""Every name a nakul module exports in `__all__` exists in that module."""

import importlib
import pkgutil

import pytest

import nakul

MODULES = sorted(info.name for info in pkgutil.iter_modules(nakul.__path__, "nakul."))


def test_every_module_is_listed():
    assert "nakul.model" in MODULES and "nakul.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [item for item in exported if not hasattr(module, item)]
    assert missing == []
