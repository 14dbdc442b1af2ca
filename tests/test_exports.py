"""Module surface: every name in `__all__` exists, and importing the CLI loads no scipy."""

import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_importing_the_cli_loads_no_scipy():
    """scipy.special alone took most of `import nakul.cli`; nothing in nakul needs scipy."""
    src = os.path.dirname(os.path.dirname(nakul.__file__))
    probe = "import sys, nakul.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, timeout=60, env=env)
    assert out.stdout.strip() == "[]"
