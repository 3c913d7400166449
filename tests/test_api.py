"""Public surface: every exported name resolves, so a deletion cannot leave a stale export,
and importing the CLI stays light."""

import importlib
import os
import subprocess
import sys

import pytest

import randkp


@pytest.mark.parametrize(
    "module", ["randkp", "randkp.randpot", "randkp.spectral", "randkp.theory", "randkp.montecarlo"]
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_cli_import_leaves_out_scipy_integrate():
    # scipy.special serves only the stretched-law tail integral, so a CLI call should not pay its
    # import; scipy.integrate is not used at all
    src = os.path.dirname(os.path.dirname(os.path.abspath(randkp.__file__)))
    code = "import sys, randkp.cli; print([m in sys.modules for m in ('scipy.integrate', 'scipy.special')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.stdout.strip() == "[False, False]"
