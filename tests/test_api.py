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
    # scipy.integrate serves only the stretched-law quadrature, so a CLI call should not pay its import
    src = os.path.dirname(os.path.dirname(os.path.abspath(randkp.__file__)))
    code = "import sys, randkp.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.stdout.strip() == "False"
