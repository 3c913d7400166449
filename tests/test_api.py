"""Public surface: every exported name resolves, so a deletion cannot leave a stale export."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["randkp", "randkp.randpot", "randkp.spectral", "randkp.theory", "randkp.montecarlo"]
)
def test_every_export_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
