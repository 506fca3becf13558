"""Every name a module exports in __all__ resolves, so a removal cannot leave a dangling export."""

import importlib

import pytest


@pytest.mark.parametrize(
    "module", ["renyiqnn", "renyiqnn.models", "renyiqnn.plateau", "renyiqnn.swaptest", "renyiqnn.training"]
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
