"""Every exported name of the package and of its modules resolves."""

from __future__ import annotations

import importlib

import pytest

MODULES = ("delayheom", "delayheom.qnm", "delayheom.engine",
           "delayheom.models", "delayheom.oracle")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
