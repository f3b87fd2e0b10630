"""Every name in a ``flowgen`` module's ``__all__`` resolves."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import flowgen

MODULES = sorted(m.name for m in pkgutil.iter_modules(flowgen.__path__, "flowgen."))


def test_modules_are_discovered():
    assert {"flowgen.condexpr", "flowgen.edgepred", "flowgen.pipeline"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [attr for attr in exported if not hasattr(module, attr)] == []
