"""Every name a suptest module exports through __all__ exists."""

import importlib
import pkgutil

import pytest

import suptest

_MODULES = sorted(info.name for info in pkgutil.iter_modules(suptest.__path__)
                  if info.name != "__main__")


def test_every_module_is_covered():
    assert {"baselines", "peeling", "simulate", "thresholds"} <= set(_MODULES)


@pytest.mark.parametrize("name", [""] + _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("suptest" + (f".{name}" if name else ""))
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
