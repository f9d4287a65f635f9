"""Every name a suptest module exports through __all__ exists, and the
README's library example runs on the top-level names."""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_library_example_prints_j_star_and_the_rejections(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    namespace = {}
    exec(example, namespace)
    result = namespace["result"]
    assert capsys.readouterr().out == f"{result.j_star} {result.rejected_indices}\n"
    assert result.j_star == result.rejected_indices.size > 0
