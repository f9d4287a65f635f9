"""Every name a suptest module exports through __all__ exists and has a
user outside its module, and the README's library example runs on the
top-level names."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import suptest

_MODULES = sorted(info.name for info in pkgutil.iter_modules(suptest.__path__)
                  if info.name != "__main__")
_ROOT = Path(__file__).resolve().parents[1]


def _names_used_outside():
    """(module, name) pairs that something outside the module uses: another
    suptest module, by `from .module import name` or as `module.name` after
    `from . import module`, or the console scripts of pyproject.toml."""
    used = set()
    for path in Path(suptest.__file__).resolve().parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module:
                        used.add((node.module, alias.name))
                    else:
                        modules[alias.asname or alias.name] = alias.name
        used.update((modules[node.value.id], node.attr) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules)
    scripts = (_ROOT / "pyproject.toml").read_text(encoding="utf-8")
    used.update(re.findall(r'"suptest\.(\w+):(\w+)"', scripts))
    return used


def test_every_module_is_covered():
    assert {"baselines", "peeling", "simulate", "thresholds"} <= set(_MODULES)


@pytest.mark.parametrize("name", [""] + _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module("suptest" + (f".{name}" if name else ""))
    exported = module.__all__
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", [""] + _MODULES)
def test_every_export_is_used_outside_its_module(name):
    # a name stays in __all__ only if another suptest module imports it, a
    # console script names it or the README names it; the rest of a module
    # is importable by name all the same, tests and oracles included
    module = importlib.import_module("suptest" + (f".{name}" if name else ""))
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    used = _names_used_outside()
    unused = [n for n in module.__all__
              if (name, n) not in used and not re.search(rf"\b{n}\b", readme)]
    assert unused == []


def test_readme_library_example_prints_j_star_and_the_rejections(capsys):
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```", readme, re.DOTALL | re.MULTILINE)
    namespace = {}
    exec(example, namespace)
    result = namespace["result"]
    assert capsys.readouterr().out == f"{result.j_star} {result.rejected_indices}\n"
    assert result.j_star == result.rejected_indices.size > 0
