"""What a fresh process loads when it imports suptest.

suptest.numerics takes its four scipy.special ufuncs from the compiled
scipy.special._ufuncs without running scipy/special/__init__.py, whose
array-API layer costs more than the rest of the import. Each test runs a
fresh interpreter, since the loader only acts on the first import.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import suptest

_SRC = str(Path(suptest.__file__).resolve().parents[1])

# modules that scipy/special/__init__.py loads and a release does not need
_UNNEEDED = (
    "scipy.special._support_alternative_backends",
    "scipy._lib._array_api",
    "numpy.f2py",
    "numpy.testing",
    "unittest",
    "email",
)

_UFUNCS = ("ndtr", "ndtri", "erfcx", "log_ndtr")


def _run(code: str):
    """Runs code in a fresh interpreter; returns the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    env.pop("SCIPY_ARRAY_API", None)
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("module", ["suptest", "suptest.cli"])
def test_import_skips_scipy_special_package(module):
    loaded = _run(
        f"import sys, json, scipy, {module}; "
        f"print(json.dumps({{'mods': sorted(sys.modules), "
        f"'special_attr': 'special' in vars(scipy)}}))")
    mods = loaded["mods"]
    assert [m for m in mods if m.startswith(_UNNEEDED)] == []
    # the stand-in package is gone from sys.modules and from scipy
    assert "scipy.special" not in mods
    assert not loaded["special_attr"]
    assert "scipy.special._ufuncs" in mods


def test_scipy_special_after_import_is_the_real_package():
    got = _run(
        "import json, suptest.cli\n"
        "from suptest import numerics\n"
        "import scipy.special\n"
        "from scipy import optimize\n"
        "root = optimize.brentq(lambda x: scipy.special.ndtr(x) - 0.975, 0.0, 5.0)\n"
        f"print(json.dumps({{'same': [getattr(scipy.special, f) is getattr(numerics, f) "
        f"for f in {_UFUNCS!r}], 'root': root, "
        "'full': hasattr(scipy.special, 'gammaln') and hasattr(scipy.special, 'logsumexp')}))")
    assert got["same"] == [True] * len(_UFUNCS)
    assert got["full"]
    assert abs(got["root"] - 1.959963984540054) < 1e-9


def test_scipy_special_imported_first_is_reused():
    got = _run(
        "import json, scipy.special\n"
        "from suptest import numerics\n"
        f"print(json.dumps([getattr(scipy.special, f) is getattr(numerics, f) "
        f"for f in {_UFUNCS!r}]))")
    assert got == [True] * len(_UFUNCS)


def test_no_module_has_a_top_level_scipy_import():
    # numerics loads its ufuncs through _special_ufuncs; a top-level
    # `from scipy import special` anywhere would load the whole package
    package = Path(suptest.__file__).parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n == "scipy" or n.startswith("scipy.") for n in names):
                importers.append(path.name)
    assert importers == []
