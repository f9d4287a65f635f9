"""Numerical primitives shared by the whole package.

Standard normal CDF/quantile/density, the CDF of a normal plus an
independent Laplace variable, deterministic splittable random streams,
and the count of cores that parallel work may use. Everything downstream
(noise calibration, the noisy p-value transform, the simulation engine)
reduces to these functions.

This is the only module that imports scipy at load time, and it takes
only four ufuncs: ndtr, ndtri, log_ndtr and erfcx (see _special_ufuncs).
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import types
from dataclasses import dataclass

import numpy as np

__all__ = [
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "normal_laplace_cdf",
    "ndtr",
    "ndtri",
    "log_ndtr",
    "RandomStream",
    "usable_cores",
]


def _special_ufuncs():
    """scipy.special if it is loaded, else its compiled ufunc module.

    scipy/special/__init__.py also imports the array-API layer
    (_support_alternative_backends), which loads array_api_compat,
    numpy.f2py, numpy.testing, unittest and email and takes longer than
    the rest of `import suptest` together. The four ufuncs live in the
    extension scipy.special._ufuncs, so it is imported under a bare
    package module that stands in for scipy.special while the extension
    and its sibling extensions load. The stand-in is then removed from
    sys.modules and from the scipy namespace; the extensions stay, so a
    later `import scipy.special` runs the real package, which reuses them
    and exposes the very same ufunc objects. While the extension loads, a
    second thread importing scipy.special would get the stand-in, as
    module imports take no lock that covers it.
    """
    name = "scipy.special"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    stub = types.ModuleType(name)
    stub.__path__ = [os.path.join(os.path.dirname(scipy.__file__), "special")]
    sys.modules[name] = stub
    try:
        return importlib.import_module(name + "._ufuncs")
    finally:
        del sys.modules[name]
        # vars, not hasattr: scipy's module __getattr__ would import the
        # real scipy.special
        if vars(scipy).get("special") is stub:
            del scipy.special


_special = _special_ufuncs()
ndtr, ndtri, log_ndtr, erfcx = _special.ndtr, _special.ndtri, _special.log_ndtr, _special.erfcx

_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def std_normal_cdf(x):
    """Standard normal CDF Phi(x).

    Accepts scalars or arrays; evaluated through the complementary error
    function, absolute error well below 1e-12 everywhere. Saturates
    smoothly to 0/1 in the extreme tails instead of raising.
    """
    return ndtr(x)


def std_normal_pdf(x):
    """Standard normal density phi(x)."""
    x = np.asarray(x, dtype=float)
    return (_INV_SQRT_2PI * np.exp(-0.5 * x * x))[()]


def std_normal_quantile(p):
    """Inverse of the standard normal CDF.

    Args:
        p: probability or array of probabilities, each strictly in (0,1).

    Raises:
        ValueError: if any input is NaN or lies outside the open interval
            (0,1).
    """
    arr = np.asarray(p, dtype=float)
    # a NaN makes min and max NaN, which fails both comparisons
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):
        raise ValueError("quantile argument must lie strictly in (0,1)")
    return ndtri(arr)[()]


def _exp_phi(x, b):
    """exp(1/(2 b^2) - x/b) * Phi(x - 1/b), overflow-safe.

    For 1/b - x >= 0 the whole product is rewritten with the scaled
    complementary error function, which cancels the huge exp(1/(2b^2))
    factor exactly; otherwise the exponent is <= -1/(2b^2) < 0 and the
    direct form is safe.
    """
    inv_b = 1.0 / b
    t = inv_b - x
    out = np.empty_like(x)
    hi = t >= 0.0
    xs = x[hi]
    out[hi] = 0.5 * erfcx(t[hi] / _SQRT2) * np.exp(-0.5 * xs * xs)
    xu = x[~hi]
    out[~hi] = np.exp(0.5 * inv_b * inv_b - xu * inv_b) * ndtr(xu - inv_b)
    return out


def normal_laplace_cdf(x, b):
    """CDF of W = X + L where X ~ N(0,1) and L ~ Laplace(0, b).

    Closed-form convolution
        F(w) = Phi(w) - (e^{1/(2b^2)}/2) [e^{-w/b} Phi(w - 1/b) - e^{w/b} Phi(-w - 1/b)]
    with both exponential-times-Phi terms evaluated through scaled
    complementary error functions, so small b never overflows.

    Args:
        x: evaluation point(s), finite.
        b: Laplace scale, strictly positive.

    Raises:
        ValueError: unless b is finite and positive.
    """
    if not 0.0 < b < math.inf:
        raise ValueError("Laplace scale b must be finite and positive")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = ndtr(arr) - 0.5 * (_exp_phi(arr, b) - _exp_phi(-arr, b))
    np.clip(out, 0.0, 1.0, out=out)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class RandomStream:
    """Deterministic, splittable source of randomness.

    A stream is identified by (seed, stream_id) plus an optional path of
    child indices, all nonnegative integers. The identity alone fixes the
    draw sequence, so streams can be created in any order (or in parallel)
    and still reproduce bit-identical results. Backed by the counter-based
    Philox generator keyed through numpy's SeedSequence hash of the
    identity.
    """

    seed: int
    stream_id: int = 0
    path: tuple = ()

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed}")
        if self.stream_id < 0:
            raise ValueError(f"stream_id must be a nonnegative integer, got {self.stream_id}")
        if any(k < 0 for k in self.path):
            raise ValueError(f"path entries must be nonnegative integers, got {self.path}")

    def child(self, index: int) -> "RandomStream":
        """Derive an independent sub-stream; children never collide."""
        return RandomStream(self.seed, self.stream_id, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(
            entropy=self.seed, spawn_key=(self.stream_id, *self.path)
        )
        return np.random.Generator(np.random.Philox(ss))


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the platform
    reports one (so `taskset` and cpusets limit it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
