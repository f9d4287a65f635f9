"""Super-uniformity-preserving noisy p-value transform.

A raw p-value is clamped, mapped to the normal-quantile scale
Q = Phi^-1(p), perturbed with calibrated noise z, and mapped back through
the CDF of quantile-plus-noise. Because that CDF matches the distribution
of the perturbed statistic under a uniform p-value, a super-uniform input
stays super-uniform.

The transform is split in two: `draw_noise` draws z, and `key_to_noisy_p`
maps keys Q(p) + z to noisy p-values. That map is nondecreasing, so a
caller can rank hypotheses by key and transform only the values it
releases. Its output is clipped to [1e-300, 1 - 1e-16], which keeps
released values strictly inside (0,1) where the CDF saturates.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import normal_laplace_cdf, std_normal_cdf

__all__ = [
    "NOISE_KINDS",
    "checked_pvalues",
    "clamp_pvalues",
    "draw_noise",
    "key_to_noisy_p",
]

# Phi^-1 diverges at 0 and 1; real pipelines do produce exact 0/1 p-values.
P_CLAMP = 1e-15

NOISE_KINDS = ("gaussian", "laplace")

# keep released values strictly inside (0,1) even when the CDF saturates
_ENTRY_LO = 1e-300
_ENTRY_HI = 1.0 - 1e-16


def checked_pvalues(pvals) -> np.ndarray:
    """pvals as a nonempty 1-D float array, every value a number in [0, 1].
    Every method checks its p-values here.

    Raises:
        ValueError: naming the shape of a scalar or of an array of two or
            more dimensions; if pvals is empty; or naming the first NaN,
            infinite or out-of-range value.
    """
    p = np.asarray(pvals, dtype=float)
    if p.ndim != 1:
        raise ValueError(f"p-values must be a 1-D array, not shape {p.shape}")
    if p.size == 0:
        raise ValueError("p-value array is empty")
    # a NaN makes min and max NaN, which fails both comparisons
    if not (p.min() >= 0.0 and p.max() <= 1.0):
        i = int(np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))[0])
        raise ValueError(f"p-value {float(p.flat[i])!r} at index {i} is not a number in [0, 1]")
    return p


def clamp_pvalues(pvals) -> np.ndarray:
    """Checked p-values (see checked_pvalues) clamped into
    [P_CLAMP, 1 - P_CLAMP]."""
    return np.clip(checked_pvalues(pvals), P_CLAMP, 1 - P_CLAMP)


def draw_noise(gen: np.random.Generator, scale: float, size: int,
               noise_kind: str) -> np.ndarray:
    """size i.i.d. noise values of the given kind and scale > 0, drawn from
    gen; a generator fresh at the start of a stream draws that stream's
    noise row."""
    if noise_kind == "gaussian":
        return gen.normal(0.0, scale, size)
    return gen.laplace(0.0, scale, size)


def key_to_noisy_p(keys: np.ndarray, scale: float, noise_kind: str) -> np.ndarray:
    """Noisy p-values from keys Phi^-1(p) + z with noise scale > 0, clipped
    to [1e-300, 1 - 1e-16]. Elementwise, so any subset of keys maps to the
    same values it would inside a full row."""
    if noise_kind == "gaussian":
        out = std_normal_cdf(keys / math.sqrt(1.0 + scale * scale))
    else:
        out = normal_laplace_cdf(keys, scale)
    return np.clip(out, _ENTRY_LO, _ENTRY_HI)
