"""Non-private textbook procedures and the log-scale private comparators.

classic_procedure runs BH, BY, Bonferroni and Holm on raw p-values as the
zero-noise case of the private tests: all m values, unchanged, go through
the same threshold families and step rule (thresholds.reject_peeled), and
its Release holds them all.

dp_test, the log-scale comparator of Dwork, Su & Zhang (J. Privacy &
Confidentiality 2021), floors the p-values at nu, forward-peels n noisy
logs (n = m' for bh, m for bonf) by report-noisy-min with Laplace noise,
sampled by peeling's lazy rounds, and steps up by the same step rule
against log thresholds deflated by a privacy penalty; it releases
decisions only, so its Release holds no values. Its Laplace scale drops
the penalty's last log:

    bh    log(alpha j / m) - eta sqrt(10 m' ln(1/delta) ln(6 m'/alpha)) / eps
    bonf  log(alpha / m)   - eta sqrt(10 m  ln(1/delta) ln(5 m /alpha)) / (2 eps)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import peeling
from .numerics import RandomStream
from .peeling import PeelOutcome
from .privacy import EXPERIMENT_BUDGET, PrivacyBudget
from .thresholds import (DEFAULT_ZETA, Release, TestConfig, ThresholdFamily, _stepped,
                         reject_peeled)
from .transform import checked_pvalues

__all__ = [
    "DworkParams",
    "classic_procedure",
    "dp_test",
    "dp_penalty",
    "dp_scale",
]


@dataclass(frozen=True)
class DworkParams:
    """Parameters of the log-scale comparators.

    laplace_scale = None uses the calibrated default for the variant, and
    nu = None floors raw p-values at alpha / (2 m) before logs are taken.
    The budget defaults to EXPERIMENT_BUDGET and m_peel to TestConfig's.
    """

    nu: Optional[float] = None
    eta: float = 1e-4
    eps: float = EXPERIMENT_BUDGET.eps
    delta: float = EXPERIMENT_BUDGET.delta
    m_peel: int = TestConfig.m_peel
    laplace_scale: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.eta < math.inf:
            raise ValueError("eta must be finite and positive")
        if self.nu is not None and not 0.0 < self.nu < 1.0:
            raise ValueError("nu must lie in (0,1)")
        if not 0.0 < self.eps < math.inf:
            raise ValueError("eps must be finite and positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0,1)")
        if self.m_peel < 1:
            raise ValueError("m_peel must be a positive integer")
        if self.laplace_scale is not None and not 0.0 <= self.laplace_scale < math.inf:
            raise ValueError("laplace_scale must be finite and nonnegative")


def classic_procedure(pvals, family: str, alpha: float) -> Release:
    """Textbook multiple-testing procedure: the Release of all m raw
    p-values in index order, with m_peel = m and no budget.

    bh / by / bonf are step-up, holm is step-down (thresholds.DEFAULT_ZETA).
    """
    p = checked_pvalues(pvals)
    peel = PeelOutcome(np.arange(p.size), p)
    return reject_peeled(peel, ThresholdFamily(family, alpha, p.size), DEFAULT_ZETA[family])


_DP_VARIANTS = {"bh": (6.0, 1.0), "bonf": (5.0, 2.0)}


def _dp_formula(params: DworkParams, m: int, variant: str) -> tuple:
    """(n, c, d) of a variant: n rounds, the constant c in the penalty's
    last log and the divisor d of eps (see the module docstring)."""
    if variant not in _DP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return (params.m_peel if variant == "bh" else m,) + _DP_VARIANTS[variant]


def dp_penalty(params: DworkParams, alpha: float, m: int, variant: str) -> float:
    n, const, div = _dp_formula(params, m, variant)
    return params.eta * math.sqrt(
        10.0 * n * math.log(1.0 / params.delta) * math.log(const * n / alpha)
    ) / (div * params.eps)


def dp_scale(params: DworkParams, m: int, variant: str) -> float:
    n, _, div = _dp_formula(params, m, variant)
    return params.eta * math.sqrt(
        10.0 * n * math.log(1.0 / params.delta)
    ) / (div * params.eps)


def _floored_logs(pvals, params: DworkParams, alpha: float) -> np.ndarray:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    p = checked_pvalues(pvals)
    nu = 0.5 * alpha / p.size if params.nu is None else params.nu
    return np.log(np.maximum(p, nu))


def dp_test(
    pvals,
    params: DworkParams,
    alpha: float,
    stream: RandomStream,
    variant: str,
) -> Release:
    """Log-scale private comparator, variant "bh" or "bonf": forward-peel
    n noisy log p-values, then step up against the variant's log
    thresholds minus the penalty. Each peel round is report-noisy-min with
    fresh Laplace noise on the surviving logs (peeling._peel_rounds) and
    keeps the winner's noisy log; at scale 0 the order is the stable sort
    order of the logs.

    Returns a Release of decisions only: no released values, m_peel = n
    and the budget (params.eps, params.delta), or None where
    params.laplace_scale set the scale, which no budget calibrated."""
    logs = _floored_logs(pvals, params, alpha)
    m = logs.size
    n, _, _ = _dp_formula(params, m, variant)
    scale = params.laplace_scale
    budget = None
    if scale is None:
        scale = dp_scale(params, m, variant)
        budget = PrivacyBudget.approx_dp(params.eps, params.delta)
    penalty = dp_penalty(params, alpha, m, variant)
    picked, values = peeling._peel_rounds(logs, n, scale, stream, "laplace")
    # bonf's constant threshold is one float from math.log, which keeps its
    # bits where numpy's SIMD log may not
    if variant == "bh":
        thr = np.log(alpha * np.arange(1, n + 1) / m) - penalty
    else:
        thr = math.log(alpha / m) - penalty
    j_star, rejected = _stepped(values, thr, picked, 1)
    nothing = PeelOutcome(np.empty(0, dtype=np.intp), np.empty(0))
    return Release(nothing, j_star, rejected, n, budget)
