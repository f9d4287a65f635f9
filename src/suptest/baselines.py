"""Non-private textbook procedures and the log-scale private comparators.

classic_procedure runs BH, BY, Bonferroni and Holm on raw p-values as the
zero-noise case of the private tests: all m values, unchanged, go through
the same threshold families and step rule (thresholds.reject_peeled).

dp_bh and dp_bonf forward-peel noisy log p-values and compare them against
log thresholds deflated by a privacy penalty:

    dp_bh   log(alpha j / m) - eta sqrt(10 m' ln(1/delta) ln(6 m'/alpha)) / eps
    dp_bonf log(alpha / m)   - eta sqrt(10 m  ln(1/delta) ln(5 m /alpha)) / (2 eps)

theorem8_check evaluates the sufficient condition under which the
Gaussian-free (Laplace) peeling test dominates these comparators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import RandomStream
from .peeling import PeelOutcome, forward_peel_baseline
from .privacy import EXPERIMENT_BUDGET
from .thresholds import DEFAULT_ZETA, TestConfig, ThresholdFamily, reject_peeled
from .transform import checked_pvalues

__all__ = [
    "DworkParams",
    "classic_procedure",
    "dp_bh",
    "dp_bonf",
    "dp_bh_penalty",
    "dp_bonf_penalty",
    "dp_bh_scale",
    "dp_bonf_scale",
    "theorem8_check",
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


def classic_procedure(pvals, family: str, alpha: float) -> np.ndarray:
    """Textbook multiple-testing procedure; returns sorted rejected indices.

    bh / by / bonf are step-up, holm is step-down (thresholds.DEFAULT_ZETA).
    """
    p = checked_pvalues(pvals)
    if p.size == 0:
        return np.empty(0, dtype=np.intp)
    peel = PeelOutcome(np.arange(p.size), p)
    return reject_peeled(peel, ThresholdFamily(family, alpha, p.size),
                         DEFAULT_ZETA[family]).rejected_indices


def dp_bh_penalty(params: DworkParams, alpha: float) -> float:
    mp = params.m_peel
    return params.eta * math.sqrt(
        10.0 * mp * math.log(1.0 / params.delta) * math.log(6.0 * mp / alpha)
    ) / params.eps


def dp_bonf_penalty(params: DworkParams, alpha: float, m: int) -> float:
    return params.eta * math.sqrt(
        10.0 * m * math.log(1.0 / params.delta) * math.log(5.0 * m / alpha)
    ) / (2.0 * params.eps)


def dp_bh_scale(params: DworkParams) -> float:
    return params.eta * math.sqrt(
        10.0 * params.m_peel * math.log(1.0 / params.delta)
    ) / params.eps


def dp_bonf_scale(params: DworkParams, m: int) -> float:
    return params.eta * math.sqrt(
        10.0 * m * math.log(1.0 / params.delta)
    ) / (2.0 * params.eps)


def _floored_logs(pvals, params: DworkParams, alpha: float) -> np.ndarray:
    p = checked_pvalues(pvals)
    if p.size == 0:
        raise ValueError("p-value array is empty")
    nu = 0.5 * alpha / p.size if params.nu is None else params.nu
    return np.log(np.maximum(p, nu))


def dp_bh(
    pvals,
    params: DworkParams,
    alpha: float,
    stream: RandomStream,
    penalty: Optional[float] = None,
) -> np.ndarray:
    """Private BH comparator: forward-peel params.m_peel noisy log
    p-values, then step-up against log(alpha j / m) minus the penalty.

    Returns sorted rejected indices. penalty overrides the calibrated
    value (used by reduction checks)."""
    logs = _floored_logs(pvals, params, alpha)
    m = logs.size
    if params.m_peel > m:
        raise ValueError("m_peel cannot exceed the number of hypotheses")
    scale = params.laplace_scale
    if scale is None:
        scale = dp_bh_scale(params)
    if penalty is None:
        penalty = dp_bh_penalty(params, alpha)
    picked, values = forward_peel_baseline(logs, params.m_peel, scale, stream)
    order = np.argsort(values, kind="stable")
    thr = np.log(alpha * np.arange(1, params.m_peel + 1) / m) - penalty
    hits = np.flatnonzero(values[order] <= thr)
    k = hits[-1] + 1 if hits.size else 0
    return np.sort(picked[order[:k]])


def dp_bonf(
    pvals,
    params: DworkParams,
    alpha: float,
    stream: RandomStream,
    penalty: Optional[float] = None,
) -> np.ndarray:
    """Private Bonferroni comparator: m forward-peeling rounds, constant
    threshold log(alpha / m) minus the penalty. Returns sorted indices."""
    logs = _floored_logs(pvals, params, alpha)
    m = logs.size
    scale = params.laplace_scale
    if scale is None:
        scale = dp_bonf_scale(params, m)
    if penalty is None:
        penalty = dp_bonf_penalty(params, alpha, m)
    picked, values = forward_peel_baseline(logs, m, scale, stream)
    thr = math.log(alpha / m) - penalty
    return np.sort(picked[values <= thr])


def theorem8_check(params: DworkParams, alpha: float, m: int, variant: str) -> bool:
    """Sufficient-dominance condition of the Laplace peeling test over the
    corresponding log-scale comparator."""
    v = variant.lower()
    if v == "bh":
        lhs = dp_bh_scale(params)
        rhs = 1.0 - 1.0 / math.log(6.0 * params.m_peel / alpha)
    elif v == "bonf":
        lhs = dp_bonf_scale(params, m)
        rhs = 1.0 - 1.0 / math.log(5.0 * m / alpha)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return lhs <= rhs
