"""Threshold families, step selection, and the peeled test.

Four threshold families are supported, always indexed against the full
hypothesis count m even when only m_peel values are tested:

    bh    lambda_j = alpha * j / m          (step-up)
    by    lambda_j = alpha * j / (m * H_m)  (step-up, H_m harmonic sum)
    bonf  lambda_j = alpha / m              (step-up; identical either way)
    holm  lambda_j = alpha / (m + 1 - j)    (step-down)

An optional pi0_inv_scale >= 1 multiplies every threshold; the adaptive
variants set it to 1/pi0_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import peeling
from .numerics import RandomStream
from .privacy import (
    NoiseScales,
    PrivacyBudget,
    calibrate_laplace_scales,
    calibrate_peeling_scales,
    experiment_mu,
)
from .transform import NOISE_KINDS

__all__ = [
    "FAMILIES",
    "DEFAULT_ZETA",
    "ThresholdFamily",
    "TestConfig",
    "AdaptiveInfo",
    "Release",
    "threshold_values",
    "select_step",
    "reject_peeled",
    "sup_test",
    "released_budget",
    "resolve_scales",
    "budget_as_mu",
]

FAMILIES = ("bh", "by", "bonf", "holm")

# step parameter per family: 1 = step-up, 0 = step-down
DEFAULT_ZETA = {"bh": 1, "by": 1, "bonf": 1, "holm": 0}


@dataclass(frozen=True)
class ThresholdFamily:
    kind: str
    alpha: float
    m: int
    pi0_inv_scale: float = 1.0

    def __post_init__(self):
        if self.kind not in FAMILIES:
            raise ValueError(f"unknown threshold family {self.kind!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not 1.0 <= self.pi0_inv_scale < math.inf:
            raise ValueError("pi0_inv_scale must be finite and >= 1")


@dataclass(frozen=True)
class TestConfig:
    """Configuration of a single private test run.

    sigma_override replaces the calibrated (sigma0, sigma1) pair, which is
    only meant for analysis and reduction checks; it also silences the
    estimator noise in adaptive runs. Without it, laplace noise needs an
    (eps, delta) budget.
    """

    family: str
    alpha: float = 0.1
    budget: PrivacyBudget = PrivacyBudget.gdp(1.0)
    gs: float = 1e-4
    m_peel: int = 200
    zeta: Optional[int] = None
    noise_kind: str = "gaussian"
    seed: int = 0
    sigma_override: Optional[tuple] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown threshold family {self.family!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if not 0.0 < self.gs < math.inf:
            raise ValueError("gs must be finite and positive")
        if self.m_peel < 1:
            raise ValueError("m_peel must be a positive integer")
        if self.zeta not in (None, 0, 1):
            raise ValueError("zeta must be 0 or 1")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise must be gaussian or laplace, not {self.noise_kind!r}")
        if self.sigma_override is not None:
            s0, s1 = self.sigma_override
            if not (0.0 <= s0 < math.inf and 0.0 <= s1 < math.inf):
                raise ValueError("sigma0 and sigma1 must be finite and nonnegative")
        elif self.noise_kind == "laplace" and self.budget.kind != "approx_dp":
            raise ValueError("laplace noise requires an (eps, delta) budget")

    def resolved_zeta(self) -> int:
        return DEFAULT_ZETA[self.family] if self.zeta is None else self.zeta


@dataclass(frozen=True)
class AdaptiveInfo:
    """Diagnostics attached to adaptive runs."""

    pi0_hat: float
    m_star: int
    pi0_inv_bar: float
    sigma_tau: float


@dataclass(frozen=True)
class Release:
    """What one run of a method releases, whichever method it is. Every
    method function (sup_test, adaptive_sup_test, baselines.classic_procedure
    and baselines.dp_test) returns one.

    peeled holds the released values: the peel outcome of the private
    tests, all m raw p-values for the classic procedures, and nothing for
    the log-scale comparators, which release decisions only. m_peel is the
    peeling number the method used (m* for the adaptive tests, m for the
    classic procedures and dp-bonf). budget is the privacy budget the
    release spent: None for the classic procedures and where sigma_override
    or DworkParams.laplace_scale set the noise scales, which no budget
    calibrated. scales are the noise scales of sup_test and
    adaptive_sup_test, None for the other methods.
    """

    peeled: peeling.PeelOutcome
    j_star: int
    rejected_indices: np.ndarray
    m_peel: int
    budget: Optional[PrivacyBudget] = None
    adaptive_info: Optional[AdaptiveInfo] = None
    scales: Optional[NoiseScales] = None


def _harmonic(m: int) -> float:
    return float(np.sum(1.0 / np.arange(1, m + 1)))


def threshold_values(family: ThresholdFamily, j) -> np.ndarray:
    """Thresholds at (1-based) indices j, scaled by pi0_inv_scale."""
    j = np.asarray(j)
    if j.size and (j.min() < 1 or j.max() > family.m):
        raise ValueError("threshold index out of range [1, m]")
    a, m = family.alpha, family.m
    if family.kind == "bh":
        lam = a * j / m
    elif family.kind == "by":
        lam = a * j / (m * _harmonic(m))
    elif family.kind == "bonf":
        lam = np.full(j.shape, a / m)
    else:  # holm
        lam = a / (m + 1 - j)
    return lam * family.pi0_inv_scale


def _step(values: np.ndarray, thresholds, zeta: int) -> int:
    # the step rule on values sorted nondecreasing against their thresholds
    # (an array of the same length, or one float for a constant threshold)
    ok = values <= thresholds
    if zeta == 1:
        hits = np.flatnonzero(ok)
        return int(hits[-1] + 1) if hits.size else 0
    if zeta == 0:
        violations = np.flatnonzero(~ok)
        return int(violations[0]) if violations.size else int(values.size)
    raise ValueError("zeta must be 0 or 1")


def _stepped(values: np.ndarray, thresholds, indices: np.ndarray, zeta: int) -> tuple:
    # (j_star, sorted rejected indices): sort values stably, step, reject
    # the indices of the first j_star sorted values
    order = np.argsort(values, kind="stable")
    j_star = _step(values[order], thresholds, zeta)
    return j_star, np.sort(indices[order[:j_star]])


def select_step(sorted_pvals, family: ThresholdFamily, zeta: int) -> int:
    """Pick j_star from sorted values against the family thresholds.

    zeta = 1 (step-up): largest j with p_(j) <= lambda_j, else 0.
    zeta = 0 (step-down): one less than the first violation; the full
    length if nothing violates; 0 if the first entry already does.
    j_star = 0 encodes the empty rejection set.
    """
    s = np.asarray(sorted_pvals, dtype=float)
    if s.size > 1 and np.any(np.diff(s) < 0.0):
        raise ValueError("input must be sorted nondecreasing")
    return _step(s, threshold_values(family, np.arange(1, s.size + 1)), zeta)


def reject_peeled(peel: peeling.PeelOutcome, family: ThresholdFamily, zeta: int,
                  budget: Optional[PrivacyBudget] = None,
                  adaptive_info: Optional[AdaptiveInfo] = None,
                  scales: Optional[NoiseScales] = None) -> Release:
    """Sort the peeled inference values, select, reject."""
    n = peel.peeled_indices.size
    thresholds = threshold_values(family, np.arange(1, n + 1))
    j_star, rejected = _stepped(peel.inference_pvals, thresholds, peel.peeled_indices, zeta)
    return Release(peel, j_star, rejected, n, budget, adaptive_info, scales)


def budget_as_mu(budget: PrivacyBudget) -> float:
    """GDP parameter of a budget; approximate-DP budgets are mapped through
    the experiment convention mu = 4*eps/sqrt(10*ln(1/delta))."""
    if budget.kind == "gdp":
        return budget.mu
    return experiment_mu(budget.eps, budget.delta)


def released_budget(config: TestConfig) -> Optional[PrivacyBudget]:
    """The budget a release under config spent: config.budget, or None
    where sigma_override set the scales, since no budget calibrated them."""
    return config.budget if config.sigma_override is None else None


def resolve_scales(config: TestConfig, m_peel: int) -> NoiseScales:
    """Noise scales implied by the config for a given peeling count."""
    if config.sigma_override is not None:
        s0, s1 = config.sigma_override
        return NoiseScales(float(s0), float(s1))
    if config.noise_kind == "gaussian":
        return calibrate_peeling_scales(budget_as_mu(config.budget), config.gs, m_peel)
    return calibrate_laplace_scales(config.budget.eps, config.budget.delta, config.gs, m_peel)


def sup_test(pvals, config: TestConfig, stream: Optional[RandomStream] = None) -> Release:
    """Full private test: calibrate, peel, select.

    Args:
        pvals: raw p-values.
        config: test configuration; config.m_peel hypotheses are peeled.
        stream: randomness source; defaults to RandomStream(config.seed).

    Returns:
        Release with the peel outcome, j_star, the rejected hypothesis
        indices (0-based positions into pvals), the budget spent (see
        released_budget) and the noise scales.
    """
    p = np.asarray(pvals, dtype=float)
    scales = resolve_scales(config, config.m_peel)
    if stream is None:
        stream = RandomStream(config.seed)
    peel = peeling.reversed_peel(p, config.m_peel, scales, stream, config.noise_kind)
    family = ThresholdFamily(config.family, config.alpha, p.size)
    return reject_peeled(peel, family, config.resolved_zeta(), released_budget(config),
                         scales=scales)
