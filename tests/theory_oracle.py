"""Reference for the paper's analysis-only theory.

No release, simulation or `suptest` command calls these; they back
acceptance criteria 03, 07 (its theorem-8 check), 09 and 10 and their
unit tests:

- pi0_bar and gs_pi0, the unfloored null-fraction estimate and its
  sensitivity;
- theorem8_check, the sufficient condition under which the Laplace
  peeling test dominates the log-scale comparators;
- truncated_sup_test, sup_test with all m values peeled at sigma1 = 0;
- noise_inflation, asymptotic_bh_threshold, MixtureScenario and
  empirical_tdp_gap, the asymptotic and one-replicate TDP gap between
  classic BH and the truncated test under a two-group mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from suptest.adaptive import _excess_sum, e_tau
from suptest.baselines import DworkParams, _dp_formula, classic_procedure, dp_scale
from suptest.numerics import RandomStream, std_normal_cdf, std_normal_quantile
from suptest.privacy import EXPERIMENT_BUDGET, PrivacyBudget
from suptest.thresholds import Release, TestConfig, budget_as_mu, resolve_scales, sup_test
from suptest.transform import checked_pvalues


def pi0_bar(pvals, tau: float) -> float:
    """Excess-mass null-fraction estimate on the probit scale."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0,1)")
    p = checked_pvalues(pvals)
    q_tau = std_normal_quantile(tau)
    return _excess_sum(p, tau, q_tau) / (p.size * (1.0 - tau) * e_tau(tau))


def gs_pi0(gs: float, tau: float) -> float:
    """Sensitivity of pi0_bar when one record moves every Q(p_j) by gs."""
    if not 0.0 < gs < math.inf:
        raise ValueError("gs must be finite and positive")
    return gs / ((1.0 - tau) * e_tau(tau))


def theorem8_check(params: DworkParams, alpha: float, m: int, variant: str) -> bool:
    """Sufficient-dominance condition of the Laplace peeling test over the
    corresponding log-scale comparator."""
    v = variant.lower()
    n, const, _ = _dp_formula(params, m, v)
    return dp_scale(params, m, v) <= 1.0 - 1.0 / math.log(const * n / alpha)


def truncated_sup_test(
    pvals, config: TestConfig, stream: Optional[RandomStream] = None
) -> Release:
    """No-peeling variant: sup_test with all m values peeled at sigma1 = 0,
    which draws no peeling noise, so all m noisy inference values enter
    selection. sigma0 is calibrated at config.m_peel as in sup_test.
    Analysis tool only; releasing all m values carries no privacy
    guarantee under the peeling calibration.

    Row 0 is drawn from stream.child(0) exactly as sup_test does, so a
    shared stream yields a shared inference row. The release carries no
    budget, since the calibration does not cover it.
    """
    p = checked_pvalues(pvals)
    if config.m_peel > p.size:
        raise ValueError(
            f"m_peel ({config.m_peel}) cannot exceed the number of hypotheses ({p.size})")
    sigma0 = resolve_scales(config, config.m_peel).sigma0
    return sup_test(p, replace(config, m_peel=p.size, sigma_override=(sigma0, 0.0)), stream)


def noise_inflation(m_peel: int, gs: float, mu: float) -> float:
    """Variance inflation 2 m' gs^2 / mu^2 of the inference row noise."""
    if m_peel < 1 or not 0.0 <= gs < math.inf or not 0.0 < mu < math.inf:
        raise ValueError("need m_peel >= 1, finite gs >= 0, finite mu > 0")
    return 2.0 * m_peel * gs * gs / (mu * mu)


def asymptotic_bh_threshold(
    omega1: float, alpha: float, signal: float, noise_inflation: float = 0.0
) -> tuple:
    """Limiting BH threshold and power under the two-group mixture.

    Solves F1(p) = beta p for the largest positive root, where
    F1(p) = Phi(Phi^{-1}(p) + s_eff), s_eff = |signal|/sqrt(1+inflation),
    beta = (1 - alpha (1-omega1)) / (alpha omega1).

    Returns:
        (lambda_star, tdp_limit) with tdp_limit = F1(lambda_star).

    Raises:
        ValueError if beta <= 1 (degenerate all-rejected regime) or no
        positive root exists.
    """
    if not 0.0 < omega1 < 1.0:
        raise ValueError("omega1 must lie in (0,1)")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    if signal == 0.0 or not math.isfinite(signal):
        raise ValueError("signal magnitude must be finite and nonzero")
    if not 0.0 <= noise_inflation < math.inf:
        raise ValueError("noise_inflation must be finite and nonnegative")
    beta = (1.0 - alpha * (1.0 - omega1)) / (alpha * omega1)
    if beta <= 1.0:
        raise ValueError("beta <= 1: the threshold equation has no positive root")
    s_eff = abs(signal) / math.sqrt(1.0 + noise_inflation)

    def f1(p):
        return std_normal_cdf(std_normal_quantile(p) + s_eff)

    def g(p):
        return f1(p) - beta * p

    # g is concave with g(0)=0 and g(1)=1-beta<0, so the unique positive
    # root is bracketed by the first halving point where g turns positive
    hi = 1.0 - 1e-12
    lo = None
    for k in range(1, 80):
        cand = 2.0 ** -k
        if g(cand) > 0.0:
            lo = cand
            break
        hi = cand
    if lo is None:
        raise ValueError("no positive root found for the threshold equation")
    # imported here: no release needs scipy.optimize, and it costs a
    # `suptest run` process about 0.2 s
    from scipy import optimize

    lam = float(optimize.brentq(g, lo, hi, xtol=1e-16, rtol=8.9e-16))
    return lam, float(f1(lam))


@dataclass(frozen=True)
class MixtureScenario:
    """Two-group mixture used by the asymptotic power-loss experiments.

    m_peel = None calibrates the noise for a full release (m' = m), the
    regime the truncated test actually operates in.
    """

    m: int = 100_000
    omega1: float = 0.1
    alpha: float = 0.2
    signal: float = 2.0
    gs: float = TestConfig.gs
    mu: Optional[float] = None
    m_peel: Optional[int] = None
    sigma_override: Optional[tuple] = None

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not 0.0 < self.omega1 < 1.0:
            raise ValueError("omega1 must lie in (0,1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if self.signal == 0.0 or not math.isfinite(self.signal):
            raise ValueError("signal must be finite and nonzero")
        if not 0.0 < self.gs < math.inf:
            raise ValueError("gs must be finite and positive")
        if self.mu is not None and not 0.0 < self.mu < math.inf:
            raise ValueError("mu must be finite and positive")
        if self.m_peel is not None and not 1 <= self.m_peel <= self.m:
            raise ValueError("m_peel must lie in [1, m]")

    def resolved_mu(self) -> float:
        return budget_as_mu(EXPERIMENT_BUDGET) if self.mu is None else self.mu

    def resolved_m_peel(self) -> int:
        return self.m if self.m_peel is None else self.m_peel


@dataclass(frozen=True)
class TdpGapResult:
    gap: float
    tdp_classic: float
    tdp_noisy: float
    n_signals: int


def empirical_tdp_gap(scn: MixtureScenario, stream: RandomStream) -> TdpGapResult:
    """One-replicate true-discovery-proportion gap between classic BH and
    the truncated private test on the same mixture draw.

    Signals are Bernoulli(omega1); zero drawn signals returns a zero gap
    with n_signals = 0.
    """
    g = stream.child(0).generator()
    is_signal = g.random(scn.m) < scn.omega1
    t = g.standard_normal(scn.m)
    pvals = std_normal_cdf(t - scn.signal * is_signal)
    n_sig = int(np.count_nonzero(is_signal))
    if n_sig == 0:
        return TdpGapResult(0.0, 0.0, 0.0, 0)

    classic = classic_procedure(pvals, "bh", scn.alpha)
    tdp_classic = np.count_nonzero(is_signal[classic.rejected_indices]) / n_sig

    cfg = TestConfig(
        family="bh",
        alpha=scn.alpha,
        budget=PrivacyBudget.gdp(scn.resolved_mu()),
        gs=scn.gs,
        m_peel=scn.resolved_m_peel(),
        sigma_override=scn.sigma_override,
    )
    noisy = truncated_sup_test(pvals, cfg, stream.child(1))
    tdp_noisy = np.count_nonzero(is_signal[noisy.rejected_indices]) / n_sig
    return TdpGapResult(float(tdp_classic - tdp_noisy),
                        float(tdp_classic), float(tdp_noisy), n_sig)
