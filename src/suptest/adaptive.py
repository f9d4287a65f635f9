"""Adaptive estimation of the null fraction and the jointly adaptive test.

The estimators work on the probit scale Q = Phi^{-1}. E_tau is the mean
excess Q(p) - Q(tau) of a uniform p-value conditioned on p > tau, which
for the normal quantile has the closed form phi(Q(tau))/(1-tau) - Q(tau).

The adaptive test splits a mu-GDP budget: a fraction rho (as squared mu)
privately releases pi0_hat, the rest drives reversed peeling with the
peeling number m* and all thresholds scaled by 1/pi0_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .numerics import RandomStream, std_normal_pdf, std_normal_quantile
from .privacy import split_budget
from .thresholds import AdaptiveInfo, Release, TestConfig, _sup_release, budget_as_mu
from .transform import checked_pvalues

__all__ = ["AdaptiveConfig", "pi0_hat", "adaptive_sup_test"]


@dataclass(frozen=True)
class AdaptiveConfig:
    """Knobs of the adaptive procedure.

    c = None resolves to (1-alpha)^{-1} - 1 at the point of use.
    """

    tau: float = 0.5
    c: Optional[float] = None
    m_tilde: int = 100
    c0: float = 0.5
    rho: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie in (0,1)")
        if self.c is not None and not 0.0 <= self.c < math.inf:
            raise ValueError("c must be finite and >= 0")
        if self.m_tilde < 1:
            raise ValueError("m_tilde must be a positive integer")
        if not 0.0 < self.c0 < 1.0:
            raise ValueError("c0 must lie in (0,1)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0,1)")


def resolve_c(cfg: AdaptiveConfig, alpha: float) -> float:
    if cfg.c is not None:
        return cfg.c
    return 1.0 / (1.0 - alpha) - 1.0


def e_tau(tau: float) -> float:
    """Mean of Q(p) - Q(tau) for uniform p conditioned on p > tau,
    Q the standard normal quantile (truncated-normal mean)."""
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0,1)")
    q_tau = std_normal_quantile(tau)
    return float(std_normal_pdf(q_tau) / (1.0 - tau) - q_tau)


def _excess_sum(p: np.ndarray, tau: float, q_tau: float) -> float:
    # sum of Q(p_j) - Q(tau) over p_j > tau; zero at the boundary, so the
    # estimate is continuous in each p_j
    tail = p[p > tau]
    if tail.size == 0:
        return 0.0
    return float(np.sum(std_normal_quantile(np.minimum(tail, 1.0 - 1e-16)) - q_tau))


def pi0_inv_bar(pvals, tau: float, c0: float) -> float:
    """Floored inverse estimate m(1-tau)E_tau / max{excess sum, c0 m(1-tau)E_tau},
    always in (0, 1/c0]."""
    if not 0.0 < c0 < 1.0:
        raise ValueError("c0 must lie in (0,1)")
    p = checked_pvalues(pvals)
    e = e_tau(tau)
    denom_floor = c0 * p.size * (1.0 - tau) * e
    num = p.size * (1.0 - tau) * e
    return num / max(_excess_sum(p, tau, std_normal_quantile(tau)), denom_floor)


def gs_pi0_inv(gs: float, tau: float, c0: float) -> float:
    """Sensitivity of pi0_inv_bar when one record moves every Q(p_j) by gs."""
    if not 0.0 <= gs < math.inf:
        raise ValueError("gs must be finite and nonnegative")
    if not 0.0 < c0 < 1.0:
        raise ValueError("c0 must lie in (0,1)")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie in (0,1)")
    if gs == 0.0:
        return 0.0
    return 1.0 / c0 - 1.0 / (c0 + gs / ((1.0 - tau) * e_tau(tau)))


def peel_count_m_dagger(pi0_val: float, m: int, cfg: AdaptiveConfig,
                        alpha: float = 0.1) -> int:
    """Peeling count ceil((1+c) m (1 - pi0_val)), clamped to [m_tilde, m];
    pi0_val is already private, so the count adds no noise of its own."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    c = resolve_c(cfg, alpha)
    raw = math.ceil((1.0 + c) * m * (1.0 - pi0_val))
    return int(min(max(raw, cfg.m_tilde), m))


def pi0_hat(pi0_inv_val: float, sigma_tau: float, noise: float,
            c0: float = AdaptiveConfig.c0) -> float:
    """Private null-fraction estimate: add sigma_tau-scaled noise to the
    inverse estimate, clamp to [1, 1/c0], invert. Result lies in [c0, 1]."""
    if not 0.0 <= sigma_tau < math.inf:
        raise ValueError("sigma_tau must be finite and nonnegative")
    v = pi0_inv_val + sigma_tau * noise
    if not math.isfinite(v):
        raise ValueError("pi0_inv_val and noise must be finite")
    v = min(max(v, 1.0), 1.0 / c0)
    # 1 / (1 / c0) can round to just below c0
    return float(max(1.0 / v, c0))


def adaptive_sup_test(
    pvals,
    config: TestConfig,
    acfg: AdaptiveConfig,
    stream: Optional[RandomStream] = None,
) -> Release:
    """Jointly adaptive private test: release pi0_hat on a rho fraction of
    the budget, peel m* = max{ceil((1+c) m (1 - pi0_hat)), m_tilde} values
    with the rest, and test against thresholds scaled by 1/pi0_hat.

    Only Gaussian noise and the bh / bonf families are supported.
    """
    if config.noise_kind != "gaussian":
        raise ValueError("adaptive test supports gaussian noise only")
    if config.family not in ("bh", "bonf"):
        raise ValueError("adaptive variants exist for bh and bonf only")
    p = checked_pvalues(pvals)
    if stream is None:
        stream = RandomStream(config.seed)

    mu = budget_as_mu(config.budget)
    mu_est, mu_peel = split_budget(mu, acfg.rho)

    gen = stream.child(0).generator()
    z = float(gen.standard_normal())
    sigma_tau = (0.0 if config.sigma_override is not None
                 else gs_pi0_inv(config.gs, acfg.tau, acfg.c0) / mu_est)
    inv_bar = pi0_inv_bar(p, acfg.tau, acfg.c0)
    p0_hat = pi0_hat(inv_bar, sigma_tau, z, acfg.c0)

    m_star = peel_count_m_dagger(p0_hat, p.size, acfg, config.alpha)

    info = AdaptiveInfo(pi0_hat=p0_hat, m_star=m_star,
                        pi0_inv_bar=inv_bar, sigma_tau=sigma_tau)
    return _sup_release(p, config, m_star, stream.child(1), mu_peel, info, 1.0 / p0_hat)
