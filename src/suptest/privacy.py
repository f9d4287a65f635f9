"""Privacy budget accounting and noise-scale calibration.

Supports the two budget kinds used throughout: Gaussian differential
privacy (a single parameter mu > 0) and approximate DP (eps, delta).
Calibration maps a budget plus the global sensitivity of the quantile
statistic to the noise scales of the inference row and the peeling rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .numerics import log_ndtr, ndtr

__all__ = [
    "PrivacyBudget",
    "EXPERIMENT_BUDGET",
    "NoiseScales",
    "gdp_to_approx_dp_delta",
    "experiment_mu",
    "calibrate_peeling_scales",
    "calibrate_laplace_scales",
    "split_budget",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """Tagged privacy budget: kind is either "gdp" or "approx_dp"."""

    kind: str
    mu: Optional[float] = None
    eps: Optional[float] = None
    delta: Optional[float] = None

    def __post_init__(self):
        if self.kind == "gdp":
            if self.mu is None or not 0.0 < self.mu < math.inf:
                raise ValueError("GDP budget requires a finite mu > 0")
        elif self.kind == "approx_dp":
            if self.eps is None or not 0.0 < self.eps < math.inf:
                raise ValueError("approximate-DP budget requires a finite eps > 0")
            if self.delta is None or not 0.0 < self.delta < 1.0:
                raise ValueError("approximate-DP budget requires delta in (0,1)")
        else:
            raise ValueError(f"unknown budget kind {self.kind!r}")

    @classmethod
    def gdp(cls, mu: float) -> "PrivacyBudget":
        return cls("gdp", mu=float(mu))

    @classmethod
    def approx_dp(cls, eps: float, delta: float) -> "PrivacyBudget":
        return cls("approx_dp", eps=float(eps), delta=float(delta))


# the (eps, delta) budget of the paper's experiments; a method option
# budget fills in from it whichever of eps and delta is not set
EXPERIMENT_BUDGET = PrivacyBudget.approx_dp(0.5, 1e-3)


@dataclass(frozen=True)
class NoiseScales:
    """Noise scales for the inference row (sigma0) and peeling rows (sigma1)."""

    sigma0: float
    sigma1: float

    def __post_init__(self):
        if not (0.0 <= self.sigma0 < math.inf and 0.0 <= self.sigma1 < math.inf):
            raise ValueError("noise scales must be finite and nonnegative")


def gdp_compose(mu1: float, mu2: float) -> float:
    """Budget of the composition of a mu1-GDP and a mu2-GDP mechanism."""
    if not (0.0 <= mu1 < math.inf and 0.0 <= mu2 < math.inf):
        raise ValueError("GDP parameters must be finite and nonnegative")
    return math.hypot(mu1, mu2)


def gdp_to_approx_dp_delta(mu: float, eps: float) -> float:
    """Smallest delta such that a mu-GDP mechanism is (eps, delta)-DP.

    delta = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2); the second
    term goes through log Phi so large eps/mu cannot overflow.
    """
    if not (0.0 < mu < math.inf and 0.0 < eps < math.inf):
        raise ValueError("mu and eps must be finite and positive")
    a = -eps / mu + mu / 2.0
    b = -eps / mu - mu / 2.0
    return float(ndtr(a) - math.exp(eps + log_ndtr(b)))


def experiment_mu(eps: float, delta: float) -> float:
    """GDP parameter 4*eps/sqrt(10*ln(1/delta)) used to compare against
    (eps, delta)-DP baselines on an equal footing."""
    if not 0.0 < eps < math.inf:
        raise ValueError("eps must be finite and positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    return 4.0 * eps / math.sqrt(10.0 * math.log(1.0 / delta))


def calibrate_peeling_scales(mu: float, gs: float, m_peel: int) -> NoiseScales:
    """Gaussian scales achieving mu-GDP for one inference row plus m_peel
    peeling rows: sigma0 = sqrt(2*m_peel)*gs/mu, sigma1 = 2*sigma0."""
    if not (0.0 < mu < math.inf and 0.0 < gs < math.inf):
        raise ValueError("mu and gs must be finite and positive")
    if m_peel < 1:
        raise ValueError("m_peel must be a positive integer")
    sigma0 = math.sqrt(2.0 * m_peel) * gs / mu
    return NoiseScales(sigma0, 2.0 * sigma0)


def calibrate_laplace_scales(eps: float, delta: float, gs: float, m_peel: int) -> NoiseScales:
    """Laplace analogue of calibrate_peeling_scales for an (eps, delta) budget.

    Per-round peeling scale 2*sqrt(2*m_peel*ln(1/delta))*gs/eps with half
    that for the inference row, mirroring the 1:2 Gaussian ratio under
    advanced composition. Both scales are configuration defaults, not a
    claim of tightness.
    """
    if not (0.0 < eps < math.inf and 0.0 < gs < math.inf):
        raise ValueError("eps and gs must be finite and positive")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    if m_peel < 1:
        raise ValueError("m_peel must be a positive integer")
    b0 = math.sqrt(2.0 * m_peel * math.log(1.0 / delta)) * gs / eps
    return NoiseScales(b0, 2.0 * b0)


def split_budget(mu: float, rho: float) -> tuple:
    """Split a GDP budget between estimation and peeling.

    Returns (mu*sqrt(rho), mu*sqrt(1-rho)); the two parts compose back to
    mu exactly. rho is the squared-budget fraction spent on estimation.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError("mu must be finite and positive")
    if not 0.0 < rho < 1.0:
        raise ValueError("rho must lie strictly in (0,1)")
    return (mu * math.sqrt(rho), mu * math.sqrt(1.0 - rho))
