import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from suptest.adaptive import (
    AdaptiveConfig,
    adaptive_sup_test,
    e_tau,
    gs_pi0_inv,
    peel_count_m_dagger,
    pi0_hat,
    pi0_inv_bar,
    resolve_c,
)
from suptest.numerics import RandomStream, std_normal_cdf, std_normal_quantile
from suptest.privacy import PrivacyBudget
from suptest.thresholds import TestConfig, budget_as_mu
from theory_oracle import gs_pi0, pi0_bar


def test_e_tau_values():
    # closed-form truncated-normal mean, quadrature-checked
    assert abs(e_tau(0.5) - 0.797884560803) < 1e-11
    assert abs(e_tau(0.75) - 0.59661654054) < 1e-10
    assert abs(e_tau(0.9) - 0.47343175378) < 1e-10


def test_e_tau_positive_and_validated():
    for tau in np.linspace(0.01, 0.99, 25):
        assert e_tau(tau) > 0
    with pytest.raises(ValueError):
        e_tau(0.0)
    with pytest.raises(ValueError):
        e_tau(1.0)


def test_pi0_bar_boundary_cases():
    assert pi0_bar(np.array([0.1, 0.4, 0.5]), 0.5) == 0.0
    # single value just over tau contributes ~ nothing
    eps = 1e-9
    val = pi0_bar(np.array([0.5 + eps]), 0.5)
    assert 0.0 <= val < 1e-6
    with pytest.raises(ValueError):
        pi0_bar(np.array([]), 0.5)


def test_pi0_estimators_consistent_on_uniform():
    u = RandomStream(14).generator().random(100_000)
    assert abs(pi0_bar(u, 0.5) - 1.0) < 0.02
    assert abs(pi0_inv_bar(u, 0.5, 0.5) - 1.0) < 0.02


def test_pi0_inv_bar_floor():
    # everything below tau -> floor at 1/c0
    p = np.array([0.01, 0.2, 0.4])
    assert pi0_inv_bar(p, 0.5, 0.5) == pytest.approx(2.0)
    assert pi0_inv_bar(p, 0.5, 0.25) == pytest.approx(4.0)
    assert pi0_inv_bar(p, 0.5, 0.5) <= 1 / 0.5


def test_gs_pi0_formula():
    val = gs_pi0(1e-4, 0.5)
    assert val == pytest.approx(1e-4 / (0.5 * e_tau(0.5)), rel=1e-12)
    with pytest.raises(ValueError):
        gs_pi0(0.0, 0.5)


def test_gs_pi0_inv_golden_and_limits():
    v = gs_pi0_inv(1e-4, 0.5, 0.5)
    assert abs(v - 1.0020e-3) < 1e-6
    assert abs(v - 0.001002148907) < 1e-12
    assert gs_pi0_inv(0.0, 0.5, 0.5) == 0.0
    grid = [gs_pi0_inv(g, 0.5, 0.5) for g in np.linspace(1e-6, 1e-2, 40)]
    assert np.all(np.diff(grid) > 0)


def test_peel_count_m_dagger():
    cfg = AdaptiveConfig(m_tilde=100)
    assert peel_count_m_dagger(1.0, 20000, cfg, alpha=0.1) == 100
    # (10/9) * 20000 * 0.01 = 222.2 -> 223
    assert peel_count_m_dagger(0.99, 20000, cfg, alpha=0.1) == 223
    assert peel_count_m_dagger(-0.5, 20000, cfg, alpha=0.1) == 20000
    assert peel_count_m_dagger(-2.0, 500, cfg, alpha=0.1) == 500
    with pytest.raises(ValueError):
        peel_count_m_dagger(0.5, 0, cfg)


def test_resolve_c():
    assert resolve_c(AdaptiveConfig(), 0.1) == pytest.approx(1 / 9)
    assert resolve_c(AdaptiveConfig(c=0.3), 0.1) == 0.3


def test_pi0_hat_clamping():
    assert pi0_hat(1.0, 0.0, 0.0) == 1.0
    assert pi0_hat(2.0, 0.0, 0.0, c0=0.5) == 0.5
    # noisy value below 1 clamps to 1
    assert pi0_hat(0.3, 1.0, 0.0, c0=0.5) == 1.0
    assert pi0_hat(1.0, 1.0, -0.7, c0=0.5) == 1.0
    # huge noise clamps at the floor
    assert pi0_hat(1.5, 1.0, 100.0, c0=0.5) == 0.5
    # 1 / (1 / c0) rounds to just below this c0
    assert pi0_hat(2.0, 0.0, 0.0, c0=0.896484375) == 0.896484375
    with pytest.raises(ValueError):
        pi0_hat(1.0, -0.1, 0.0)


def test_pi0_hat_range_randomized():
    g = np.random.default_rng(6)
    for _ in range(500):
        v = pi0_hat(g.uniform(0, 4), g.uniform(0, 2), g.standard_normal(), c0=0.5)
        assert 0.5 <= v <= 1.0


def test_single_record_sensitivity_bounds():
    # one record shifts every quantile by at most gs; the estimator moves
    # by at most the analytic sensitivities
    g = np.random.default_rng(77)
    gs, tau, c0 = 1e-3, 0.5, 0.5
    bound_bar = gs_pi0(gs, tau)
    bound_inv = gs_pi0_inv(gs, tau, c0)
    for _ in range(200):
        p = g.random(20)
        q = std_normal_quantile(p)
        shift = g.uniform(-gs, gs, 20)
        p2 = std_normal_cdf(q + shift)
        assert abs(pi0_bar(p2, tau) - pi0_bar(p, tau)) <= bound_bar + 1e-12
        assert abs(pi0_inv_bar(p2, tau, c0) - pi0_inv_bar(p, tau, c0)) \
            <= bound_inv + 1e-12


# each checked scalar input of the estimators in turn
_CHECKED = {
    "gs_pi0 gs": lambda x: gs_pi0(x, 0.5),
    "gs_pi0_inv gs": lambda x: gs_pi0_inv(x, 0.5, 0.5),
    "pi0_hat pi0_inv_val": lambda x: pi0_hat(x, 1.0, 0.3),
    "pi0_hat sigma_tau": lambda x: pi0_hat(1.2, x, 0.3),
    "pi0_hat noise": lambda x: pi0_hat(1.2, 1.0, x),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("checked", sorted(_CHECKED))
def test_non_finite_inputs_are_refused(checked, bad):
    # NaN fails every comparison, so a check written as x < 0 would pass it
    with pytest.raises(ValueError):
        _CHECKED[checked](bad)


def test_adaptive_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(tau=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(c=-0.1)
    with pytest.raises(ValueError):
        AdaptiveConfig(m_tilde=0)
    with pytest.raises(ValueError):
        AdaptiveConfig(c0=1.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(rho=1.0)


def _uniform_pvals(m, seed):
    return RandomStream(seed).generator().random(m)


def test_adaptive_sup_test_nearly_null_data():
    # all-uniform input with silenced estimator noise: the inverse estimate
    # sits at/below 1 (this seed draws 0.9991), so pi0_hat clamps to 1, the
    # peeling count falls to the floor m_tilde and thresholds are unscaled
    p = _uniform_pvals(100_000, 22)
    cfg = TestConfig(family="bh", alpha=0.1, budget=PrivacyBudget.gdp(0.5),
                     sigma_override=(0.01, 0.02))
    acfg = AdaptiveConfig()
    res = adaptive_sup_test(p, cfg, acfg, RandomStream(4))
    assert res.adaptive_info.sigma_tau == 0.0
    assert res.adaptive_info.pi0_hat == 1.0
    assert res.adaptive_info.m_star == acfg.m_tilde
    # selection is the step-up over the released values against the
    # unscaled BH thresholds alpha j / m
    order = np.argsort(res.peeled.inference_pvals, kind="stable")
    lam = 0.1 * np.arange(1, acfg.m_tilde + 1) / 100_000
    hits = np.flatnonzero(res.peeled.inference_pvals[order] <= lam)
    j_star = int(hits[-1] + 1) if hits.size else 0
    assert res.j_star == j_star
    assert np.array_equal(res.rejected_indices,
                          np.sort(res.peeled.peeled_indices[order[:j_star]]))


def test_adaptive_sup_test_deterministic():
    g = np.random.default_rng(9)
    p = g.random(2000)
    p[:100] *= 1e-5
    cfg = TestConfig(family="bh", alpha=0.1,
                     budget=PrivacyBudget.approx_dp(0.5, 1e-3))
    a = adaptive_sup_test(p, cfg, AdaptiveConfig(), RandomStream(3))
    b = adaptive_sup_test(p, cfg, AdaptiveConfig(), RandomStream(3))
    assert np.array_equal(a.rejected_indices, b.rejected_indices)
    assert a.adaptive_info == b.adaptive_info
    assert a.adaptive_info.m_star >= 100
    assert 0.5 <= a.adaptive_info.pi0_hat <= 1.0


def test_adaptive_sup_test_restrictions():
    p = np.full(50, 0.5)
    lap = TestConfig(family="bh", noise_kind="laplace",
                     budget=PrivacyBudget.approx_dp(0.5, 1e-3))
    with pytest.raises(ValueError):
        adaptive_sup_test(p, lap, AdaptiveConfig())
    by = TestConfig(family="by")
    with pytest.raises(ValueError):
        adaptive_sup_test(p, by, AdaptiveConfig())


def test_adaptive_m_star_tracks_signal_mass():
    # strong dense signals push pi0_hat down and m_star up
    g = np.random.default_rng(15)
    m = 10_000
    p = g.random(m)
    p[:2000] = std_normal_cdf(g.standard_normal(2000) - 4.0)
    cfg = TestConfig(family="bh", alpha=0.1, budget=PrivacyBudget.gdp(0.5))
    res = adaptive_sup_test(p, cfg, AdaptiveConfig(), RandomStream(8))
    c = resolve_c(AdaptiveConfig(), 0.1)
    assert res.adaptive_info.pi0_hat < 0.9
    assert res.adaptive_info.m_star >= math.ceil((1 + c) * m * 0.1)

@st.composite
def _adaptive_instances(draw):
    """An input with exact 0 and 1 p-values and a random share of strong
    signals, and the knobs of one adaptive release over it."""
    m = draw(st.integers(1, 400))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = g.random(m)
    n_signal = draw(st.integers(0, m))
    p[:n_signal] *= 1e-6
    p[g.choice(m, size=draw(st.integers(0, m)), replace=False)] = 0.0
    p[g.choice(m, size=draw(st.integers(0, m)), replace=False)] = 1.0
    # a large gs makes the pi0_hat noise large enough to reach both clamps
    cfg = TestConfig(family=draw(st.sampled_from(["bh", "bonf"])), alpha=0.1,
                     budget=PrivacyBudget.gdp(0.5),
                     gs=draw(st.sampled_from([1e-4, 0.05, 1.0])))
    acfg = AdaptiveConfig(m_tilde=draw(st.integers(1, 500)), c0=draw(st.floats(0.01, 0.99)),
                          rho=draw(st.floats(0.01, 0.99)))
    return p, cfg, acfg, RandomStream(draw(st.integers(0, 1000)))


@settings(max_examples=100, deadline=None)
@given(_adaptive_instances())
def test_adaptive_release_invariants(instance):
    p, cfg, acfg, stream = instance
    release = adaptive_sup_test(p, cfg, acfg, stream)
    info = release.adaptive_info
    peeled = release.peeled.peeled_indices
    # m* values are peeled, each hypothesis at most once, and m* never
    # falls below the floor m_tilde unless m does
    assert release.m_peel == info.m_star == np.unique(peeled).size == peeled.size
    assert min(acfg.m_tilde, p.size) <= info.m_star <= p.size
    assert acfg.c0 <= info.pi0_hat <= 1.0
    rejected = release.rejected_indices
    assert np.all(np.diff(rejected) > 0)
    assert np.isin(rejected, peeled).all()
    assert release.j_star == rejected.size


@settings(max_examples=100, deadline=None)
@given(_adaptive_instances(), st.floats(0.05, 0.95),
       st.sampled_from([PrivacyBudget.gdp(0.5), PrivacyBudget.approx_dp(0.5, 1e-3)]))
def test_adaptive_info_has_the_bits_of_the_public_estimators(instance, tau, budget):
    # the release's inverse estimate and estimator noise scale are the public
    # estimators' values, bit for bit, with the estimation share mu sqrt(rho)
    p, cfg, acfg, stream = instance
    cfg, acfg = replace(cfg, budget=budget), replace(acfg, tau=tau)
    info = adaptive_sup_test(p, cfg, acfg, stream).adaptive_info
    assert info.pi0_inv_bar.hex() == pi0_inv_bar(p, tau, acfg.c0).hex()
    mu_est = budget_as_mu(budget) * math.sqrt(acfg.rho)
    assert info.sigma_tau.hex() == (gs_pi0_inv(cfg.gs, tau, acfg.c0) / mu_est).hex()
    # sigma_override silences the estimator noise and leaves the estimate
    silent = replace(cfg, sigma_override=(0.01, 0.02))
    info = adaptive_sup_test(p, silent, acfg, stream).adaptive_info
    assert info.sigma_tau.hex() == (0.0).hex()
    assert info.pi0_inv_bar.hex() == pi0_inv_bar(p, tau, acfg.c0).hex()
