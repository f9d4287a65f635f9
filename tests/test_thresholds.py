import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from classic_oracle import classic_procedure as classic_oracle
from suptest.adaptive import AdaptiveConfig, adaptive_sup_test
from suptest.numerics import RandomStream
from suptest.peeling import PeelOutcome, reversed_peel
from suptest.privacy import NoiseScales, PrivacyBudget
from suptest.simulate import METHODS, MethodSpec, run_method
from suptest.thresholds import (
    FAMILIES,
    TestConfig,
    ThresholdFamily,
    reject_peeled,
    resolve_scales,
    sup_test,
    threshold_values,
)
from theory_oracle import truncated_sup_test


def test_threshold_values_bh():
    fam = ThresholdFamily("bh", 0.05, 10)
    lam = threshold_values(fam, np.arange(1, 11))
    assert np.allclose(lam, 0.05 * np.arange(1, 11) / 10)
    assert threshold_values(fam, [10])[0] == pytest.approx(0.05)


def test_threshold_values_by_harmonic():
    fam = ThresholdFamily("by", 0.05, 4)
    h4 = 1 + 0.5 + 1 / 3 + 0.25
    assert threshold_values(fam, [2])[0] == pytest.approx(0.05 * 2 / (4 * h4))
    # worked example: m = 3, alpha = 0.12, j = 2 -> 0.12*2/(3*(11/6)) = 0.24/5.5
    fam3 = ThresholdFamily("by", 0.12, 3)
    assert threshold_values(fam3, [2])[0] == pytest.approx(0.24 / 5.5)


def test_threshold_values_bonf_and_holm():
    bonf = ThresholdFamily("bonf", 0.1, 20)
    assert np.allclose(threshold_values(bonf, [1, 7, 20]), 0.1 / 20)
    holm = ThresholdFamily("holm", 0.1, 20)
    assert threshold_values(holm, [1])[0] == pytest.approx(0.1 / 20)
    assert threshold_values(holm, [20])[0] == pytest.approx(0.1)
    assert threshold_values(holm, [5])[0] == pytest.approx(0.1 / 16)


def test_threshold_pi0_scaling():
    plain = ThresholdFamily("bh", 0.1, 50)
    scaled = ThresholdFamily("bh", 0.1, 50, pi0_inv_scale=2.0)
    j = np.arange(1, 51)
    assert np.allclose(threshold_values(scaled, j), 2 * threshold_values(plain, j))


def test_threshold_family_validation():
    with pytest.raises(ValueError):
        ThresholdFamily("bhh", 0.1, 10)
    with pytest.raises(ValueError):
        ThresholdFamily("bh", 0.0, 10)
    with pytest.raises(ValueError):
        ThresholdFamily("bh", 0.1, 0)
    with pytest.raises(ValueError):
        ThresholdFamily("bh", 0.1, 10, pi0_inv_scale=0.5)
    with pytest.raises(ValueError):
        threshold_values(ThresholdFamily("bh", 0.1, 10), [0])


def _j_star(sorted_values, fam, zeta):
    # the step rule of every release, on values already in sorted order
    return reject_peeled(PeelOutcome(np.arange(sorted_values.size), sorted_values), fam,
                         zeta).j_star


def _step_by_hand(sorted_values, lam, zeta):
    # the step rule written out on its own: step-up takes the largest j with
    # v_(j) <= lambda_j, step-down stops before the first violation
    n = len(sorted_values)
    if zeta == 1:
        return max((j for j in range(1, n + 1) if sorted_values[j - 1] <= lam[j - 1]),
                   default=0)
    j = 0
    while j < n and sorted_values[j] <= lam[j]:
        j += 1
    return j


def test_select_step_up():
    fam = ThresholdFamily("bh", 0.5, 4)  # thresholds .125 .25 .375 .5
    assert _j_star(np.array([0.10, 0.30, 0.35, 0.9]), fam, 1) == 3
    assert _j_star(np.array([0.12, 0.25, 0.4, 0.6]), fam, 1) == 2
    assert _j_star(np.array([0.9, 0.95, 0.99, 1.0]), fam, 1) == 0
    assert _j_star(np.array([0.1, 0.2, 0.3, 0.5]), fam, 1) == 4


def test_select_step_down():
    fam = ThresholdFamily("holm", 0.4, 4)  # thresholds .1 .1333 .2 .4
    assert _j_star(np.array([0.05, 0.2, 0.21, 0.9]), fam, 0) == 1
    assert _j_star(np.array([0.2, 0.3, 0.4, 0.9]), fam, 0) == 0
    assert _j_star(np.array([0.01, 0.02, 0.03, 0.04]), fam, 0) == 4
    # truncated list: no violation among the first two -> both kept
    assert _j_star(np.array([0.05, 0.12]), fam, 0) == 2


def test_select_step_validates_input():
    fam = ThresholdFamily("bh", 0.1, 5)
    with pytest.raises(ValueError, match="zeta must be 0 or 1"):
        _j_star(np.array([0.1, 0.2]), fam, 2)
    assert _j_star(np.array([]), fam, 1) == 0


def test_step_up_vs_step_down_on_same_family():
    # step-up can jump a local violation, step-down stops at it
    fam = ThresholdFamily("bh", 0.8, 4)  # thresholds .2 .4 .6 .8
    s = np.array([0.3, 0.35, 0.5, 0.7])
    assert _j_star(s, fam, 1) == 4
    assert _j_star(s, fam, 0) == 0


@pytest.mark.parametrize("scale", [1.0, 1.5, 4.0])
@pytest.mark.parametrize("zeta", [0, 1])
@pytest.mark.parametrize("family", FAMILIES)
def test_reject_peeled_steps_like_select_step_on_the_sorted_values(family, zeta, scale):
    # values near their thresholds, with ties, given in shuffled peel order
    g = np.random.default_rng(31)
    picks = set()
    for _ in range(60):
        m = int(g.integers(1, 40))
        n = int(g.integers(1, m + 1))
        fam = ThresholdFamily(family, 0.2, m, scale)
        lam = threshold_values(fam, np.arange(1, n + 1))
        values = np.round(lam * g.uniform(0.0, 2.0, n), 3)
        indices = g.permutation(m)[:n]
        release = reject_peeled(PeelOutcome(indices, values), fam, zeta)
        assert release.j_star == _step_by_hand(np.sort(values), lam, zeta)
        rejected = release.rejected_indices
        assert rejected.size == release.j_star and np.all(np.diff(rejected) > 0)
        if rejected.size:
            kth = np.sort(values)[rejected.size - 1]
            assert np.all(values[np.isin(indices, rejected)] <= kth)
        picks.add((release.j_star == 0, release.j_star == n))
    # some releases reject nothing, some all and some a part
    assert picks == {(True, False), (False, True), (False, False)}


# sorted p-values with exact 0s and 1s and repeats, a family over m >= their
# count hypotheses, and a level
_P = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 1e-3, 0.05]), st.floats(0.0, 1.0))
_ALPHA = st.floats(1e-6, 0.999)


@st.composite
def _step_cases(draw):
    s = np.sort(np.array(draw(st.lists(_P, max_size=25))))
    m = s.size + draw(st.integers(0 if s.size else 1, 10))
    scale = draw(st.sampled_from([1.0, 1.5, 4.0]))
    fam = ThresholdFamily(draw(st.sampled_from(FAMILIES)), draw(_ALPHA), m, scale)
    return s, fam


@settings(max_examples=300, deadline=None)
@given(case=_step_cases())
def test_select_step_up_is_largest_hit(case):
    s, fam = case
    lam = threshold_values(fam, np.arange(1, s.size + 1))
    hits = [j for j in range(1, s.size + 1) if s[j - 1] <= lam[j - 1]]
    assert _j_star(s, fam, 1) == max(hits, default=0)


@settings(max_examples=300, deadline=None)
@given(case=_step_cases())
def test_select_step_down_stops_at_first_violation(case):
    s, fam = case
    lam = threshold_values(fam, np.arange(1, s.size + 1))
    j_star = 0
    while j_star < s.size and s[j_star] <= lam[j_star]:
        j_star += 1
    assert _j_star(s, fam, 0) == j_star


@settings(max_examples=300, deadline=None)
@given(case=_step_cases(), other=_ALPHA, zeta=st.sampled_from([0, 1]))
def test_select_step_nondecreasing_in_alpha(case, other, zeta):
    s, fam = case
    lo, hi = sorted((fam.alpha, other))
    pick = [_j_star(s, ThresholdFamily(fam.kind, a, fam.m, fam.pi0_inv_scale), zeta)
            for a in (lo, hi)]
    assert pick[0] <= pick[1]


@settings(max_examples=200, deadline=None)
@given(pvals=st.lists(_P, min_size=1, max_size=30), family=st.sampled_from(FAMILIES),
       alpha=st.floats(0.01, 0.5))
def test_zero_noise_sup_test_matches_classic_at_the_clamp(pvals, family, alpha):
    # exact 0 and 1 are clamped to 1e-15 and 1 - 1e-15 before peeling; no
    # threshold lies between a value and its clamp, so the rejections match
    p = np.array(pvals + [0.0, 1.0])
    cfg = TestConfig(family=family, alpha=alpha, m_peel=p.size, sigma_override=(0.0, 0.0))
    res = sup_test(p, cfg)
    assert np.array_equal(res.rejected_indices, classic_oracle(p, family, alpha))


def test_sup_test_deterministic_and_reproducible():
    g = np.random.default_rng(12)
    p = g.uniform(size=400)
    p[:20] = g.uniform(size=20) * 1e-5
    cfg = TestConfig(family="bh", alpha=0.2, budget=PrivacyBudget.gdp(0.5), m_peel=50)
    a = sup_test(p, cfg, RandomStream(1))
    b = sup_test(p, cfg, RandomStream(1))
    assert np.array_equal(a.rejected_indices, b.rejected_indices)
    assert a.j_star == b.j_star
    c = sup_test(p, cfg, RandomStream(2))
    assert a.j_star >= 0 and c.j_star >= 0
    # default stream comes from config.seed
    d = sup_test(p, cfg)
    e = sup_test(p, TestConfig(family="bh", alpha=0.2,
                               budget=PrivacyBudget.gdp(0.5), m_peel=50, seed=0))
    assert np.array_equal(d.rejected_indices, e.rejected_indices)


def test_sup_test_rejections_subset_of_peeled():
    g = np.random.default_rng(5)
    p = g.uniform(size=300)
    p[:15] *= 1e-4
    cfg = TestConfig(family="bh", alpha=0.1, budget=PrivacyBudget.gdp(0.3), m_peel=40)
    res = sup_test(p, cfg, RandomStream(7))
    assert set(res.rejected_indices) <= set(res.peeled.peeled_indices)
    assert res.j_star == res.rejected_indices.size
    assert np.all(np.diff(res.rejected_indices) > 0)


def test_zero_noise_override_reproduces_classic():
    g = np.random.default_rng(33)
    p = g.uniform(size=200)
    p[:10] *= 1e-4
    for family in ("bh", "by", "bonf", "holm"):
        cfg = TestConfig(family=family, alpha=0.1, m_peel=200,
                         sigma_override=(0.0, 0.0))
        res = sup_test(p, cfg)
        ref = classic_oracle(p, family, 0.1)
        assert np.array_equal(res.rejected_indices, ref), family


def test_truncated_shares_inference_row():
    g = np.random.default_rng(8)
    p = g.uniform(size=250)
    p[:12] *= 1e-5
    cfg = TestConfig(family="bh", alpha=0.15, budget=PrivacyBudget.gdp(0.4), m_peel=30)
    s = RandomStream(21)
    full = sup_test(p, cfg, s)
    trunc = truncated_sup_test(p, cfg, s)
    # identical row 0 noise: the peeled inference values reappear verbatim
    peeled = dict(zip(full.peeled.peeled_indices.tolist(),
                      full.peeled.inference_pvals.tolist()))
    trunc_vals = dict(zip(trunc.peeled.peeled_indices.tolist(),
                          trunc.peeled.inference_pvals.tolist()))
    for idx, val in peeled.items():
        assert trunc_vals[idx] == val
    assert set(full.rejected_indices) <= set(trunc.rejected_indices)


# SHA-256 of truncated_sup_test's rejected indices and its index -> value
# map, sorted by index, per (noise, family) on one fixed input with ties
# and exact 0 and 1. Recorded before the truncated test was routed through
# reversed_peel; the bytes are promised per numpy/scipy version.
_FROZEN_TRUNCATED = "ee3be0d2e564d1bac52fa9a929d015417c2abe75857e81f7b4d4bd248d803f54"


def test_truncated_sup_test_bytes_frozen():
    g = np.random.default_rng(2026)
    p = g.uniform(size=300)
    p[:20] *= 1e-4
    p[40:44] = p[44]
    p[50], p[51] = 0.0, 1.0
    h = hashlib.sha256()
    for kind, budget in (("gaussian", PrivacyBudget.gdp(0.8)),
                         ("laplace", PrivacyBudget.approx_dp(1.0, 1e-3))):
        for family in ("bh", "holm"):
            cfg = TestConfig(family=family, alpha=0.1, budget=budget, gs=0.01,
                             m_peel=40, noise_kind=kind)
            res = truncated_sup_test(p, cfg, RandomStream(5))
            assert res.j_star > 0
            values = sorted(zip(res.peeled.peeled_indices.tolist(),
                                map(repr, res.peeled.inference_pvals.tolist())))
            h.update(repr((res.rejected_indices.tolist(), values)).encode())
    assert h.hexdigest() == _FROZEN_TRUNCATED


def test_zeta_override_changes_rule():
    # step-up jumps the first violation, step-down stops immediately
    p = np.array([0.25, 0.3, 0.5, 0.7])
    cfg_up = TestConfig(family="bh", alpha=0.8, m_peel=4, sigma_override=(0.0, 0.0))
    cfg_down = TestConfig(family="bh", alpha=0.8, m_peel=4, zeta=0,
                          sigma_override=(0.0, 0.0))
    assert sup_test(p, cfg_up).j_star == 4
    assert sup_test(p, cfg_down).j_star == 0


def test_resolve_scales_routes():
    gauss = TestConfig(family="bh", budget=PrivacyBudget.gdp(0.5), gs=1e-4)
    sc = resolve_scales(gauss, 200)
    assert sc.sigma0 == pytest.approx(np.sqrt(400) * 1e-4 / 0.5)
    lap = TestConfig(family="bh", budget=PrivacyBudget.approx_dp(0.5, 1e-3),
                     noise_kind="laplace")
    sl = resolve_scales(lap, 200)
    assert sl.sigma0 > 0 and sl.sigma1 == 2 * sl.sigma0
    with pytest.raises(ValueError):
        bad = TestConfig(family="bh", budget=PrivacyBudget.gdp(0.5), noise_kind="laplace")
        resolve_scales(bad, 200)
    forced = TestConfig(family="bh", sigma_override=(0.3, 0.9))
    so = resolve_scales(forced, 200)
    assert (so.sigma0, so.sigma1) == (0.3, 0.9)


def test_laplace_noise_needs_an_eps_delta_budget_when_the_config_is_built():
    with pytest.raises(ValueError, match=r"^laplace noise requires an \(eps, delta\) budget$"):
        TestConfig(family="bh", budget=PrivacyBudget.gdp(0.5), noise_kind="laplace")
    # scales that no budget calibrated need no budget
    forced = TestConfig(family="bh", budget=PrivacyBudget.gdp(0.5), noise_kind="laplace",
                        sigma_override=(0.3, 0.9))
    assert resolve_scales(forced, 200) == NoiseScales(0.3, 0.9)


def test_sup_test_rejects_bad_m_peel():
    p = np.full(10, 0.5)
    with pytest.raises(ValueError):
        sup_test(p, TestConfig(family="bh", m_peel=11, sigma_override=(0.0, 0.0)))
    with pytest.raises(ValueError):
        sup_test(p, TestConfig(family="bh", m_peel=0, sigma_override=(0.0, 0.0)))


def test_sup_test_memory_is_linear_in_m():
    # a dense (1 + m') x m matrix of float64 would take 8 (1 + m') m bytes
    # (320 MB here); the streamed peel holds a few length-m rows at a time
    m, m_peel = 20_000, 2000
    p = np.random.default_rng(6).uniform(size=m)
    cfg = TestConfig(family="bh", alpha=0.1, budget=PrivacyBudget.gdp(1.0), m_peel=m_peel)
    tracemalloc.start()
    try:
        res = sup_test(p, cfg, RandomStream(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.peeled.peeled_indices.size == m_peel
    assert peak < 16 * 8 * m


_BAD_PVALUES = [float("nan"), float("inf"), -0.1, 1.5]
_GDP = TestConfig(family="bh", alpha=0.1, budget=PrivacyBudget.gdp(1.0), m_peel=3)
_RELEASES = {
    "sup_test": lambda p: sup_test(p, _GDP, RandomStream(1)),
    "adaptive_sup_test": lambda p: adaptive_sup_test(p, _GDP, AdaptiveConfig(m_tilde=3),
                                                     RandomStream(1)),
    "truncated_sup_test": lambda p: truncated_sup_test(p, _GDP, RandomStream(1)),
    "reversed_peel": lambda p: reversed_peel(p, 3, NoiseScales(0.5, 1.0), RandomStream(1)),
}


@pytest.mark.parametrize("bad", _BAD_PVALUES)
@pytest.mark.parametrize("release", sorted(_RELEASES))
def test_releases_reject_bad_pvalues(release, bad):
    # argmin returns a NaN first, so an unchecked NaN would be peeled and
    # released as an inference value
    p = [0.5] * 5 + [bad, 1e-9, 1e-8]
    with pytest.raises(ValueError, match="at index 5 is not a number in"):
        _RELEASES[release](p)


@pytest.mark.parametrize("bad", _BAD_PVALUES)
@pytest.mark.parametrize("method", list(METHODS))
def test_every_method_rejects_bad_pvalues(method, bad):
    p = np.linspace(1e-6, 0.9, 40)
    p[7] = bad
    with pytest.raises(ValueError, match="at index 7 is not a number in"):
        run_method(MethodSpec(method, options={"m_peel": 5}), p, 0.1, RandomStream(1))


@pytest.mark.parametrize("release", ["reversed_peel", "sup_test", "truncated_sup_test"])
def test_releases_name_both_counts_when_m_peel_exceeds_m(release):
    with pytest.raises(ValueError, match=r"^m_peel \(3\) cannot exceed the number of "
                                         r"hypotheses \(2\)$"):
        _RELEASES[release]([0.5, 1e-9])


@pytest.mark.parametrize("release", sorted(_RELEASES))
def test_releases_refuse_empty_pvalues(release):
    # the empty-input rule comes before any depth check
    with pytest.raises(ValueError, match=r"^p-value array is empty$"):
        _RELEASES[release]([])


def test_exact_zero_and_one_pvalues_are_valid():
    p = np.array([0.0, 1.0, 0.5, 1e-9])
    for release in _RELEASES.values():
        release(p)
