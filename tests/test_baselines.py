import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from classic_oracle import classic_procedure as classic_oracle
from forward_oracle import forward_peel_delete
from suptest import peeling
from suptest.baselines import (
    DworkParams,
    classic_procedure,
    dp_penalty,
    dp_test,
)
from suptest.numerics import RandomStream
from suptest.peeling import forward_peel_baseline
from suptest.thresholds import FAMILIES
from test_peeling import _homogeneity_pvalue
from theory_oracle import theorem8_check


def test_classic_bh_hand_trace():
    # thresholds 0.0167, 0.0333, 0.05 -> j* = 2
    rej = classic_procedure(np.array([0.01, 0.02, 0.9]), "bh", 0.05).rejected_indices
    assert rej.tolist() == [0, 1]


def test_classic_all_ones_rejects_nothing():
    p = np.ones(10)
    for fam in ("bh", "by", "bonf", "holm"):
        assert classic_procedure(p, fam, 0.1).rejected_indices.size == 0


def test_classic_bonf_and_holm():
    p = np.array([0.004, 0.011, 0.03, 0.9])
    # bonf cutoff 0.0125
    assert classic_procedure(p, "bonf", 0.05).rejected_indices.tolist() == [0, 1]
    # holm: 0.004<=0.0125, 0.011<=0.0167, 0.03>0.025 stops
    assert classic_procedure(p, "holm", 0.05).rejected_indices.tolist() == [0, 1]


def test_classic_by_is_bh_with_harmonic_correction():
    g = np.random.default_rng(3)
    p = g.uniform(size=50)
    m = p.size
    h = np.sum(1.0 / np.arange(1, m + 1))
    by = classic_procedure(p, "by", 0.2).rejected_indices
    bh_equivalent = classic_procedure(p, "bh", 0.2 / h).rejected_indices
    assert np.array_equal(by, bh_equivalent)


def test_bonferroni_subset_of_holm_subset_of_bh():
    g = np.random.default_rng(11)
    for _ in range(50):
        p = g.uniform(size=30)
        p[: g.integers(0, 8)] *= 1e-3
        bonf = set(classic_procedure(p, "bonf", 0.1).rejected_indices.tolist())
        holm = set(classic_procedure(p, "holm", 0.1).rejected_indices.tolist())
        bh = set(classic_procedure(p, "bh", 0.1).rejected_indices.tolist())
        assert bonf <= holm <= bh


def test_classic_bh_monotone_in_alpha():
    p = np.random.default_rng(8).uniform(size=100)
    p[:10] *= 1e-3
    counts = [classic_procedure(p, "bh", a).rejected_indices.size
              for a in (0.01, 0.05, 0.1, 0.2, 0.4)]
    assert counts == sorted(counts)


def test_classic_validation():
    with pytest.raises(ValueError):
        classic_procedure(np.array([0.5]), "fdr", 0.1)
    with pytest.raises(ValueError):
        classic_procedure(np.array([0.5]), "bh", 0.0)
    with pytest.raises(ValueError, match="empty"):
        classic_procedure(np.array([]), "bh", 0.1)


# p-values with exact 0s and 1s and repeats
_P = st.one_of(st.sampled_from([0.0, 1.0, 1e-3, 0.01, 0.05]), st.floats(0.0, 1.0))


@settings(max_examples=400, deadline=None)
@given(pvals=st.lists(_P, min_size=1, max_size=60), family=st.sampled_from(FAMILIES),
       alpha=st.floats(0.01, 0.5))
def test_classic_procedure_matches_textbook_oracle(pvals, family, alpha):
    # classic_procedure selects through select_step; the oracle writes the
    # textbook thresholds and step rules out on its own
    p = np.array(pvals)
    assert np.array_equal(classic_procedure(p, family, alpha).rejected_indices,
                          classic_oracle(p, family, alpha))


def test_dwork_params_validation():
    with pytest.raises(ValueError):
        DworkParams(eta=0.0, nu=0.1, eps=0.5, delta=1e-3, m_peel=10)
    with pytest.raises(ValueError):
        DworkParams(eta=1e-4, nu=1.0, eps=0.5, delta=1e-3, m_peel=10)
    with pytest.raises(ValueError):
        DworkParams(eta=1e-4, nu=0.1, eps=0.5, delta=1e-3, m_peel=0)


# each checked field of DworkParams in turn, and the forward peel's scale;
# the last word of a key is the name its error message carries
_DWORK_CHECKED = {
    "eta": lambda x: DworkParams(eta=x),
    "nu": lambda x: DworkParams(nu=x),
    "eps": lambda x: DworkParams(eps=x),
    "delta": lambda x: DworkParams(delta=x),
    "laplace_scale": lambda x: DworkParams(laplace_scale=x),
    "forward_peel laplace_scale": lambda x: forward_peel_baseline(
        np.log([0.1, 0.2, 0.3]), 2, x, RandomStream(0)),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("checked", sorted(_DWORK_CHECKED))
def test_dwork_params_refuse_non_finite_values(checked, bad):
    # NaN fails every comparison, so a check written as x <= 0 would pass it
    with pytest.raises(ValueError, match=checked.split()[-1]):
        _DWORK_CHECKED[checked](bad)


def test_dp_test_refuses_unknown_variant_and_bad_m_peel():
    p = np.full(10, 0.5)
    with pytest.raises(ValueError, match="unknown variant"):
        dp_test(p, DworkParams(m_peel=5), 0.1, RandomStream(0), "hochberg")
    with pytest.raises(ValueError,
                       match=r"^m_peel \(11\) cannot exceed the number of hypotheses \(10\)$"):
        dp_test(p, DworkParams(m_peel=11), 0.1, RandomStream(0), "bh")
    with pytest.raises(ValueError, match="m_peel must be a positive integer"):
        forward_peel_baseline(np.log(p), 0, 1.0, RandomStream(0))


def _dp_oracle(p, params, alpha, stream, variant, penalty):
    """The comparator written out from the baselines module docstring: floor
    at nu, take logs, forward-peel n rounds with the eager loop, then step
    up against log thresholds minus the penalty."""
    m = len(p)
    nu = alpha / (2 * m) if params.nu is None else params.nu
    logs = np.log(np.maximum(p, nu))
    eta, eps, ln_delta = params.eta, params.eps, math.log(1 / params.delta)
    if variant == "bh":
        n = params.m_peel
        scale = eta * math.sqrt(10 * n * ln_delta) / eps
        pen = eta * math.sqrt(10 * n * ln_delta * math.log(6 * n / alpha)) / eps
    else:
        n = m
        scale = eta * math.sqrt(10 * m * ln_delta) / (2 * eps)
        pen = eta * math.sqrt(10 * m * ln_delta * math.log(5 * m / alpha)) / (2 * eps)
    if params.laplace_scale is not None:
        scale = params.laplace_scale
    if penalty is not None:
        pen = penalty
    picked, values = forward_peel_delete(logs, n, scale, stream)
    if variant == "bh":
        thresholds = np.log(alpha * np.arange(1, n + 1) / m) - pen
    else:
        thresholds = [math.log(alpha / m) - pen] * n
    order = sorted(range(n), key=lambda k: values[k])
    k_star = max((j for j in range(1, n + 1) if values[order[j - 1]] <= thresholds[j - 1]),
                 default=0)
    return sorted(picked[k] for k in order[:k_star])


@settings(max_examples=300, deadline=None)
@given(pvals=st.lists(_P, min_size=1, max_size=40), variant=st.sampled_from(["bh", "bonf"]),
       alpha=st.floats(0.01, 0.5), eta=st.sampled_from([1e-4, 1e-2, 1.0]),
       eps=st.sampled_from([0.05, 0.5, 5.0]), nu=st.sampled_from([None, 1e-6]),
       laplace_scale=st.sampled_from([None, 0.0, 0.1, 1.0]),
       penalty=st.sampled_from([None, 0.0]), peel_share=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**31))
# the reductions to no noise and no penalty, with every value peeled
@example(pvals=[1e-9, 1e-3, 0.02, 0.5, 1.0, 0.0], variant="bh", alpha=0.1, eta=1e-4,
         eps=0.5, nu=1e-6, laplace_scale=0.0, penalty=0.0, peel_share=1.0, seed=0)
@example(pvals=[1e-9, 1e-3, 0.02, 0.5, 1.0, 0.0], variant="bonf", alpha=0.1, eta=1e-4,
         eps=0.5, nu=1e-6, laplace_scale=0.0, penalty=0.0, peel_share=1.0, seed=0)
def test_dp_test_matches_docstring_oracle(pvals, variant, alpha, eta, eps, nu,
                                          laplace_scale, penalty, peel_share, seed):
    p = np.array(pvals)
    m_peel = 1 + round(peel_share * (p.size - 1))
    params = DworkParams(eta=eta, nu=nu, eps=eps, delta=1e-3, m_peel=m_peel,
                         laplace_scale=laplace_scale)
    # bit for bit without noise; with noise the lazy forward peel matches
    # the oracle's eager loop in distribution only (the frequency test
    # below), so a noisy run is checked for what any run must hold
    got = dp_test(p, params, alpha, RandomStream(seed), variant, penalty).rejected_indices
    if laplace_scale == 0.0:
        assert got.tolist() == _dp_oracle(p, params, alpha, RandomStream(seed), variant,
                                          penalty)
    else:
        n = m_peel if variant == "bh" else p.size
        assert got.size <= n and np.all(np.diff(got) > 0)
        assert np.all((0 <= got) & (got < p.size))
        again = dp_test(p, params, alpha, RandomStream(seed), variant, penalty).rejected_indices
        assert got.tobytes() == again.tobytes()


@pytest.mark.parametrize("tail_candidates", [peeling.TAIL_CANDIDATES, 50.0],
                         ids=["default", "narrow"])
@pytest.mark.parametrize("variant", ["bh", "bonf"])
def test_dp_test_rejection_sets_match_docstring_oracle(monkeypatch, variant,
                                                       tail_candidates):
    # logs a few noise scales apart around the thresholds, so the rejection
    # set varies from run to run; "narrow" makes every round sample the tail
    monkeypatch.setattr(peeling, "TAIL_CANDIDATES", tail_candidates)
    p = np.array([1e-4, 1e-4, 3e-4, 1e-3, 0.01, 0.05, 0.2, 0.9])
    params, alpha, n = DworkParams(m_peel=4, laplace_scale=1.0), 0.002, 4_000
    lazy = Counter(tuple(dp_test(p, params, alpha, RandomStream(seed),
                                 variant).rejected_indices.tolist())
                   for seed in range(n))
    eager = Counter(tuple(_dp_oracle(p, params, alpha, RandomStream(n + seed), variant, None))
                    for seed in range(n))
    assert len(lazy) > 10
    assert _homogeneity_pvalue(lazy, eager) > 1e-3


def test_dp_penalty_golden_values():
    params = DworkParams(eta=1e-4, nu=1e-5, eps=0.5, delta=1e-3, m_peel=200)
    # direct arithmetic: eta*sqrt(10*200*ln(1000)*ln(12000))/eps
    assert abs(dp_penalty(params, 0.1, 5000, "bh") - 0.07204565776) < 1e-9
    assert abs(dp_penalty(params, 0.1, 5000, "bonf") - 0.2071931271) < 1e-9


def test_dp_bh_zero_noise_zero_penalty_is_classic_on_peeled_set():
    g = np.random.default_rng(21)
    p = g.uniform(size=80)
    p[:12] *= 1e-4
    m = p.size
    params = DworkParams(eta=1e-4, nu=1e-8, eps=0.5, delta=1e-3,
                         m_peel=m, laplace_scale=0.0)
    rej = dp_test(p, params, 0.1, RandomStream(0), "bh", penalty=0.0).rejected_indices
    ref = classic_procedure(p, "bh", 0.1).rejected_indices
    assert np.array_equal(rej, ref)


def test_dp_bh_large_eps_approaches_classic():
    # widely separated p-values: vanishing noise and penalty recover BH
    p = np.geomspace(1e-8, 0.9, 40)
    params = DworkParams(eta=1e-4, nu=1e-12, eps=1e6, delta=1e-3, m_peel=40)
    rej = dp_test(p, params, 0.1, RandomStream(5), "bh").rejected_indices
    ref = classic_procedure(p, "bh", 0.1).rejected_indices
    assert np.array_equal(rej, ref)


def test_dp_bh_strong_privacy_rejects_nothing():
    # eta must stay small for the penalty to cover the round minima; a
    # garbage regime (eta ~ 1) makes the comparator misfire by design
    p = np.full(50, 0.5)
    params = DworkParams(eta=1e-4, nu=1e-6, eps=0.01, delta=1e-3, m_peel=20)
    assert dp_test(p, params, 0.1, RandomStream(2), "bh").rejected_indices.size == 0


def test_dp_bonf_large_eps_is_classic_bonferroni():
    p = np.geomspace(1e-9, 0.9, 30)
    params = DworkParams(eta=1e-4, nu=1e-12, eps=1e6, delta=1e-3, m_peel=30)
    rej = dp_test(p, params, 0.1, RandomStream(3), "bonf").rejected_indices
    ref = classic_procedure(p, "bonf", 0.1).rejected_indices
    assert np.array_equal(rej, ref)


def test_dp_bonf_strong_privacy_rejects_nothing():
    p = np.full(40, 0.5)
    params = DworkParams(eta=1e-4, nu=1e-6, eps=0.05, delta=1e-3, m_peel=40)
    assert dp_test(p, params, 0.1, RandomStream(4), "bonf").rejected_indices.size == 0


def test_dp_bh_deterministic():
    p = np.random.default_rng(13).uniform(size=60)
    params = DworkParams(eta=1e-4, nu=1e-6, eps=0.5, delta=1e-3, m_peel=25)
    a = dp_test(p, params, 0.1, RandomStream(9), "bh").rejected_indices
    b = dp_test(p, params, 0.1, RandomStream(9), "bh").rejected_indices
    assert np.array_equal(a, b)


def test_theorem8_check_values():
    params = DworkParams(eta=1e-4, nu=1e-5, eps=0.5, delta=1e-3, m_peel=200)
    # lhs ~ 0.0235 <= rhs ~ 0.8935
    assert theorem8_check(params, 0.1, 20000, "bh") is True
    loud = DworkParams(eta=1.0, nu=1e-5, eps=0.5, delta=1e-3, m_peel=200)
    assert theorem8_check(loud, 0.1, 20000, "bh") is False
    # bonf variant at the moderate scale: lhs ~ 0.0588 <= rhs ~ 0.9195
    assert theorem8_check(params, 0.1, 5000, "bonf") is True
    with pytest.raises(ValueError):
        theorem8_check(params, 0.1, 5000, "hochberg")


def test_theorem8_lhs_rhs_arithmetic():
    params = DworkParams(eta=1e-4, nu=1e-5, eps=0.5, delta=1e-3, m_peel=200)
    lhs = 1e-4 * math.sqrt(10 * 200 * math.log(1000.0)) / 0.5
    rhs = 1 - 1 / math.log(6 * 200 / 0.1)
    assert abs(lhs - 0.02350788) < 1e-7
    assert abs(rhs - 0.89353391) < 1e-7
    assert theorem8_check(params, 0.1, 200, "bh") == (lhs <= rhs)
