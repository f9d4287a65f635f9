import re

import numpy as np
import pytest

from dense_oracle import generate_noisy_matrix
from suptest.adaptive import AdaptiveConfig, adaptive_sup_test
from suptest.baselines import DworkParams, classic_procedure, dp_test
from suptest.numerics import RandomStream, std_normal_cdf, std_normal_quantile
from suptest.peeling import reversed_peel
from suptest.privacy import NoiseScales
from suptest.thresholds import TestConfig, sup_test
from suptest.transform import (
    P_CLAMP,
    clamp_pvalues,
    draw_noise,
    key_to_noisy_p,
)


def _noisy_p(p, scale, z, kind):
    # the released transform: clamp, probit, add the noise, map back
    return key_to_noisy_p(std_normal_quantile(clamp_pvalues(np.atleast_1d(p))) + z, scale, kind)


def _drawn_row(p, scale, stream, kind):
    # one row of noisy p-values, its noise drawn from the start of stream
    return _noisy_p(p, scale, draw_noise(stream.generator(), scale, len(p), kind), kind)


def test_clamp_pvalues():
    p = np.array([0.0, 0.5, 1.0, 1e-20])
    c = clamp_pvalues(p)
    assert c[0] == P_CLAMP
    assert c[1] == 0.5
    assert c[2] == 1.0 - P_CLAMP
    assert c[3] == P_CLAMP


_METHODS = {
    "sup_test": lambda p: sup_test(p, TestConfig("bh", m_peel=5)),
    "adaptive_sup_test": lambda p: adaptive_sup_test(p, TestConfig("bh"), AdaptiveConfig()),
    "classic_procedure": lambda p: classic_procedure(p, "bh", 0.1),
    "dp_test": lambda p: dp_test(p, DworkParams(m_peel=5), 0.1, RandomStream(1), "bh"),
}


@pytest.mark.parametrize("shape", [(50, 1), (1, 50)])
@pytest.mark.parametrize("method", sorted(_METHODS))
def test_every_method_refuses_pvalues_of_two_dimensions(method, shape):
    # a column or a row of p-values is refused with a ValueError naming its
    # shape, before any method indexes or broadcasts it
    p = np.random.default_rng(3).random(50).reshape(shape)
    with pytest.raises(ValueError, match=re.escape(f"not shape {shape}")):
        _METHODS[method](p)


@pytest.mark.parametrize("method", sorted(_METHODS))
def test_every_method_refuses_a_scalar_pvalue(method):
    # a lone float or a 0-d array is refused by the same rule, not indexed
    for p in (0.01, np.asarray(0.01)):
        with pytest.raises(ValueError, match=re.escape("must be a 1-D array, not shape ()")):
            _METHODS[method](p)


@pytest.mark.parametrize("call", [
    lambda: reversed_peel(0.5, 1, NoiseScales(0.1, 0.2), RandomStream(0)),
    lambda: clamp_pvalues(0.5),
], ids=["reversed_peel", "clamp_pvalues"])
def test_the_peel_and_the_clamp_refuse_a_scalar_pvalue(call):
    # neither keeps a scalar form: a lone value gets the methods' refusal
    with pytest.raises(ValueError, match=re.escape("p-values must be a 1-D array, not shape ()")):
        call()


@pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -1.0, np.nan])
@pytest.mark.parametrize("method", sorted(_METHODS))
def test_every_method_refuses_a_level_outside_the_unit_interval(method, alpha):
    p = np.full(10, 0.5)
    calls = {
        "sup_test": lambda: sup_test(p, TestConfig("bh", alpha=alpha, m_peel=5)),
        "adaptive_sup_test": lambda: adaptive_sup_test(p, TestConfig("bh", alpha=alpha),
                                                       AdaptiveConfig()),
        "classic_procedure": lambda: classic_procedure(p, "bh", alpha),
        "dp_test": lambda: dp_test(p, DworkParams(m_peel=5), alpha, RandomStream(1), "bh"),
    }
    with pytest.raises(ValueError, match=re.escape("alpha must lie in (0,1)")):
        calls[method]()


def test_noisy_p_gaussian_values():
    # Phi(Phi^-1(0.01)/sqrt(2)) reference; the zero-scale passthrough is
    # covered by test_noisy_row_deterministic_and_zero_scale
    assert abs(_noisy_p(0.01, 1.0, 0.0, "gaussian") - 0.049987343) < 1e-8


def test_noisy_p_gaussian_monotone_in_z():
    z = np.linspace(-3, 3, 25)
    out = _noisy_p(0.2, 1.0, z, "gaussian")
    assert np.all(np.diff(out) > 0)


def test_noisy_p_gaussian_rejects_negative_sigma():
    with pytest.raises(ValueError):
        draw_noise(RandomStream(0).generator(), -1.0, 1, "gaussian")


def test_noisy_p_laplace_values():
    # normal_laplace_cdf(Phi^-1(0.01) + 0, 1) reference
    assert abs(_noisy_p(0.01, 1.0, 0.0, "laplace") - 0.0793509862119) < 1e-10
    with pytest.raises(ValueError):
        _noisy_p(0.5, 0.0, 0.0, "laplace")


def test_transformed_uniform_is_uniform():
    # the defining property: uniform in, exactly uniform out
    g = np.random.default_rng(17)
    n = 200_000
    u = g.random(n)
    for sigma in (0.5, 2.0):
        z = g.normal(0.0, sigma, n)
        pt = _noisy_p(u, sigma, z, "gaussian")
        hist, _ = np.histogram(pt, bins=20, range=(0, 1))
        assert np.all(np.abs(hist / n - 0.05) < 0.005)
    b = 1.0
    z = g.laplace(0.0, b, n)
    pt = _noisy_p(u, b, z, "laplace")
    hist, _ = np.histogram(pt, bins=20, range=(0, 1))
    assert np.all(np.abs(hist / n - 0.05) < 0.005)


def test_super_uniformity_preserved_for_conservative_input():
    # inputs stochastically larger than uniform stay super-uniform
    g = np.random.default_rng(3)
    n = 100_000
    u = np.sqrt(g.random(n))  # P(p <= t) = t^2 <= t
    z = g.normal(0.0, 1.0, n)
    pt = _noisy_p(u, 1.0, z, "gaussian")
    for t in (0.01, 0.05, 0.2, 0.5):
        assert np.mean(pt <= t) <= t + 4 * np.sqrt(t * (1 - t) / n)


def test_noisy_row_deterministic_and_zero_scale():
    # with sigma1 = 0 all values are peeled in stable sort order, and the
    # inference row is the row drawn from stream.child(0)
    p = np.random.default_rng(0).uniform(size=100)
    p[[3, 4]] = p[5]
    order = np.argsort(p, kind="stable")
    s = RandomStream(5)
    a = reversed_peel(p, 100, NoiseScales(0.3, 0.0), s)
    b = reversed_peel(p, 100, NoiseScales(0.3, 0.0), s)
    assert np.array_equal(a.peeled_indices, order)
    assert np.array_equal(a.inference_pvals, b.inference_pvals)
    assert np.array_equal(a.inference_pvals, _drawn_row(p, 0.3, s.child(0), "gaussian")[order])
    zero = reversed_peel(p, 100, NoiseScales(0.0, 0.0), s)
    assert np.array_equal(zero.inference_pvals, clamp_pvalues(p)[order])
    with pytest.raises(ValueError):
        reversed_peel(p, 100, NoiseScales(0.3, 0.0), s, "cauchy")


def test_noisy_row_gaussian_matches_formula():
    p = np.array([0.01, 0.2, 0.77])
    s = RandomStream(9)
    row = _drawn_row(p, 0.5, s, "gaussian")
    z = s.generator().normal(0.0, 0.5, 3)
    expect = std_normal_cdf((std_normal_quantile(p) + z) / np.sqrt(1.25))
    assert np.allclose(row, expect, rtol=1e-15)


def test_generate_noisy_matrix_layout():
    # the dense test oracle: row k is the row drawn from substream k, bit for bit,
    # and the transform of key row k
    p = np.random.default_rng(1).uniform(size=40)
    scales = NoiseScales(0.1, 0.2)
    s = RandomStream(2)
    for kind in ("gaussian", "laplace"):
        keys, rows = generate_noisy_matrix(p, 7, scales, s, kind)
        assert keys.shape == rows.shape == (8, 40)
        assert np.array_equal(rows[0], _drawn_row(p, 0.1, s.child(0), kind))
        assert np.array_equal(rows[3], _drawn_row(p, 0.2, s.child(3), kind))
        assert np.array_equal(rows[3], key_to_noisy_p(keys[3], 0.2, kind))
        # rows are distinct draws
        assert not np.array_equal(rows[1], rows[2])


def test_matrix_entries_strictly_inside_unit_interval():
    # every noisy row lies strictly inside (0, 1); released values too
    p = np.array([0.0, 1.0, 1e-300, 0.5])
    s = RandomStream(8)
    for kind in ("gaussian", "laplace"):
        for k, scale in enumerate((5.0, 10.0, 10.0, 10.0)):
            row = _drawn_row(p, scale, s.child(k), kind)
            assert np.all(row > 0.0) and np.all(row < 1.0)
        out = reversed_peel(p, 4, NoiseScales(5.0, 10.0), s, kind)
        assert np.all(out.inference_pvals > 0.0) and np.all(out.inference_pvals < 1.0)
