import numpy as np
import pytest

from suptest.numerics import (
    RandomStream,
    normal_laplace_cdf,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)


def test_std_normal_cdf_values():
    # 40-digit reference values
    assert std_normal_cdf(0.0) == 0.5
    assert abs(std_normal_cdf(1.959964) - 0.9750000009) < 1e-9
    assert abs(std_normal_cdf(-1.644976) - 0.0499873802474) < 1e-10


def test_std_normal_pdf_matches_cdf_derivative():
    x = np.linspace(-4, 4, 41)
    h = 1e-6
    num = (std_normal_cdf(x + h) - std_normal_cdf(x - h)) / (2 * h)
    assert np.allclose(std_normal_pdf(x), num, atol=1e-8)


def test_quantile_round_trip():
    p = np.array([1e-12, 1e-6, 0.01, 0.3, 0.5, 0.7, 0.99, 1 - 1e-9])
    assert np.allclose(std_normal_cdf(std_normal_quantile(p)), p, rtol=1e-12)
    assert abs(std_normal_quantile(0.975) - 1.95996398454) < 1e-10
    assert abs(std_normal_quantile(0.01) + 2.32634787404) < 1e-10


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.1, float("nan")])
def test_quantile_domain(bad):
    with pytest.raises(ValueError):
        std_normal_quantile(bad)
    with pytest.raises(ValueError):
        std_normal_quantile(np.array([0.2, bad, 0.7]))


def test_normal_laplace_cdf_values():
    # quadrature reference values for the convolution CDF
    assert abs(normal_laplace_cdf(1.0, 1.0) - 0.740691589991) < 1e-11
    assert normal_laplace_cdf(0.0, 0.7) == pytest.approx(0.5, abs=1e-14)
    assert abs(normal_laplace_cdf(-2.0, 0.5) - 0.0501954073168) < 1e-11
    assert abs(normal_laplace_cdf(3.0, 2.0) - 0.873606022673) < 1e-11


def test_normal_laplace_cdf_properties():
    x = np.linspace(-30, 30, 301)
    for b in (0.05, 0.5, 1.0, 5.0):
        f = normal_laplace_cdf(x, b)
        assert np.all(np.diff(f) >= 0)
        assert np.all((f >= 0) & (f <= 1))
        # symmetry F(x) + F(-x) = 1
        assert np.allclose(f + normal_laplace_cdf(-x, b), 1.0, atol=1e-12)
    # b -> 0 recovers the plain normal CDF
    assert np.allclose(normal_laplace_cdf(x, 1e-8), std_normal_cdf(x), atol=1e-7)


def test_normal_laplace_cdf_extreme_tails():
    # no overflow and correct saturation far out
    assert normal_laplace_cdf(-300.0, 1.0) >= 0.0
    assert normal_laplace_cdf(300.0, 1.0) <= 1.0
    assert normal_laplace_cdf(-300.0, 1.0) < 1e-100
    assert normal_laplace_cdf(300.0, 1.0) > 1 - 1e-15


def test_normal_laplace_cdf_rejects_bad_scale():
    with pytest.raises(ValueError):
        normal_laplace_cdf(0.0, 0.0)
    with pytest.raises(ValueError):
        normal_laplace_cdf(0.0, -1.0)


def test_normal_laplace_monte_carlo_agreement():
    g = np.random.default_rng(5)
    n = 200_000
    sample = g.standard_normal(n) + g.laplace(0.0, 1.3, n)
    for x in (-2.0, 0.5, 2.5):
        emp = np.mean(sample <= x)
        assert abs(emp - normal_laplace_cdf(x, 1.3)) < 5e-3


def test_random_stream_reproducible():
    a = RandomStream(123).generator().standard_normal(8)
    b = RandomStream(123).generator().standard_normal(8)
    assert np.array_equal(a, b)


def test_random_stream_children_differ():
    root = RandomStream(7)
    x = root.child(0).generator().standard_normal(4)
    y = root.child(1).generator().standard_normal(4)
    z = root.child(0).child(1).generator().standard_normal(4)
    assert not np.array_equal(x, y)
    assert not np.array_equal(x, z)
    # same path, rebuilt from scratch
    again = RandomStream(7).child(0).child(1).generator().standard_normal(4)
    assert np.array_equal(z, again)


def test_random_stream_order_independent():
    root = RandomStream(99, 3)
    first = root.child(2).generator().standard_normal(5)
    # consuming sibling streams does not disturb child(2)
    root.child(0).generator().standard_normal(1000)
    root.child(1).generator().standard_normal(1)
    second = root.child(2).generator().standard_normal(5)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("args, field", [((-1,), "seed"), ((0, -2), "stream_id"),
                                         ((0, 0, (1, -3)), "path")])
def test_random_stream_rejects_negative_identity(args, field):
    with pytest.raises(ValueError, match=field):
        RandomStream(*args)


def test_random_stream_rejects_negative_child():
    with pytest.raises(ValueError, match="path"):
        RandomStream(0).child(-1)
