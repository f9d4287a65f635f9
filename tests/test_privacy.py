import math

import numpy as np
import pytest

from suptest.numerics import normal_laplace_cdf
from suptest.privacy import (
    NoiseScales,
    PrivacyBudget,
    calibrate_laplace_scales,
    calibrate_peeling_scales,
    experiment_mu,
    gdp_compose,
    gdp_to_approx_dp_delta,
    split_budget,
)
from suptest.thresholds import ThresholdFamily
from theory_oracle import asymptotic_bh_threshold, noise_inflation


def test_budget_constructors():
    b = PrivacyBudget.gdp(0.5)
    assert b.kind == "gdp" and b.mu == 0.5
    a = PrivacyBudget.approx_dp(0.5, 1e-3)
    assert a.kind == "approx_dp" and a.eps == 0.5 and a.delta == 1e-3


@pytest.mark.parametrize("args", [
    dict(kind="gdp", mu=0.0),
    dict(kind="gdp", mu=-1.0),
    dict(kind="approx_dp", eps=0.0, delta=1e-3),
    dict(kind="approx_dp", eps=1.0, delta=0.0),
    dict(kind="approx_dp", eps=1.0, delta=1.0),
    dict(kind="nonsense", mu=1.0),
])
def test_budget_validation(args):
    with pytest.raises(ValueError):
        PrivacyBudget(**args)


# each checked input of a budget, a calibration, a conversion or a noise
# scale in turn
_CHECKED = {
    "gdp mu": lambda x: PrivacyBudget.gdp(x),
    "approx_dp eps": lambda x: PrivacyBudget.approx_dp(x, 1e-3),
    "approx_dp delta": lambda x: PrivacyBudget.approx_dp(0.5, x),
    "peeling mu": lambda x: calibrate_peeling_scales(x, 1e-4, 200),
    "peeling gs": lambda x: calibrate_peeling_scales(1.0, x, 200),
    "laplace eps": lambda x: calibrate_laplace_scales(x, 1e-3, 1e-4, 200),
    "laplace delta": lambda x: calibrate_laplace_scales(0.5, x, 1e-4, 200),
    "laplace gs": lambda x: calibrate_laplace_scales(0.5, 1e-3, x, 200),
    "experiment_mu eps": lambda x: experiment_mu(x, 1e-3),
    "experiment_mu delta": lambda x: experiment_mu(0.5, x),
    "to_delta mu": lambda x: gdp_to_approx_dp_delta(x, 1.0),
    "to_delta eps": lambda x: gdp_to_approx_dp_delta(1.0, x),
    "scales sigma0": lambda x: NoiseScales(x, 1.0),
    "scales sigma1": lambda x: NoiseScales(1.0, x),
    "compose mu1": lambda x: gdp_compose(x, 1.0),
    "compose mu2": lambda x: gdp_compose(1.0, x),
    "split mu": lambda x: split_budget(x, 0.5),
    "split rho": lambda x: split_budget(1.0, x),
    "normal_laplace_cdf b": lambda x: normal_laplace_cdf(0.3, x),
    "inflation gs": lambda x: noise_inflation(10, x, 1.0),
    "inflation mu": lambda x: noise_inflation(10, 1e-4, x),
    "asymptotic signal": lambda x: asymptotic_bh_threshold(0.1, 0.2, x, 0.0),
    "asymptotic inflation": lambda x: asymptotic_bh_threshold(0.1, 0.2, 2.0, x),
    "family pi0_inv_scale": lambda x: ThresholdFamily("bh", 0.1, 10, x),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("checked", sorted(_CHECKED))
def test_non_finite_inputs_are_refused(checked, bad):
    # NaN fails every comparison, so a check written as x <= 0 would pass it
    with pytest.raises(ValueError):
        _CHECKED[checked](bad)


def test_gdp_compose():
    assert gdp_compose(3.0, 4.0) == 5.0
    assert gdp_compose(0.3, 0.0) == 0.3
    mus = [0.3, 0.4, 1.2]
    total = 0.0
    for mu in mus:
        total = gdp_compose(total, mu)
    assert total == pytest.approx(math.sqrt(sum(m * m for m in mus)), rel=1e-15)
    with pytest.raises(ValueError):
        gdp_compose(-0.1, 1.0)


def test_gdp_to_approx_dp_delta_goldens():
    # high-precision reference values
    assert abs(gdp_to_approx_dp_delta(1.0, 1.0) - 0.1269367375) < 1e-9
    assert abs(gdp_to_approx_dp_delta(0.5, 1.0) - 0.006829594983) < 1e-10
    assert abs(gdp_to_approx_dp_delta(2.0, 0.5) - 0.5991856185) < 1e-9


def test_gdp_to_approx_dp_delta_properties():
    # decreasing in eps, increasing in mu, always in (0,1)
    eps = np.linspace(0.1, 5.0, 30)
    d = np.array([gdp_to_approx_dp_delta(1.0, e) for e in eps])
    assert np.all(np.diff(d) < 0)
    assert np.all((d > 0) & (d < 1))
    mus = np.linspace(0.1, 3.0, 30)
    d2 = np.array([gdp_to_approx_dp_delta(m, 1.0) for m in mus])
    assert np.all(np.diff(d2) > 0)
    # large eps drives delta to zero without numerical failure
    assert 0.0 <= gdp_to_approx_dp_delta(0.5, 40.0) < 1e-300


def test_experiment_mu_golden():
    assert abs(experiment_mu(0.5, 1e-3) - 0.2406365120) < 1e-9
    # scales linearly in eps
    assert experiment_mu(1.0, 1e-3) == pytest.approx(2 * experiment_mu(0.5, 1e-3))
    with pytest.raises(ValueError):
        experiment_mu(0.0, 1e-3)
    with pytest.raises(ValueError):
        experiment_mu(0.5, 1.5)


def test_calibrate_peeling_scales():
    mu = experiment_mu(0.5, 1e-3)
    sc = calibrate_peeling_scales(mu, 1e-4, 200)
    assert abs(sc.sigma0 - 0.0083113) < 1e-6
    assert sc.sigma1 == 2.0 * sc.sigma0
    # sigma0 = sqrt(2 m') gs / mu exactly
    assert sc.sigma0 == pytest.approx(math.sqrt(400) * 1e-4 / mu, rel=1e-15)
    with pytest.raises(ValueError):
        calibrate_peeling_scales(0.0, 1e-4, 200)
    with pytest.raises(ValueError):
        calibrate_peeling_scales(mu, 1e-4, 0)


def test_calibrate_laplace_scales():
    sc = calibrate_laplace_scales(0.5, 1e-3, 1e-4, 200)
    expect = math.sqrt(2 * 200 * math.log(1000.0)) * 1e-4 / 0.5
    assert sc.sigma0 == pytest.approx(expect, rel=1e-12)
    assert sc.sigma1 == 2.0 * sc.sigma0


def test_split_budget():
    a, b = split_budget(1.0, 0.1)
    assert a == pytest.approx(math.sqrt(0.1))
    assert b == pytest.approx(math.sqrt(0.9))
    # squared components recompose to the total
    assert gdp_compose(a, b) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        split_budget(1.0, 0.0)
    with pytest.raises(ValueError):
        split_budget(1.0, 1.0)


def test_noise_scales_validation():
    with pytest.raises(ValueError):
        NoiseScales(-1.0, 1.0)
    sc = NoiseScales(0.0, 0.0)
    assert sc.sigma0 == 0.0 and sc.sigma1 == 0.0
