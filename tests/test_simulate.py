import multiprocessing
import os
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import suptest
from suptest import simulate
from suptest.baselines import classic_procedure, dp_test
from suptest.numerics import RandomStream, std_normal_cdf, std_normal_quantile
from suptest.privacy import PrivacyBudget, experiment_mu
from suptest.simulate import (
    METHOD_NAMES,
    METRIC_NAMES,
    LabeledPValues,
    MethodSpec,
    SimScenario,
    gen_pvalues,
    run_method,
    run_replications,
)
from suptest.simulate import _metrics
from suptest.thresholds import Release
from theory_oracle import (
    MixtureScenario,
    asymptotic_bh_threshold,
    empirical_tdp_gap,
    noise_inflation,
)


def _scn(**kw):
    base = dict(m=400, m1=20, methods=(MethodSpec("bh"),), reps=3, seed=0)
    base.update(kw)
    return SimScenario(**base)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scn(m1=500)
    with pytest.raises(ValueError):
        _scn(dependence="block", block_size=77)
    with pytest.raises(ValueError):
        _scn(dependence="block", block_rho=-0.2)
    with pytest.raises(ValueError):
        _scn(reps=0)
    with pytest.raises(ValueError):
        _scn(methods=())
    with pytest.raises(ValueError, match="seed"):
        _scn(seed=-1)
    with pytest.raises(ValueError):
        _scn(methods=(MethodSpec("bh"), MethodSpec("bh")))
    with pytest.raises(ValueError):
        MethodSpec("unknown-method")
    # options are checked against the option table and converted to its types
    with pytest.raises(ValueError, match="unknown option 'm_pel'"):
        MethodSpec("sup-bh", options={"m_pel": 20})
    with pytest.raises(ValueError, match="option 'm_peel': cannot parse 20.7 as int"):
        MethodSpec("sup-bh", options={"m_peel": 20.7})
    with pytest.raises(ValueError, match="option 'gs': cannot parse 'abc' as float"):
        MethodSpec("sup-bh", options={"gs": "abc"})
    for value in (float("inf"), -float("inf"), "inf", float("nan")):
        with pytest.raises(ValueError, match="option 'gs': cannot parse"):
            MethodSpec("sup-bh", options={"gs": value})
    spec = MethodSpec("sup-bh", options={"m_peel": "20", "gs": 1, "noise": "laplace"})
    assert spec.options == {"m_peel": 20, "gs": 1.0, "noise": "laplace"}
    assert type(spec.options["gs"]) is float
    with pytest.raises(ValueError, match="theta_signal"):
        _scn(theta_signal=float("nan"))
    # a peeling depth above m is refused before any replicate, naming the method
    with pytest.raises(ValueError, match=r"^method 'dp-bh': m_peel \(401\) cannot exceed "
                                         r"m \(400\)$"):
        _scn(methods=(MethodSpec("dp-bh", options={"m_peel": 401}),))
    # asup-* clamp m* to m, and dp-bonf peels m whatever its m_peel
    _scn(methods=(MethodSpec("asup-bh", options={"m_peel": 401}),
                  MethodSpec("dp-bonf", options={"m_peel": 401})))


def test_method_spec_takes_label_and_options_by_keyword_only():
    # options given by position would become the label, and the method would
    # run on its defaults
    with pytest.raises(TypeError):
        MethodSpec("asup-bh", {"noise": "laplace", "mu": 1})
    with pytest.raises(TypeError):
        MethodSpec("sup-bh", "sup-bh-20", {"m_peel": 20})
    assert MethodSpec("sup-bh").label == "sup-bh"
    spec = MethodSpec("sup-bh", label="sup-bh-20", options={"m_peel": 20})
    assert (spec.label, spec.config.m_peel) == ("sup-bh-20", 20)
    spec = MethodSpec(name="asup-bh", options={"m_tilde": 7})
    assert (spec.label, spec.adaptive.m_tilde) == ("asup-bh", 7)


# one out-of-range value for every option of the table
_BAD_OPTIONS = {
    "mu": -1.0, "eps": -3.0, "delta": 2.0, "sigma0": -1.0, "sigma1": -1.0,
    "zeta": 2, "gs": -1.0, "m_peel": 0, "noise": "foo",
    "tau": 2.0, "c": -1.0, "m_tilde": 0, "c0": 5.0, "rho": 2.0,
    "eta": -1.0, "nu": 2.0, "laplace_scale": -1.0,
}


def test_bad_option_table_covers_every_option():
    # an option added to the table without a check fails here first
    assert set(_BAD_OPTIONS) == set(simulate.OPTION_TYPES)


@pytest.mark.parametrize("key", sorted(_BAD_OPTIONS))
@pytest.mark.parametrize("name", METHOD_NAMES)
def test_every_method_refuses_every_bad_option(name, key):
    # every method builds every config, so a value is refused even where
    # the method does not use it
    with pytest.raises(ValueError, match=rf"\b{key}\b"):
        MethodSpec(name, options={key: _BAD_OPTIONS[key]})


def test_refused_option_combinations():
    with pytest.raises(ValueError, match="laplace noise requires an \\(eps, delta\\) budget"):
        MethodSpec("sup-bh", options={"noise": "laplace", "mu": 1.0})
    for name in ("asup-bh", "asup-bonf"):
        with pytest.raises(ValueError, match="adaptive test supports gaussian noise only"):
            MethodSpec(name, options={"noise": "laplace"})


def test_method_limits_are_checked_before_the_laplace_budget_rule():
    # each input has two faults; the method's own refusal names the first
    with pytest.raises(ValueError, match="^adaptive test supports gaussian noise only$"):
        MethodSpec("asup-bh", options={"noise": "laplace", "mu": 1})
    with pytest.raises(ValueError, match=r"^option 'mu' does not apply to the dp-\* baselines, "
                                         r"which take an \(eps, delta\) budget$"):
        MethodSpec("dp-bh", options={"noise": "laplace", "mu": 1})


def test_scenario_refuses_a_depth_above_m_exactly_for_the_methods_that_peel_m_peel():
    # a row whose reads name m_peel gets the depth check; it must also be a
    # method whose release peels m_peel values, and no other method may
    p = np.random.default_rng(6).uniform(size=60)
    for name in METHOD_NAMES:
        spec = MethodSpec(name, options={"m_peel": 17})
        peels = run_method(spec, p, 0.1, RandomStream(2)).m_peel == 17
        try:
            SimScenario(m=16, m1=0, methods=(spec,))
        except ValueError as e:
            assert str(e) == f"method {name!r}: m_peel (17) cannot exceed m (16)"
            refused = True
        else:
            refused = False
        assert refused == peels, name


def test_run_method_reads_only_the_configs_of_its_spec():
    p = np.random.default_rng(5).uniform(size=200)
    for name in METHOD_NAMES:
        spec = MethodSpec(name, options={"m_peel": 20, "tau": 0.3})
        want = run_method(spec, p, 0.1, RandomStream(4))
        object.__setattr__(spec, "options", None)
        got = run_method(spec, p, 0.1, RandomStream(4))
        assert np.array_equal(got.rejected_indices, want.rejected_indices)
        assert spec.adaptive.tau == 0.3


# one valid value off its default for every option
_OFF_DEFAULT = {
    "mu": 0.8, "eps": 0.9, "delta": 1e-4, "sigma0": 0.5, "sigma1": 0.1,
    "zeta": 0, "gs": 0.05, "m_peel": 30, "noise": "laplace",
    "tau": 0.3, "c": 5.0, "m_tilde": 250, "c0": 0.4, "rho": 0.2,
    "eta": 0.05, "nu": 0.5, "laplace_scale": 0.5,
}


def _release_bytes(release):
    peel = release.peeled
    return (peel.peeled_indices.tobytes(), peel.inference_pvals.tobytes(),
            release.rejected_indices.tobytes(), release.j_star, release.m_peel,
            release.budget, release.scales, release.adaptive_info)


def test_every_method_ignores_the_options_its_row_does_not_read():
    # 30 signals, then 60 values that BH's step-up rejects and its step-down
    # does not, so zeta = 0 moves sup-bh; every option below moves the
    # release of some method whose row reads it
    g = np.random.default_rng(3)
    p = g.uniform(0.2, 1.0, size=300)
    p[:30] = g.uniform(size=30) * 1e-5
    p[30:90] = g.uniform(0.012, 0.018, size=60)

    def release(spec):
        return _release_bytes(run_method(spec, p, 0.1, RandomStream(8)))

    assert set(_OFF_DEFAULT) == set(simulate.OPTION_TYPES)
    base = {name: release(MethodSpec(name)) for name in METHOD_NAMES}
    for key, value in _OFF_DEFAULT.items():
        moved = []
        for name in METHOD_NAMES:
            try:
                spec = MethodSpec(name, options={key: value})
            except ValueError:  # a combination MethodSpec refuses
                continue
            got = release(spec)
            if key not in simulate.METHODS[name]["reads"]:
                assert got == base[name], f"{name} reads {key}"
            elif got != base[name]:
                moved.append(name)
        assert moved, f"{key} = {value!r} moves no method that reads it"


def test_gen_pvalues_null_uniform():
    scn = _scn(m=100_000, m1=0)
    data = gen_pvalues(scn, RandomStream(1))
    assert data.pvals.shape == (100_000,)
    assert data.n_signals == 0
    # KS distance against uniform below the 1% critical value
    s = np.sort(data.pvals)
    n = s.size
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(grid - s), np.max(s - (grid - 1 / n)))
    assert ks < 1.6276 / np.sqrt(n)


def test_gen_pvalues_signals_are_tiny():
    scn = _scn(m=10_000, m1=10_000)
    data = gen_pvalues(scn, RandomStream(2))
    assert np.median(data.pvals) < 1e-3
    assert data.n_signals == 10_000


def test_gen_pvalues_block_correlation():
    scn = _scn(m=20_000, m1=0, dependence="block", block_size=200, block_rho=0.6)
    # per-block cross-moment estimate pooled over replicates and blocks
    total, count = 0.0, 0
    for rep in range(80):
        data = gen_pvalues(scn, RandomStream(3, rep))
        t = std_normal_quantile(data.pvals).reshape(-1, 200)
        s1 = t.sum(axis=1)
        s2 = (t ** 2).sum(axis=1)
        total += float(np.sum((s1 ** 2 - s2) / (200 * 199)))
        count += t.shape[0]
    assert abs(total / count - 0.6) < 0.02


def test_gen_pvalues_conservative_nulls_super_uniform():
    scn = _scn(m=50_000, m1=0, null_mode="conservative")
    data = gen_pvalues(scn, RandomStream(4))
    for t in (0.05, 0.1, 0.3, 0.5):
        assert np.mean(data.pvals <= t) <= t + 4 * np.sqrt(t * (1 - t) / 50_000)
    # strictly conservative in the bulk: noticeably fewer small p-values
    assert np.mean(data.pvals <= 0.3) < 0.29


def test_metrics_hand_counts():
    data_p = np.array([1e-4, 2e-4, 0.6, 0.9])
    is_sig = np.array([True, False, False, False])
    data = LabeledPValues(data_p, is_sig)
    got = _metrics(np.array([0, 1, 2]), data, tau=0.5)
    assert got["fdr"] == pytest.approx(2 / 3)
    assert got["fwer"] == 1.0
    assert got["power"] == 1.0
    assert got["n_reject"] == 3.0
    # only the rejected null with p > tau counts
    assert got["v_tau_frac"] == pytest.approx(1 / 3)
    empty = _metrics(np.array([], dtype=int), data, tau=0.5)
    assert empty["fdr"] == 0.0 and empty["fwer"] == 0.0 and empty["power"] == 0.0


def test_run_replications_deterministic():
    scn = _scn(m=300, m1=15, reps=4,
               methods=(MethodSpec("bh"), MethodSpec("sup-bh", options={"m_peel": 30})))
    a = run_replications(scn)
    b = run_replications(scn)
    assert a == b
    assert a.labels == ("bh", "sup-bh")
    assert a.reps == 4


def test_run_replications_matches_manual_aggregation():
    # rebuilding each replicate by hand gives the same means
    scn = _scn(m=300, m1=15, reps=5,
               methods=(MethodSpec("bh"), MethodSpec("sup-bh", options={"m_peel": 30})))
    table = run_replications(scn)
    fdr = {label: [] for label in table.labels}
    for rep in range(scn.reps):
        root = RandomStream(scn.seed, rep)
        data = gen_pvalues(scn, root.child(0))
        for mi, spec in enumerate(scn.methods):
            rej = run_method(spec, data.pvals, scn.alpha, root.child(1 + mi)).rejected_indices
            fdr[spec.label].append(_metrics(rej, data, 0.5)["fdr"])
    for label in table.labels:
        assert table.mean(label, "fdr") == pytest.approx(np.mean(fdr[label]))


def test_run_replications_same_bytes_for_any_worker_count(monkeypatch):
    scn = _scn(m=400, m1=20, reps=5, seed=9, dependence="block", block_size=100,
               methods=tuple(MethodSpec(name) for name in METHOD_NAMES))
    csv = []
    for workers in (1, 2):
        monkeypatch.setattr(simulate, "_worker_count", lambda reps: workers)
        csv.append(run_replications(scn).to_csv())
    assert csv[0] == csv[1]


def test_worker_count_follows_usable_cores(monkeypatch):
    # no process is started: the helper only reads the affinity mask and
    # the multiprocessing context
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert simulate._worker_count(200) == 4
    assert simulate._worker_count(3) == 3
    assert simulate._worker_count(1) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    assert simulate._worker_count(200) == 1


def test_worker_count_without_affinity_uses_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert simulate._worker_count(200) == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert simulate._worker_count(200) == 1


def test_worker_count_serial_without_fork(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert simulate._worker_count(200) == 1


def test_worker_count_serial_inside_daemonic_worker(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(multiprocessing, "current_process",
                        lambda: SimpleNamespace(daemon=True))
    assert simulate._worker_count(200) == 1


def test_worker_count_serial_beside_other_threads(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert simulate._worker_count(200) == 2
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(10,))
    waiter.start()
    try:
        assert simulate._worker_count(200) == 1
    finally:
        release.set()
        waiter.join(10)
    assert not waiter.is_alive()


def test_import_does_not_load_multiprocessing():
    src = str(Path(suptest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import suptest, sys; print('multiprocessing' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_loads_no_pool_or_optimizer():
    # everything `suptest run` loads, numpy and scipy included
    src = str(Path(suptest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, suptest.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'concurrent', 'multiprocessing'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_run_replications_no_signals():
    scn = _scn(m=200, m1=0, reps=6)
    t = run_replications(scn)
    assert t.mean("bh", "power") == 0.0
    # V = R when nothing is a signal, so fdr is the rejection indicator
    assert t.mean("bh", "fdr") == t.mean("bh", "fwer")


def test_classic_bh_fdr_controlled():
    scn = _scn(m=500, m1=25, reps=60, theta_signal=3.0)
    t = run_replications(scn)
    assert t.mean("bh", "fdr") <= 0.1 + 2 * t.stderr("bh", "fdr")


def test_metrics_table_csv_schema():
    scn = _scn(reps=2, methods=(MethodSpec("bh"), MethodSpec("bonf")))
    csv = run_replications(scn).to_csv()
    lines = csv.strip().split("\n")
    assert lines[0] == "method,metric,mean,stderr,reps"
    assert len(lines) == 1 + 2 * len(METRIC_NAMES)
    for row in lines[1:]:
        fields = row.split(",")
        assert fields[0] in ("bh", "bonf")
        assert fields[1] in METRIC_NAMES
        float(fields[2]), float(fields[3])
        assert fields[4] == "2"


def _assert_same_release(got, want):
    # field by field, arrays by value
    for f in fields(Release):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "peeled":
            assert np.array_equal(a.peeled_indices, b.peeled_indices)
            assert a.inference_pvals.tobytes() == b.inference_pvals.tobytes()
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b, f.name


def test_run_method_dispatch_covers_registry():
    g = np.random.default_rng(0)
    p = g.uniform(size=120)
    p[:10] *= 1e-5
    specs = [
        MethodSpec("holm"),
        MethodSpec("sup-holm", options={"m_peel": 20}),
        MethodSpec("asup-bh", options={"m_tilde": 10}),
        MethodSpec("dp-bh", options={"m_peel": 20}),
        MethodSpec("dp-bonf"),
        # noise large enough that the rejection set depends on the stream
        MethodSpec("dp-bh", options={"m_peel": 20, "eta": 1e-2}),
        MethodSpec("dp-bonf", options={"eta": 3e-3}),
        MethodSpec("sup-bh", options={"noise": "laplace", "m_peel": 20}),
        MethodSpec("sup-bh", options={"mu": 0.5, "m_peel": 20}),
    ]
    for spec in specs:
        release = run_method(spec, p, 0.1, RandomStream(5))
        rej = release.rejected_indices
        assert np.all(np.diff(rej) > 0) or rej.size <= 1
        assert release.j_star == rej.size
        # one result type: the released values, m', and the budget spent
        released = release.peeled.peeled_indices
        if spec.name == "holm":
            assert np.array_equal(released, np.arange(p.size))
            assert np.array_equal(release.peeled.inference_pvals, p)
            assert release.m_peel == p.size and release.budget is None
            _assert_same_release(release, classic_procedure(p, "holm", 0.1))
        elif spec.name.startswith("dp-"):
            assert released.size == 0 and release.peeled.inference_pvals.size == 0
            assert release.m_peel == (20 if spec.name == "dp-bh" else p.size)
            assert release.budget == PrivacyBudget.approx_dp(0.5, 1e-3)
            direct = dp_test(p, spec.dwork, 0.1, RandomStream(5), spec.config.family)
            _assert_same_release(release, direct)
        else:
            assert np.isin(rej, released).all()
            assert release.m_peel == released.size
            if spec.name == "asup-bh":
                assert release.m_peel == release.adaptive_info.m_star
            else:
                assert release.m_peel == 20
            want = (PrivacyBudget.gdp(0.5) if "mu" in spec.options
                    else PrivacyBudget.approx_dp(0.5, 1e-3))
            assert release.budget == want


def test_run_method_overridden_scales_claim_no_budget():
    p = np.random.default_rng(1).uniform(size=100)
    for name in ("sup-bh", "asup-bh"):
        release = run_method(MethodSpec(name, options={"sigma0": 0.01, "m_peel": 20}),
                             p, 0.1, RandomStream(2))
        assert release.budget is None
        assert (release.scales.sigma0, release.scales.sigma1) == (0.01, 0.02)
    calibrated = run_method(MethodSpec("sup-bh", options={"m_peel": 20}), p, 0.1,
                            RandomStream(2))
    assert calibrated.budget == PrivacyBudget.approx_dp(0.5, 1e-3)
    assert calibrated.scales.sigma1 == 2.0 * calibrated.scales.sigma0 > 0.0
    # a set laplace_scale replaces the dp-* calibration, zero drawing no noise
    for name in ("dp-bh", "dp-bonf"):
        for scale in (0.0, 0.5):
            release = run_method(MethodSpec(name, options={"laplace_scale": scale,
                                                           "m_peel": 20}),
                                 p, 0.1, RandomStream(2))
            assert release.budget is None
        calibrated = run_method(MethodSpec(name, options={"m_peel": 20}), p, 0.1,
                                RandomStream(2))
        assert calibrated.budget == PrivacyBudget.approx_dp(0.5, 1e-3)


@pytest.mark.parametrize("name", ["dp-bh", "dp-bonf"])
@pytest.mark.parametrize("option", ["mu", "sigma0", "sigma1"])
def test_run_method_dp_rejects_options_it_would_ignore(name, option):
    p = np.random.default_rng(1).uniform(size=50)
    with pytest.raises(ValueError, match=f"'{option}'"):
        run_method(MethodSpec(name, options={option: 0.7}), p, 0.1, RandomStream(2))


def test_noise_inflation():
    mu = experiment_mu(0.5, 1e-3)
    v = noise_inflation(200, 1e-4, mu)
    assert v == pytest.approx(2 * 200 * 1e-8 / mu ** 2, rel=1e-12)
    with pytest.raises(ValueError):
        noise_inflation(0, 1e-4, mu)


def test_asymptotic_bh_threshold_golden():
    lam, tdp = asymptotic_bh_threshold(0.1, 0.2, 2.0, 0.0)
    assert abs(lam - 0.008539429694) < 1e-10
    assert abs(tdp - 0.3501166174) < 1e-9
    infl = noise_inflation(100_000, 1e-4, experiment_mu(0.5, 1e-3))
    lam2, tdp2 = asymptotic_bh_threshold(0.1, 0.2, 2.0, infl)
    assert abs(lam2 - 0.008042117944) < 1e-10
    assert abs(tdp2 - 0.3297268357) < 1e-9


def test_asymptotic_bh_threshold_is_fixed_point_and_largest_root():
    lam, tdp = asymptotic_bh_threshold(0.1, 0.2, 2.0, 0.0)
    beta = (1 - 0.2 * 0.9) / (0.2 * 0.1)
    f1 = std_normal_cdf(std_normal_quantile(lam) + 2.0)
    assert abs(f1 - beta * lam) <= 1e-10
    assert tdp == pytest.approx(f1, rel=1e-12)
    # no further crossing above the root
    for p in np.linspace(lam * 1.01, 0.999, 200):
        assert std_normal_cdf(std_normal_quantile(p) + 2.0) < beta * p


def test_asymptotic_bh_threshold_monotone_in_noise():
    lam0, tdp0 = asymptotic_bh_threshold(0.1, 0.2, 2.0, 0.0)
    lam1, tdp1 = asymptotic_bh_threshold(0.1, 0.2, 2.0, 0.5)
    assert lam1 <= lam0
    assert tdp1 <= tdp0
    # strong signal separates perfectly
    _, tdp_big = asymptotic_bh_threshold(0.1, 0.2, 20.0, 0.0)
    assert tdp_big > 0.999


def test_asymptotic_bh_threshold_degenerate():
    with pytest.raises(ValueError):
        asymptotic_bh_threshold(1.2, 0.2, 2.0, 0.0)
    with pytest.raises(ValueError):
        asymptotic_bh_threshold(0.1, 0.2, 0.0, 0.0)
    # a vanishing signal keeps F1(p) below beta p everywhere
    with pytest.raises(ValueError):
        asymptotic_bh_threshold(0.1, 0.2, 1e-8, 0.0)


def test_empirical_tdp_gap_zero_noise():
    scn = MixtureScenario(m=5000, sigma_override=(0.0, 0.0))
    res = empirical_tdp_gap(scn, RandomStream(6))
    assert res.gap == 0.0
    assert res.tdp_classic == res.tdp_noisy
    assert res.n_signals > 0


def test_empirical_tdp_gap_no_signals():
    scn = MixtureScenario(m=50, omega1=1e-9)
    res = empirical_tdp_gap(scn, RandomStream(7))
    assert res.n_signals == 0
    assert res.gap == 0.0


def test_empirical_tdp_gap_deterministic():
    scn = MixtureScenario(m=2000)
    a = empirical_tdp_gap(scn, RandomStream(8))
    b = empirical_tdp_gap(scn, RandomStream(8))
    assert a == b


_BAD_MIXTURES = {
    "m": [0, -5],
    "omega1": [0.0, 1.0, float("nan")],
    "alpha": [0.0, 1.0, float("nan")],
    "signal": [0.0, float("nan"), float("inf")],
    "gs": [0.0, -1e-4, float("nan"), float("inf")],
    "mu": [0.0, -0.5, float("nan"), float("inf")],
    "m_peel": [0, 201],
}


@pytest.mark.parametrize("key, value", [(k, v) for k, vs in _BAD_MIXTURES.items()
                                        for v in vs])
def test_mixture_scenario_refuses_bad_values(key, value):
    # before it was checked, omega1 = nan drew no signals and returned a
    # zero gap
    with pytest.raises(ValueError, match=key):
        MixtureScenario(**{"m": 200, key: value})


def test_mixture_scenario_defaults():
    scn = MixtureScenario()
    assert scn.resolved_mu() == pytest.approx(experiment_mu(0.5, 1e-3))
    assert scn.resolved_m_peel() == scn.m
    custom = MixtureScenario(mu=0.7, m_peel=300)
    assert custom.resolved_mu() == 0.7
    assert custom.resolved_m_peel() == 300
