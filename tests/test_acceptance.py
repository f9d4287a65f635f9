"""End-to-end acceptance checks.

Each test measures the quantities it is about, reports them through the
criterion_log fixture (printed in the terminal summary), and then asserts
the stated tolerance. Run with -v for one pass/fail line per criterion.
"""

import os
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy import integrate

from suptest.adaptive import e_tau, gs_pi0_inv, pi0_inv_bar
from suptest.baselines import DworkParams, classic_procedure
from suptest.numerics import RandomStream, std_normal_cdf, std_normal_quantile
from suptest.privacy import (
    PrivacyBudget,
    calibrate_peeling_scales,
    experiment_mu,
    gdp_to_approx_dp_delta,
)
from suptest.thresholds import TestConfig, sup_test
from theory_oracle import (
    MixtureScenario,
    asymptotic_bh_threshold,
    empirical_tdp_gap,
    noise_inflation,
    pi0_bar,
    theorem8_check,
    truncated_sup_test,
)

FAMILIES = ("bh", "by", "bonf", "holm")


def _mixed_instance(stream, m, lo=5, hi=60):
    g = stream.generator()
    p = g.uniform(size=m)
    k = int(g.integers(lo, hi))
    p[:k] = p[:k] * 10.0 ** g.uniform(-8, -1, size=k)
    return p


def test_criterion_01_zero_noise_matches_classic(criterion_log):
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(1000):
        p = _mixed_instance(RandomStream(1000 + i), 500, 10, 60)
        for fam in FAMILIES:
            cfg = TestConfig(family=fam, alpha=0.1,
                             budget=PrivacyBudget.gdp(1.0),
                             m_peel=500, sigma_override=(0.0, 0.0))
            got = sup_test(p, cfg, RandomStream(1)).rejected_indices
            if not np.array_equal(got, classic_procedure(p, fam, 0.1).rejected_indices):
                mismatches += 1
    elapsed = time.perf_counter() - t0
    criterion_log(f"criterion 01: mismatches={mismatches}/4000 "
                  f"elapsed={elapsed:.1f}s (budget 30s)")
    assert mismatches == 0
    assert elapsed < 30.0


def test_criterion_02_transformed_nulls_super_uniform(criterion_log):
    from suptest.transform import clamp_pvalues, draw_noise, key_to_noisy_p

    t0 = time.perf_counter()
    n = 1_000_000
    ks_crit = 1.6276 / np.sqrt(n)
    grid = np.arange(1, n + 1) / n
    worst_ks, worst_slack = 0.0, np.inf
    sid = 0
    for kind in ("gaussian", "laplace"):
        for scale in (0.1, 1.0, 5.0):
            u = RandomStream(20_000 + sid).generator().uniform(size=n)
            z = draw_noise(RandomStream(21_000 + sid).generator(), scale, n, kind)
            out = key_to_noisy_p(std_normal_quantile(clamp_pvalues(u)) + z, scale, kind)
            sid += 1
            s = np.sort(out)
            ks = max(np.max(grid - s), np.max(s - (grid - 1 / n)))
            worst_ks = max(worst_ks, float(ks))
            for t in (0.001, 0.01, 0.05, 0.1, 0.5):
                slack = t + 4 * np.sqrt(t * (1 - t) / n) - np.mean(out <= t)
                worst_slack = min(worst_slack, float(slack))
    elapsed = time.perf_counter() - t0
    criterion_log(f"criterion 02: worst_ks={worst_ks:.6f} (crit {ks_crit:.6f}) "
                  f"min_cdf_slack={worst_slack:.2e} elapsed={elapsed:.1f}s")
    assert worst_ks < ks_crit
    assert worst_slack >= 0.0
    assert elapsed < 60.0


def test_criterion_03_peeled_values_dominate_full_release(criterion_log):
    violations = 0
    equality_cases = 0
    for i in range(100):
        p = _mixed_instance(RandomStream(3000 + i), 300, 5, 40)
        for fam in FAMILIES:
            cfg = TestConfig(family=fam, alpha=0.1,
                             budget=PrivacyBudget.approx_dp(0.5, 1e-3),
                             gs=1e-4, m_peel=60)
            stream = RandomStream(7000 + i)
            sup = sup_test(p, cfg, stream)
            trunc = truncated_sup_test(p, cfg, stream)
            full_sorted = np.sort(trunc.peeled.inference_pvals)
            peel_sorted = np.sort(sup.peeled.inference_pvals)
            if not np.all(full_sorted[: cfg.m_peel] <= peel_sorted):
                violations += 1
            sup_set = set(sup.rejected_indices.tolist())
            trunc_set = set(trunc.rejected_indices.tolist())
            if not sup_set <= trunc_set:
                violations += 1
            if trunc_set <= set(sup.peeled.peeled_indices.tolist()):
                equality_cases += 1
                if sup_set != trunc_set:
                    violations += 1
    criterion_log(f"criterion 03: violations={violations} over 400 runs "
                  f"(equality branch exercised {equality_cases}x)")
    assert violations == 0


def test_criterion_04_fdr_control_independent(criterion_log, desk_main):
    table, secs = desk_main
    parts = []
    for label in ("sup-bh", "sup-by", "asup-bh"):
        fdr = table.mean(label, "fdr")
        bound = 0.1 + 2 * table.stderr(label, "fdr")
        parts.append(f"{label}={fdr:.4f} (<= {bound:.4f})")
        assert fdr <= bound
    criterion_log(f"criterion 04: FDR {' '.join(parts)} "
                  f"scenario={secs:.0f}s (budget 180s)")
    assert secs < 180.0


def test_criterion_05_fwer_control(criterion_log, desk_main, desk_block):
    parts = []
    for name, (table, _) in (("indep", desk_main), ("block", desk_block)):
        for label in ("sup-bonf", "sup-holm"):
            fwer = table.mean(label, "fwer")
            bound = 0.1 + 2 * table.stderr(label, "fwer")
            parts.append(f"{name}/{label}={fwer:.4f} (<= {bound:.4f})")
            assert fwer <= bound
    criterion_log(f"criterion 05: FWER {' '.join(parts)}")


def test_criterion_06_fdr_control_block_dependence(criterion_log, desk_block):
    table, _ = desk_block
    parts = []
    for label in ("sup-bh", "sup-by"):
        fdr = table.mean(label, "fdr")
        bound = 0.1 + 2 * table.stderr(label, "fdr")
        parts.append(f"{label}={fdr:.4f} (<= {bound:.4f})")
        assert fdr <= bound
    criterion_log(f"criterion 06: block FDR {' '.join(parts)}")


def test_criterion_07_laplace_power_vs_log_scale(criterion_log, desk_laplace):
    params = DworkParams(eta=1e-4, nu=1e-5, eps=0.5, delta=1e-3, m_peel=200)
    assert theorem8_check(params, 0.1, 5000, "bh") is True
    assert theorem8_check(params, 0.1, 5000, "bonf") is True
    table, _ = desk_laplace
    parts = []
    for ours, theirs in (("sup-bh-lap", "dp-bh"), ("sup-bonf-lap", "dp-bonf")):
        a, b = table.mean(ours, "power"), table.mean(theirs, "power")
        slack = 2 * np.hypot(table.stderr(ours, "power"),
                             table.stderr(theirs, "power"))
        parts.append(f"{ours}={a:.4f} vs {theirs}={b:.4f} (slack {slack:.4f})")
        assert a >= b - slack
    criterion_log(f"criterion 07: power {' '.join(parts)}")


def test_criterion_08_adaptive_peeling_gain(criterion_log, desk_dense):
    table, _ = desk_dense
    gain = table.mean("asup-bh", "power") - table.mean("sup-bh-100", "power")
    fdr = table.mean("asup-bh", "fdr")
    slack = table.mean("asup-bh", "v_tau_frac")
    bound = 0.1 + 2 * table.stderr("asup-bh", "fdr") + slack
    criterion_log(f"criterion 08: power_gain={gain:.4f} (>= 0.05) "
                  f"adaptive FDR={fdr:.4f} (<= {bound:.4f})")
    assert gain >= 0.05
    assert fdr <= bound


def test_criterion_09_tdp_gap_matches_asymptotics(criterion_log):
    t0 = time.perf_counter()
    lam_c, tdp_c = asymptotic_bh_threshold(0.1, 0.2, 2.0, 0.0)
    assert abs(lam_c - 0.008539429694) < 1e-10
    assert abs(tdp_c - 0.3501166174) < 1e-9
    scn = MixtureScenario()
    infl = noise_inflation(scn.resolved_m_peel(), scn.gs, scn.resolved_mu())
    lam_n, tdp_n = asymptotic_bh_threshold(0.1, 0.2, 2.0, infl)
    assert abs(lam_n - 0.008042117944) < 1e-10
    assert abs(tdp_n - 0.3297268357) < 1e-9
    asym_gap = tdp_c - tdp_n

    single = empirical_tdp_gap(scn, RandomStream(900))
    nonneg = sum(
        empirical_tdp_gap(scn, RandomStream(901 + i)).gap >= 0.0
        for i in range(50)
    )
    elapsed = time.perf_counter() - t0
    criterion_log(f"criterion 09: asym_gap={asym_gap:.6f} "
                  f"empirical={single.gap:.6f} "
                  f"|diff|={abs(single.gap - asym_gap):.6f} (<= 0.02) "
                  f"nonneg={nonneg}/50 elapsed={elapsed:.1f}s")
    assert abs(single.gap - asym_gap) <= 0.02
    assert nonneg >= 45
    assert elapsed < 120.0


def test_criterion_10_pi0_estimators(criterion_log):
    u = RandomStream(30_000).generator().uniform(size=100_000)
    bar = pi0_bar(u, 0.5)
    inv = pi0_inv_bar(u, 0.5, 0.5)
    assert abs(bar - 1.0) <= 0.02
    assert abs(inv - 1.0) <= 0.02

    quad, _ = integrate.quad(
        lambda x: std_normal_quantile(x) - std_normal_quantile(0.5), 0.5, 1.0)
    assert abs(e_tau(0.5) - quad / 0.5) < 1e-6
    assert abs(e_tau(0.5) - 0.797885) < 1e-6
    assert abs(gs_pi0_inv(1e-4, 0.5, 0.5) - 1.0020e-3) < 1e-6

    gs = 1e-3
    bound = gs_pi0_inv(gs, 0.5, 0.5)
    g = RandomStream(30_001).generator()
    worst = 0.0
    for _ in range(10_000):
        base = g.uniform(size=20)
        pert = std_normal_cdf(std_normal_quantile(base)
                              + g.uniform(-gs, gs, size=20))
        worst = max(worst, abs(pi0_inv_bar(base, 0.5, 0.5)
                               - pi0_inv_bar(pert, 0.5, 0.5)))
    criterion_log(f"criterion 10: pi0_bar={bar:.5f} pi0_inv_bar={inv:.5f} "
                  f"max_sensitivity={worst:.6f} (bound {bound:.6f})")
    assert worst <= bound + 1e-12


def test_criterion_11_privacy_arithmetic(criterion_log):
    delta = gdp_to_approx_dp_delta(1.0, 1.0)
    mu = experiment_mu(0.5, 0.001)
    scales = calibrate_peeling_scales(mu, 1e-4, 200)
    criterion_log(f"criterion 11: delta={delta:.6f} mu={mu:.6f} "
                  f"sigma0={scales.sigma0:.7f} ratio={scales.sigma1 / scales.sigma0}")
    assert abs(delta - 0.126936) <= 1e-4
    assert abs(mu - 0.240637) <= 1e-6
    assert abs(scales.sigma0 - 0.0083113) <= 1e-7
    assert scales.sigma1 / scales.sigma0 == 2.0


def _cli(args, env):
    proc = subprocess.run([sys.executable, "-m", "suptest"] + args,
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def _thread_env(n):
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(n)
    return env


def test_criterion_12_cli_determinism(criterion_log, tmp_path):
    pfile = tmp_path / "p.csv"
    g = np.random.default_rng(4)
    p = g.uniform(size=150)
    p[:10] *= 1e-5
    pfile.write_text("\n".join(repr(float(x)) for x in p) + "\n")
    scen = tmp_path / "scen.cfg"
    scen.write_text("m=300\nm1=15\nreps=3\nseed=5\nmethods=bh,sup-bh\n"
                    "sup-bh.m_peel=30\n")

    checked = 0
    for argv in (
        ["run", "--input", str(pfile), "--method", "sup-bh",
         "--m-peel", "50", "--seed", "7"],
        ["run", "--input", str(pfile), "--method", "asup-bh", "--seed", "2"],
        ["run", "--input", str(pfile), "--method", "dp-bh",
         "--m-peel", "40", "--seed", "9"],
        ["simulate", "--scenario", str(scen)],
        ["privacy", "calibrate", "--eps", "0.5", "--delta", "0.001",
         "--gs", "1e-4", "--m-peel", "200"],
    ):
        outputs = {
            _cli(argv, _thread_env(1)),
            _cli(argv, _thread_env(1)),
            _cli(argv, _thread_env(4)),
        }
        assert len(outputs) == 1, f"non-deterministic output for {argv[0]}"
        checked += 1
    criterion_log(f"criterion 12: {checked} commands byte-identical across "
                  f"reruns and thread counts")
