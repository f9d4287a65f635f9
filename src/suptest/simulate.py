"""Synthetic data generation, the method table and the replication engine.

METHODS gives each method name its one row, which run_method, MethodSpec,
SimScenario and `suptest run` read. Scenarios draw correlated normal test
statistics, convert them to p-values via p_j = Phi(T_j - theta_j), and run
a configurable list of methods over independent replicates. Metrics are
averaged with Monte Carlo standard errors and exported as CSV rows
`method,metric,mean,stderr,reps`.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, fields, replace
from typing import Optional

import numpy as np

from .adaptive import AdaptiveConfig, adaptive_sup_test
from .baselines import DworkParams, classic_procedure, dp_test
from .numerics import RandomStream, std_normal_cdf, usable_cores
from .privacy import EXPERIMENT_BUDGET, PrivacyBudget
from .thresholds import FAMILIES, Release, TestConfig, sup_test

__all__ = [
    "METHODS",
    "OPTION_TYPES",
    "option_value",
    "MethodSpec",
    "SimScenario",
    "run_method",
    "run_replications",
    "desk_scenario",
    "full_scenario",
]


def _classic(spec, pvals, alpha, stream):
    return classic_procedure(pvals, spec.config.family, alpha)


def _sup(spec, pvals, alpha, stream):
    return sup_test(pvals, replace(spec.config, alpha=alpha), stream)


def _asup(spec, pvals, alpha, stream):
    return adaptive_sup_test(pvals, replace(spec.config, alpha=alpha), spec.adaptive, stream)


def _dp(spec, pvals, alpha, stream):
    return dp_test(pvals, spec.dwork, alpha, stream, spec.config.family)


_PEEL_READS = {"tau", "mu", "eps", "delta", "sigma0", "sigma1", "zeta", "gs", "noise"}
_DP_READS = {"tau", "eps", "delta", "eta", "nu", "laplace_scale"}
_GAUSSIAN_ONLY = {"noise": (("gaussian",), "adaptive test supports gaussian noise only")}
_EPS_DELTA_ONLY = {key: ((), f"option {key!r} does not apply to the dp-* baselines, which take "
                             "an (eps, delta) budget") for key in ("mu", "sigma0", "sigma1")}

# One row per method: run(spec, pvals, alpha, stream), which returns its
# Release; the options it reads (tau for all: the v_tau_frac cut; m_peel
# where it peels that many values, else it peels m or clamps to m); whether
# it releases the raw p-values; limits, option -> (values accepted, refusal).
METHODS = {
    **{fam: {"run": _classic, "reads": {"tau"}, "raw": True, "limits": {}} for fam in FAMILIES},
    **{"sup-" + fam: {"run": _sup, "reads": _PEEL_READS | {"m_peel"}, "raw": False,
                      "limits": {}} for fam in FAMILIES},
    **{"asup-" + fam: {"run": _asup, "reads": _PEEL_READS | {"c", "m_tilde", "c0", "rho"},
                       "raw": False, "limits": _GAUSSIAN_ONLY} for fam in ("bh", "bonf")},
    "dp-bh": {"run": _dp, "reads": _DP_READS | {"m_peel"}, "raw": False,
              "limits": _EPS_DELTA_ONLY},
    "dp-bonf": {"run": _dp, "reads": _DP_READS, "raw": False, "limits": _EPS_DELTA_ONLY},
}

METRIC_NAMES = ("fdr", "fwer", "power", "n_reject", "v_tau_frac")

NULL_MODES = ("uniform", "conservative")
DEPENDENCE_MODES = ("independent", "block")


# The options a method may set, with the type each value is converted to.
# Each fills a field of a config MethodSpec builds, which checks it: mu the
# budget gdp(mu), else eps and delta those of EXPERIMENT_BUDGET; sigma0 and
# sigma1 TestConfig.sigma_override; noise TestConfig.noise_kind; any other
# option the field of its name. An option not set keeps the field's default.
OPTION_TYPES = {
    "mu": float, "eps": float, "delta": float, "sigma0": float, "sigma1": float,
    "zeta": int, "gs": float, "m_peel": int, "noise": str,
    "tau": float, "c": float, "m_tilde": int, "c0": float, "rho": float,
    "eta": float, "nu": float, "laplace_scale": float,
}


def option_value(key: str, value):
    """value converted to the type of option key. A value that is not a
    string must convert exactly, so m_peel = 20.7 is refused, not cut to
    20; a float must be finite, so NaN and +-inf are refused too."""
    if key not in OPTION_TYPES:
        raise ValueError(f"unknown option {key!r}")
    kind = OPTION_TYPES[key]
    try:
        converted = kind(value)
        exact = converted == (converted if isinstance(value, str) else value)
    except (TypeError, ValueError):
        exact = False
    if not exact or (kind is float and not math.isfinite(converted)):
        raise ValueError(f"option {key!r}: cannot parse {value!r} as {kind.__name__}")
    return converted


def _configured(cls, options: dict, **given):
    """A cls from given and from the options named like its fields, which
    win; every other field keeps its dataclass default."""
    names = {f.name for f in fields(cls)}
    return cls(**{**given, **{k: v for k, v in options.items() if k in names}})


@dataclass(frozen=True)
class MethodSpec:
    """A method to run in a scenario: registry name, keyword-only label and
    options (see OPTION_TYPES), and the configs they fill, built and checked here."""

    name: str
    label: Optional[str] = field(default=None, kw_only=True)
    options: dict = field(default_factory=dict, kw_only=True)
    config: TestConfig = field(init=False, repr=False, compare=False)
    adaptive: AdaptiveConfig = field(init=False, repr=False, compare=False)
    dwork: DworkParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValueError(f"unknown method {self.name!r}")
        if self.label is None:
            object.__setattr__(self, "label", self.name)
        options = {key: option_value(key, val) for key, val in self.options.items()}
        object.__setattr__(self, "options", options)
        for key, (accepted, why) in METHODS[self.name]["limits"].items():
            if key in options and options[key] not in accepted:
                raise ValueError(why)
        budget = (PrivacyBudget.gdp(options["mu"]) if "mu" in options
                  else _configured(PrivacyBudget, options, **vars(EXPERIMENT_BUDGET)))
        given = {"family": self.name.rpartition("-")[2], "budget": budget,
                 "noise_kind": options.get("noise", TestConfig.noise_kind)}
        if "sigma0" in options or "sigma1" in options:
            s0 = options.get("sigma0", 0.0)
            given["sigma_override"] = (s0, options.get("sigma1", 2.0 * s0))
        object.__setattr__(self, "config", _configured(TestConfig, options, **given))
        object.__setattr__(self, "adaptive", _configured(AdaptiveConfig, options))
        object.__setattr__(self, "dwork", _configured(DworkParams, options))


@dataclass(frozen=True)
class SimScenario:
    m: int
    m1: int
    methods: tuple
    theta_signal: float = 4.0
    null_mode: str = "uniform"
    dependence: str = "independent"
    block_size: int = 200
    block_rho: float = 0.6
    alpha: float = 0.1
    reps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be a positive integer")
        if not 0 <= self.m1 <= self.m:
            raise ValueError("m1 must lie in [0, m]")
        if not math.isfinite(self.theta_signal):
            raise ValueError("theta_signal must be finite")
        if self.null_mode not in NULL_MODES:
            raise ValueError(f"unknown null_mode {self.null_mode!r}")
        if self.dependence not in DEPENDENCE_MODES:
            raise ValueError(f"unknown dependence {self.dependence!r}")
        if self.dependence == "block":
            if self.block_size < 1 or self.m % self.block_size != 0:
                raise ValueError("block_size must divide m")
            # the common-factor generator needs a nonnegative correlation
            if not 0.0 <= self.block_rho < 1.0:
                raise ValueError("block_rho must lie in [0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0,1)")
        if self.reps < 1:
            raise ValueError("reps must be a positive integer")
        RandomStream(self.seed)  # raises for a negative seed
        if not self.methods:
            raise ValueError("scenario configures no methods")
        labels = [s.label for s in self.methods]
        if len(set(labels)) != len(labels):
            raise ValueError("method labels must be unique")
        # dwork.m_peel, dp-bh's depth, is config.m_peel: both come from one option
        for spec in self.methods:
            depth = spec.config.m_peel
            if "m_peel" in METHODS[spec.name]["reads"] and depth > self.m:
                raise ValueError(f"method {spec.label!r}: m_peel ({depth}) cannot exceed "
                                 f"m ({self.m})")


@dataclass(frozen=True)
class LabeledPValues:
    pvals: np.ndarray
    is_signal: np.ndarray

    @property
    def n_signals(self) -> int:
        return int(np.count_nonzero(self.is_signal))


def gen_pvalues(scenario: SimScenario, stream: RandomStream) -> LabeledPValues:
    """Draw one replicate: correlated statistics, signal placement, and the
    p-values p_j = Phi(T_j - theta_j)."""
    g = stream.generator()
    m = scenario.m
    if scenario.dependence == "independent":
        t = g.standard_normal(m)
    else:
        bs, rho = scenario.block_size, scenario.block_rho
        shared = g.standard_normal(m // bs)
        t = math.sqrt(rho) * np.repeat(shared, bs) \
            + math.sqrt(1.0 - rho) * g.standard_normal(m)
    sig_idx = g.choice(m, size=scenario.m1, replace=False)
    is_signal = np.zeros(m, dtype=bool)
    is_signal[sig_idx] = True
    theta = np.zeros(m)
    theta[sig_idx] = scenario.theta_signal
    if scenario.null_mode == "conservative":
        null_idx = g.permutation(np.flatnonzero(~is_signal))
        n_zero = round(0.6 * null_idx.size)
        shifted = null_idx[n_zero:]
        theta[shifted] = g.uniform(-0.3, 0.0, size=shifted.size)
    pvals = std_normal_cdf(t - theta)
    return LabeledPValues(pvals, is_signal)


def run_method(spec: MethodSpec, pvals, alpha: float, stream: RandomStream) -> Release:
    """Run spec's method at level alpha by its row of METHODS, for the
    simulator and `suptest run` alike; returns the method's Release."""
    return METHODS[spec.name]["run"](spec, pvals, alpha, stream)


def _metrics(rejected: np.ndarray, data: LabeledPValues, tau: float) -> dict:
    r = rejected.size
    false_mask = ~data.is_signal[rejected]
    v = int(np.count_nonzero(false_mask))
    s = r - v
    m1 = data.n_signals
    v_tau = int(np.count_nonzero(false_mask & (data.pvals[rejected] > tau)))
    denom = max(r, 1)
    return {
        "fdr": v / denom,
        "fwer": 1.0 if v > 0 else 0.0,
        "power": s / max(m1, 1),
        "n_reject": float(r),
        "v_tau_frac": v_tau / denom,
    }


@dataclass(frozen=True)
class MetricsTable:
    """Per-method metric means and Monte Carlo standard errors."""

    labels: tuple
    reps: int
    table: dict  # (label, metric) -> (mean, stderr)

    def mean(self, label: str, metric: str) -> float:
        return self.table[(label, metric)][0]

    def stderr(self, label: str, metric: str) -> float:
        return self.table[(label, metric)][1]

    def to_csv(self) -> str:
        lines = ["method,metric,mean,stderr,reps"]
        for label in self.labels:
            for metric in METRIC_NAMES:
                mean, se = self.table[(label, metric)]
                lines.append(f"{label},{metric},{float(mean)!r},{float(se)!r},{self.reps}")
        return "\n".join(lines) + "\n"


def _one_rep(scenario: SimScenario, rep: int) -> list:
    """The metrics of replicate rep, one dict per method in scenario order.

    Replicate rep draws only from RandomStream(scenario.seed, rep): the
    data from child 0 and method i from child 1 + i."""
    root = RandomStream(scenario.seed, rep)
    data = gen_pvalues(scenario, root.child(0))
    rows = []
    for mi, spec in enumerate(scenario.methods):
        release = run_method(spec, data.pvals, scenario.alpha, root.child(1 + mi))
        rows.append(_metrics(release.rejected_indices, data, spec.adaptive.tau))
    return rows


def _worker_count(reps: int) -> int:
    """Worker processes for reps replicates: one per usable core, at most
    reps. 1 means run in this process, as also happens without the fork
    start method, inside a daemonic worker, which may not have children,
    and beside other Python threads, which a forked child could find
    holding a lock."""
    n = min(usable_cores(), reps)
    if n > 1:
        import multiprocessing

        if ("fork" not in multiprocessing.get_all_start_methods()
                or multiprocessing.current_process().daemon
                or threading.active_count() > 1):
            return 1
    return n


def run_replications(scenario: SimScenario) -> MetricsTable:
    """Run every configured method over scenario.reps fresh replicates.

    Replicate r uses RandomStream(seed, r); the data and each method draw
    from disjoint sub-streams, so no replicate depends on another. The
    replicates run in forked worker processes, one per usable core (see
    _worker_count), and their rows are merged in replicate order, so the
    table, and its CSV, are the same bytes for any number of workers. An
    exception raised in a replicate reaches the caller with its type and
    message.
    """
    reps = scenario.reps
    workers = _worker_count(reps)
    args = ([scenario] * reps, range(reps))
    if workers == 1:
        per_rep = list(map(_one_rep, *args))
    else:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # forked workers inherit the imported modules instead of importing
        # suptest again, which costs about as much as a desk replicate
        ctx = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
            per_rep = list(pool.map(_one_rep, *args))
    labels = tuple(s.label for s in scenario.methods)
    table = {}
    for i, label in enumerate(labels):
        for k in METRIC_NAMES:
            vals = np.array([rows[i][k] for rows in per_rep])
            se = float(np.std(vals, ddof=1) / math.sqrt(reps)) if reps > 1 else 0.0
            table[(label, k)] = (float(np.mean(vals)), se)
    return MetricsTable(labels, reps, table)


def _preset(m: int, m1: int, overrides: dict) -> SimScenario:
    methods = tuple(map(MethodSpec, ("bh", "sup-bh", "sup-by", "sup-bonf", "sup-holm",
                                     "asup-bh", "dp-bh", "dp-bonf")))
    base = dict(m=m, m1=m1, methods=methods, theta_signal=4.0, alpha=0.1, reps=200, seed=0)
    return SimScenario(**{**base, **overrides})


def desk_scenario(**overrides) -> SimScenario:
    """Moderate-scale default scenario (m = 5000, m1 = 50, 200 reps)."""
    return _preset(5000, 50, overrides)


def full_scenario(**overrides) -> SimScenario:
    """Full-scale scenario (m = 20000, m1 = 100, 200 reps); slow."""
    return _preset(20000, 100, overrides)
