"""Differentially private multiple hypothesis testing with super-uniform
noisy p-values: peeling-based release, BH/BY/Bonferroni/Holm threshold
rules, adaptive null-fraction estimation, log-scale private comparators,
and a replication engine for power/error studies.
"""

from .numerics import (
    RandomStream,
    normal_laplace_cdf,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
)
from .privacy import (
    NoiseScales,
    PrivacyBudget,
    calibrate_laplace_scales,
    calibrate_peeling_scales,
    experiment_mu,
    gdp_compose,
    gdp_to_approx_dp_delta,
    split_budget,
)
from .transform import (
    clamp_pvalues,
    noisy_p_gaussian,
    noisy_p_laplace,
    noisy_row,
)
from .peeling import PeelOutcome, forward_peel_baseline, reversed_peel
from .thresholds import (
    AdaptiveInfo,
    RejectionResult,
    TestConfig,
    ThresholdFamily,
    select_step,
    sup_test,
    threshold_value,
    threshold_values,
    truncated_sup_test,
)
from .adaptive import (
    AdaptiveConfig,
    adaptive_sup_test,
    e_tau,
    gs_pi0,
    gs_pi0_inv,
    peel_count_m_dagger,
    pi0_bar,
    pi0_hat,
    pi0_inv_bar,
    resolve_c,
    storey_pi0,
)
from .baselines import (
    DworkParams,
    classic_procedure,
    dp_bh,
    dp_bh_penalty,
    dp_bonf,
    dp_bonf_penalty,
    theorem8_check,
)
from .simulate import (
    MethodSpec,
    MetricsTable,
    MixtureScenario,
    SimScenario,
    TdpGapResult,
    asymptotic_bh_threshold,
    desk_scenario,
    empirical_tdp_gap,
    full_scenario,
    gen_pvalues,
    noise_inflation,
    run_method,
    run_replications,
)

__version__ = "0.1.0"
