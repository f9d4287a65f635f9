"""Differentially private multiple hypothesis testing with super-uniform
noisy p-values: peeling-based release, BH/BY/Bonferroni/Holm threshold
rules, adaptive null-fraction estimation, log-scale private comparators,
and a replication engine for power/error studies.

The package exports what the README's library example uses; everything
else is importable from its module (`suptest.simulate`, `suptest.cli`, ...).
"""

from .privacy import PrivacyBudget
from .thresholds import TestConfig, sup_test
from .adaptive import AdaptiveConfig, adaptive_sup_test

__all__ = [
    "PrivacyBudget",
    "TestConfig",
    "sup_test",
    "AdaptiveConfig",
    "adaptive_sup_test",
]

__version__ = "0.1.0"
