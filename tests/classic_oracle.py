"""Reference for the classic procedures.

Textbook BH, BY, Bonferroni and Holm on raw p-values, written out with
their own thresholds, step-up and step-down, and sharing no code with
`suptest.thresholds`. `suptest.baselines.classic_procedure`, which
selects through `select_step`, must reproduce it exactly.
"""

from __future__ import annotations

import numpy as np

from suptest.transform import checked_pvalues


def classic_procedure(pvals, family: str, alpha: float) -> np.ndarray:
    """Textbook multiple-testing procedure; returns sorted rejected indices.

    bh / by are step-up, bonf is a plain cutoff, holm is step-down.
    """
    p = checked_pvalues(pvals)
    fam = family.lower()
    if fam not in ("bh", "by", "bonf", "holm"):
        raise ValueError(f"unknown family {family!r}")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0,1)")
    m = p.size
    if m == 0:
        return np.empty(0, dtype=np.intp)
    if fam == "bonf":
        return np.flatnonzero(p <= alpha / m).astype(np.intp)
    order = np.argsort(p, kind="stable")
    s = p[order]
    j = np.arange(1, m + 1)
    if fam in ("bh", "by"):
        lam = alpha * j / m
        if fam == "by":
            lam /= np.sum(1.0 / j)
        hits = np.flatnonzero(s <= lam)
        k = hits[-1] + 1 if hits.size else 0
    else:  # holm
        bad = np.flatnonzero(s > alpha / (m - j + 1))
        k = bad[0] if bad.size else m
    return np.sort(order[:k]).astype(np.intp)
