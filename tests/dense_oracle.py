"""Dense reference for reversed peeling.

Builds the whole (1 + m_peel) x m matrices of keys Phi^-1(p) + z and of
noisy p-values from the numerics primitives, row k from stream.child(k),
and peels the keys row by row: round k takes the first minimiser of key
row k over the surviving indices. Row 0 is the inference row. This is
the eager, literal definition of reversed peeling. `suptest.peeling.
reversed_peel` reproduces its inference row bit for bit and, with
sigma1 = 0, its peel order; with noise its rounds draw only near the
bottom of the keys, from other streams, so its peel order matches this
one in distribution, not bit for bit. The oracle costs
16 (1 + m_peel) m bytes, so it is for small test instances only.
"""

from __future__ import annotations

import math

import numpy as np

from suptest.numerics import normal_laplace_cdf, std_normal_cdf, std_normal_quantile

P_CLAMP = 1e-15
ENTRY_LO = 1e-300
ENTRY_HI = 1.0 - 1e-16


def generate_noisy_matrix(pvals, m_peel, scales, stream, noise_kind="gaussian"):
    """(keys, noisy): rows 0..m_peel of keys and of noisy p-values; a zero
    scale draws nothing and gives the clamped p-values in both."""
    pc = np.clip(np.asarray(pvals, dtype=float), P_CLAMP, 1.0 - P_CLAMP)
    keys = np.empty((1 + m_peel, pc.size))
    noisy = np.empty_like(keys)
    for k in range(1 + m_peel):
        scale = scales.sigma0 if k == 0 else scales.sigma1
        if scale == 0.0:
            keys[k] = noisy[k] = pc
            continue
        gen = stream.child(k).generator()
        q = std_normal_quantile(pc)
        if noise_kind == "gaussian":
            keys[k] = q + gen.normal(0.0, scale, pc.size)
            row = std_normal_cdf(keys[k] / math.sqrt(1.0 + scale * scale))
        else:
            keys[k] = q + gen.laplace(0.0, scale, pc.size)
            row = normal_laplace_cdf(keys[k], scale)
        noisy[k] = np.clip(row, ENTRY_LO, ENTRY_HI)
    return keys, noisy


def dense_reversed_peel(keys, noisy):
    """(peel order, noisy row 0 at the peeled indices) of dense matrices."""
    m_peel, m = keys.shape[0] - 1, keys.shape[1]
    alive = np.ones(m, dtype=bool)
    order = np.empty(m_peel, dtype=np.intp)
    for k in range(1, m_peel + 1):
        j = int(np.argmin(np.where(alive, keys[k], np.inf)))
        order[k - 1] = j
        alive[j] = False
    return order, noisy[0, order]
