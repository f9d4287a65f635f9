"""Dense reference for reversed peeling.

Builds the whole (1 + m_peel) x m matrix of noisy p-values from the
numerics primitives, row k from stream.child(k), and peels it row by row:
round k takes the first minimiser of row k over the surviving indices.
Row 0 is the inference row. This is the literal definition the streamed
`suptest.peeling.reversed_peel` must reproduce bit for bit; it costs
8 (1 + m_peel) m bytes, so it is for small test instances only.
"""

from __future__ import annotations

import math

import numpy as np

from suptest.numerics import normal_laplace_cdf, std_normal_cdf, std_normal_quantile

P_CLAMP = 1e-15
ENTRY_LO = 1e-300
ENTRY_HI = 1.0 - 1e-16


def generate_noisy_matrix(pvals, m_peel, scales, stream, noise_kind="gaussian"):
    """Rows 0..m_peel of noisy p-values; a zero scale gives the clamped
    p-values themselves."""
    pc = np.clip(np.asarray(pvals, dtype=float), P_CLAMP, 1.0 - P_CLAMP)
    rows = np.empty((1 + m_peel, pc.size))
    for k in range(1 + m_peel):
        scale = scales.sigma0 if k == 0 else scales.sigma1
        if scale == 0.0:
            rows[k] = pc
            continue
        gen = stream.child(k).generator()
        q = std_normal_quantile(pc)
        if noise_kind == "gaussian":
            z = gen.normal(0.0, scale, pc.size)
            row = std_normal_cdf((q + z) / math.sqrt(1.0 + scale * scale))
        else:
            z = gen.laplace(0.0, scale, pc.size)
            row = normal_laplace_cdf(q + z, scale)
        rows[k] = np.clip(row, ENTRY_LO, ENTRY_HI)
    return rows


def dense_reversed_peel(rows):
    """(peel order, row 0 at the peeled indices) of a dense matrix."""
    m_peel, m = rows.shape[0] - 1, rows.shape[1]
    alive = np.ones(m, dtype=bool)
    order = np.empty(m_peel, dtype=np.intp)
    for k in range(1, m_peel + 1):
        j = int(np.argmin(np.where(alive, rows[k], np.inf)))
        order[k - 1] = j
        alive[j] = False
    return order, rows[0, order]
