"""Reference for the forward-peeling baseline.

The literal loop of the Dwork, Su & Zhang forward peeling as first written:
each round adds a fresh Laplace row to the surviving log p-values, peels
the first minimiser, and drops it from both arrays with `np.delete`.
`suptest.peeling.forward_peel_baseline` reproduces it bit for bit with
laplace_scale = 0; with noise its rounds draw only near the bottom of the
logs, so its picks and noisy values match these in distribution, not bit
for bit. Each round allocates, so it is for test instances only.
"""

from __future__ import annotations

import numpy as np


def forward_peel_delete(log_pvals, m_peel, laplace_scale, stream):
    """(indices, noisy values) in peel order, both of length m_peel."""
    work = np.asarray(log_pvals, dtype=float).copy()
    gen = stream.generator()
    remaining = np.arange(work.size)
    picked = np.empty(m_peel, dtype=np.intp)
    values = np.empty(m_peel)
    for k in range(m_peel):
        noisy = work + gen.laplace(0.0, laplace_scale, work.size)
        pos = int(np.argmin(noisy))
        picked[k] = remaining[pos]
        values[k] = noisy[pos]
        remaining = np.delete(remaining, pos)
        work = np.delete(work, pos)
    return picked, values
