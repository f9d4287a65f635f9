"""Reference for the report-noisy-min rounds of `suptest.peeling`.

`_peel_rounds`, `_tail_winner` and `_noise_cdf` as they were when every
peel began with one stable argsort of all m keys and searched the whole
sorted array each round. `suptest.peeling._peel_rounds` sorts only the
bottom of the keys and sorts the rest when a round first samples its tail;
it must draw the same values from the same generator calls and so return
the same bytes as this copy, for any keys, depth, scale and noise kind.
The head width, the inverse CDF and the noise draws come from
`suptest.peeling`, so a test that patches `TAIL_CANDIDATES` there narrows
the heads of both.
"""

from __future__ import annotations

import numpy as np

from suptest import peeling
from suptest.numerics import RandomStream, ndtr


def sorted_peel_rounds(q: np.ndarray, m_peel: int, scale: float, stream: RandomStream,
                       noise_kind: str) -> tuple:
    m = q.size
    if m_peel < 1:
        raise ValueError("m_peel must be a positive integer")
    if m_peel > m:
        raise ValueError(f"m_peel ({m_peel}) cannot exceed the number of hypotheses ({m})")
    idx = np.argsort(q, kind="stable")
    if scale == 0.0:
        order = idx[:m_peel]
        return order, q[order]
    gen = stream.generator()
    qs = q[idx]
    width = peeling._head_width(scale, m, noise_kind)
    order = np.empty(m_peel, dtype=np.intp)
    won = np.empty(m_peel)
    # round s: the survivors are qs[s:] with indices idx[s:], sorted by q;
    # qs[:s] stays nondecreasing, so qs is searched whole
    for s in range(m_peel):
        e = int(qs.searchsorted(qs[s] + width, side="right"))
        key = qs[s:e] + peeling.draw_noise(gen, scale, e - s, noise_kind)
        best = s + int(key.argmin())
        low = key[best - s]
        if e < m:
            best, low = _tail_winner(qs, e, best, low, scale, gen, noise_kind)
        order[s], won[s] = idx[best], low
        qs[s + 1:best + 1] = qs[s:best]
        idx[s + 1:best + 1] = idx[s:best]
    return order, won


def _tail_winner(qs, e, best, low, scale, gen, noise_kind) -> tuple:
    f_head = _noise_cdf(low - qs[e], scale, noise_kind)
    n = gen.binomial(qs.size - e, f_head)
    if n == 0:
        return best, low
    pos = e + np.sort(gen.choice(qs.size - e, n, replace=False))
    f = _noise_cdf(low - qs[pos], scale, noise_kind)
    kept = gen.random(n) * f_head < f
    pos, f = pos[kept], f[kept]
    if pos.size == 0:
        return best, low
    key = qs[pos] + peeling._noise_quantile((1.0 - gen.random(pos.size)) * f, scale,
                                            noise_kind)
    i = int(key.argmin())
    return (int(pos[i]), key[i]) if key[i] < low else (best, low)


def _noise_cdf(x, scale: float, noise_kind: str):
    if noise_kind == "gaussian":
        return ndtr(x / scale)
    half = 0.5 * np.exp(-np.abs(x) / scale)
    return np.where(x > 0.0, 1.0 - half, half)
