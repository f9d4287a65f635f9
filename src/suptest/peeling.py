"""Reversed peeling and the forward-peeling baseline.

Reversed peeling releases the inference values of m_peel hypotheses. Each
of its m_peel rounds is report-noisy-min over the survivors: the survivor
with the smallest key Phi^-1(p) + z, z fresh noise of scale sigma1, is
peeled. The noisy p-value is nondecreasing in the key (see transform.py),
so this is the survivor with the smallest noisy p-value. The inference
row, drawn from stream.child(0), is transformed at the m_peel peeled
indices only.

A round only needs the argmin of the keys, and only survivors whose
quantile lies near the bottom can plausibly win, so a round draws noise
for those alone and samples exactly whether any other survivor beats
them (see _peel_rounds). On 50,000 p-values a round draws tens to a few
hundred noise values instead of 50,000, all from one generator on
stream.child(1); memory is O(m). How much a round draws depends on the
quantiles near the bottom of the keys; the peel order's law does not.
Around its two generator calls, the head's noise and the tail's binomial
count, a round does little: list reads of its scalars, a forward pointer
for the head's end, one array add, an argmin and the noise CDF.

The forward baseline of the log-scale comparators runs the same rounds
with Laplace noise on log p-values, and keeps each round's winning key.
Both call _peel_rounds at every scale, which checks the depth, sorts the
bottom of the keys (all m if m_peel = m) and the rest only if a round's
tail sample needs them, and at scale 0 draws nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import RandomStream, ndtr, ndtri
from .privacy import NoiseScales
from .transform import NOISE_KINDS, clamp_pvalues, draw_noise, key_to_noisy_p

__all__ = ["PeelOutcome", "reversed_peel", "forward_peel_baseline"]

# A round's head is made wide enough that the expected number of tail
# survivors that beat it is at most this (see _head_width). Any width gives
# the same distribution; this one sets how rarely the tail is sampled.
TAIL_CANDIDATES = 1e-3


@dataclass(frozen=True)
class PeelOutcome:
    """Peeled indices in peel order plus their inference-row values.

    inference_pvals[k] is the inference row at index peeled_indices[k];
    the order is the peel order, not sorted.
    """

    peeled_indices: np.ndarray
    inference_pvals: np.ndarray


def reversed_peel(
    pvals,
    m_peel: int,
    scales: NoiseScales,
    stream: RandomStream,
    noise_kind: str = "gaussian",
) -> PeelOutcome:
    """Peel m_peel hypotheses and release their inference values.

    The rounds draw their noise from stream.child(1) at scale
    scales.sigma1, and the inference row is drawn from stream.child(0) at
    scales.sigma0. A zero scale draws nothing and uses the clamped
    p-values themselves, so with sigma1 = 0 the peel order is the stable
    sort order of the p-values.

    Args:
        pvals: raw p-values, nonempty.
        m_peel: number of peeling rounds, in [1, len(pvals)].
        scales: noise scales from the privacy calibration.
        stream: root stream of this release.
        noise_kind: "gaussian" or "laplace".
    """
    pc = clamp_pvalues(pvals)
    if noise_kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    q = None if scales.sigma0 == scales.sigma1 == 0.0 else ndtri(pc)  # pc lies in (0, 1)
    keys = pc if scales.sigma1 == 0.0 else q
    order = _peel_rounds(keys, m_peel, scales.sigma1, stream.child(1), noise_kind)[0]
    if scales.sigma0 == 0.0:
        return PeelOutcome(order, pc[order])
    z = draw_noise(stream.child(0).generator(), scales.sigma0, pc.size, noise_kind)
    return PeelOutcome(order, key_to_noisy_p(q[order] + z[order], scales.sigma0, noise_kind))


def _peel_rounds(q: np.ndarray, m_peel: int, scale: float, stream: RandomStream,
                 noise_kind: str) -> tuple:
    """(order, won) of m_peel rounds of report-noisy-min, m_peel in
    [1, q.size]: each round peels the survivor j with the smallest key
    q_j + z_j, z fresh i.i.d. noise of the given kind and scale with CDF F,
    drawn from one generator on stream. Equal keys go to the survivor first
    in (q, index) order, so among equal p-values with equal noise to the
    smallest index. At scale 0 nothing is drawn: order is the first m_peel
    of the stable sort order of q and won their values.

    The survivors are kept sorted by q, with their indices; peeling one
    moves the survivors in front of it up one place. A round draws z for
    its head only, the survivors with q_j <= q_first + w (w from
    _head_width), and lets M be the smallest head key. Each of the n tail
    survivors, the rest, beats M exactly when z_j < M - q_j, which happens
    independently with probability F(M - q_j) <= F(M - q_h), q_h the
    smallest tail q. So the round draws N ~ Binomial(n, F(M - q_h)), picks
    N tail survivors uniformly without replacement, and keeps each picked j
    with probability F(M - q_j) / F(M - q_h): every tail j is then kept
    independently with probability exactly F(M - q_j). A kept j draws z_j
    from F conditioned on z_j < M - q_j, by inverse CDF, which is exactly
    its law given that it beats M. A tail survivor that is not kept has
    z_j >= M - q_j, so its key is at least M and it cannot be the argmin.
    The round's winner, the argmin over the head and the kept survivors,
    therefore has exactly the distribution of the argmin over a full row
    of noise, for any w, and so has the peel order and with it the privacy
    guarantee of report-noisy-min. won[s], the key of order[s], is round
    s's smallest key, and (winner, winning key) has the eager joint law
    too: the head keys are exact draws, the kept tail keys exact
    conditional draws, and a survivor not kept has a key of at least M,
    so it is neither the argmin nor the minimum.

    Only the bottom of q is sorted up front (_sorted_bottom): every key up
    to the first above q_(m_peel) + w. Round s's first survivor is at most
    q_(s+1) <= q_(m_peel), so its head and smallest tail key lie in this
    block. The rest is sorted when a binomial count is first positive, before
    gen.choice maps tail positions to survivors; until then every winner is
    in the head and no key moves past the block, so every generator call
    gets the values it gets after a full sort of q.

    Round s's head ends at e, the first position whose key exceeds
    qs[s] + w, and e only moves forward. The bound qs[s] + w never
    decreases: the next round's first key is qs[s] or qs[s + 1]. A peel
    only rewrites positions s + 1 to best, each with the key one place
    before it, which is no larger. So every position below e still holds a
    key within the next round's bound, and that round's end lies at or
    after e. Until _sort_rest the block's last key exceeds every bound; it
    appends keys larger than the block's, and e moves on over them. The
    scalars a round reads (qs[s], qs[e], its winner and its key) come from
    the list copies qsl and idxl, shifted with qs; the array qs serves the
    head's slice and the tail sample.
    """
    m = q.size
    if m_peel < 1:
        raise ValueError("m_peel must be a positive integer")
    if m_peel > m:
        raise ValueError(f"m_peel ({m_peel}) cannot exceed the number of hypotheses ({m})")
    width = 0.0 if scale == 0.0 else _head_width(scale, m, noise_kind)
    idx, block = _sorted_bottom(q, m_peel, width)
    if scale == 0.0:
        order = idx[:m_peel]
        return order, q[order]
    gen = stream.generator()
    draw, binomial = draw_noise, gen.binomial
    qs = q[idx]
    qsl, idxl = qs.tolist(), idx.tolist()
    order, won = [], []
    e = 0
    for s in range(m_peel):
        bound = qsl[s] + width
        while e < m and qsl[e] <= bound:
            e += 1
        key = draw(gen, scale, e - s, noise_kind)
        key += qs[s:e]
        best = int(key.argmin())
        low = key.item(best)
        best += s
        if e < m:
            f_head = _noise_cdf(low - qsl[e], scale, noise_kind)
            n = binomial(m - e, f_head)
            if n and block is not None:
                rest = _sort_rest(q, block)
                qs = np.concatenate((qs, q[rest]))
                qsl += q[rest].tolist()
                idxl += rest.tolist()
                block = None
            best, low = _tail_winner(qs, e, best, low, f_head, n, scale, gen, noise_kind)
        order.append(idxl[best])
        won.append(low)
        if best > s:
            qs[s + 1:best + 1] = qs[s:best]
            qsl[s + 1:best + 1] = qsl[s:best]
            idxl[s + 1:best + 1] = idxl[s:best]
    return np.array(order, dtype=np.intp), np.array(won)


def _sorted_bottom(q: np.ndarray, m_peel: int, width: float) -> tuple:
    """(idx, block): idx the block in stable (q, index) order, the start of
    the full stable sort order; block, every key up to the first one above
    q_(m_peel) + width and all its ties, as a mask, or None when it is all
    of q."""
    if m_peel < q.size:
        above = q[q > np.partition(q, m_peel - 1)[m_peel - 1] + width]
        if above.size:
            block = q <= above.min()
            idx = np.flatnonzero(block)
            return idx[np.argsort(q[idx], kind="stable")], block
    return np.argsort(q, kind="stable"), None


def _sort_rest(q: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The indices of the keys outside the block in stable (q, index) order."""
    rest = np.flatnonzero(~block)
    return rest[np.argsort(q[rest], kind="stable")]


def _tail_winner(qs, e, best, low, f_head, n, scale, gen, noise_kind) -> tuple:
    """(position, key), an int and a float, of the round's winner given the
    head's winner best with key low: n ~ Binomial(qs.size - e, f_head) tail
    survivors are sampled as _peel_rounds describes; the smallest key wins,
    the first among ties."""
    if n == 0:
        return best, low
    pos = e + np.sort(gen.choice(qs.size - e, n, replace=False))
    f = _noise_cdf(low - qs[pos], scale, noise_kind)
    kept = gen.random(n) * f_head < f
    pos, f = pos[kept], f[kept]
    if pos.size == 0:
        return best, low
    key = qs[pos] + _noise_quantile((1.0 - gen.random(pos.size)) * f, scale, noise_kind)
    i = key.argmin()
    return (int(pos[i]), key[i].item()) if key[i] < low else (best, low)


def _head_width(scale: float, m: int, noise_kind: str) -> float:
    """Width w of a round's head over m survivors: P(z - z' >= w) =
    TAIL_CANDIDATES / m for independent noise values z, z'. The smallest
    head key is at most q_first + z_first, so the expected number of tail
    survivors that beat it is at most m P(z_first - z_j >= w) =
    TAIL_CANDIDATES."""
    tail = TAIL_CANDIDATES / m
    if tail >= 0.5:
        return 0.0
    if noise_kind == "gaussian":
        # z - z' is normal with standard deviation sqrt(2) scale
        return -math.sqrt(2.0) * scale * float(ndtri(tail))
    # z - z' of Laplace noise has P(z - z' >= b x) = exp(-x) (1 + x/2) / 2;
    # the fixed point x = log((1 + x/2) / (2 tail)) is a contraction
    x = -math.log(2.0 * tail)
    for _ in range(4):
        x = math.log((1.0 + 0.5 * x) / (2.0 * tail))
    return scale * x


def _noise_cdf(x, scale: float, noise_kind: str):
    """CDF of the noise at x, a float for a scalar x."""
    if noise_kind == "gaussian":
        return ndtr(x / scale)
    # np.exp for a float too: math.exp can differ from it in the last bit,
    # and _tail_winner keeps a tail survivor by comparing this function's
    # array values with the float f_head of the smallest tail key
    half = 0.5 * np.exp(-abs(x) / scale)
    if isinstance(x, np.ndarray):
        return np.where(x > 0.0, 1.0 - half, half)
    return 1.0 - half if x > 0.0 else half


def _noise_quantile(u: np.ndarray, scale: float, noise_kind: str) -> np.ndarray:
    """Inverse of _noise_cdf at u in (0, 1)."""
    if noise_kind == "gaussian":
        return scale * ndtri(u)
    # log(2u) below 1/2 and -log(2 - 2u) above, each without cancellation
    low = np.log(2.0 * np.minimum(u, 1.0 - u))
    return scale * np.where(u <= 0.5, low, -low)


def forward_peel_baseline(
    log_pvals,
    m_peel: int,
    laplace_scale: float,
    stream: RandomStream,
) -> tuple:
    """Forward peeling on the log scale with fresh noise every round.

    Each round is report-noisy-min with i.i.d. Laplace(laplace_scale)
    noise on the surviving logs, drawn by _peel_rounds from
    stream.generator(), and records the winner's noisy value. With
    laplace_scale = 0 the order is the stable sort order of the logs.
    m_peel must lie in [1, len(log_pvals)].

    Returns:
        (indices, noisy_values): both length m_peel, in peel order.
    """
    if not 0.0 <= laplace_scale < math.inf:
        raise ValueError("laplace_scale must be finite and nonnegative")
    return _peel_rounds(np.asarray(log_pvals, dtype=float), m_peel, laplace_scale, stream,
                        "laplace")
