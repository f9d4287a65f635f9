"""Reversed peeling and the forward-peeling baseline.

Reversed peeling releases the inference values of m_peel hypotheses. In
peeling round k (k = 1..m_peel) a fresh noise row is drawn from
stream.child(k), and the surviving index with the smallest noisy p-value
is peeled. The inference row, drawn from stream.child(0), is only ever
read at the peeled indices.

No (1 + m_peel) x m matrix is built. The noisy p-value is nondecreasing
in the key Phi^-1(p) + z (see transform.py), so each round peels the first
argmin of the key over the survivors, which is report-noisy-min, and
drops the row; ties go to the smallest index among equal keys. The
inference row is transformed at the m_peel peeled indices only. Memory is
O(m) and each round costs one noise draw plus two passes over the keys
(add, argmin).

Who draws the rows: a noise row costs only its draws. The Philox keys of
all the rows of a peel are hashed in one RandomStream.child_keys call, and
each row is drawn from a generator keyed with its key, which gives the
same bytes as stream.child(k).generator(); no row builds its own
SeedSequence. In the round loop one generator is re-keyed before each
row, to a zero counter and an empty buffer. The rows do not depend on the
peel, and draws are about 90% of a large one, so for m >= THREADED_MIN_M
(10,000) a thread pool draws the upcoming rows in round order while the
rounds consume them, each row on a new generator built from its key, as
threads cannot share one. The pool has one thread per usable core, at
most MAX_DRAW_THREADS (4), and draws as many rows ahead as it has
threads, so memory stays O(m); numpy releases the GIL while it fills a
row. Shorter rows, a process with one usable core (`taskset -c 0`) and a
multiprocessing child, such as a run_replications worker whose siblings
already use the cores, draw the rows in the round loop. Every row is
drawn from the start of its own stream, so the release is the same bytes
for any number of cores. The pool is shut down before reversed_peel
returns or raises.

The forward baseline instead adds fresh noise each round, as the classic
private BH pipeline does.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .numerics import RandomStream, rekeyed, std_normal_quantile, usable_cores
from .privacy import NoiseScales
from .transform import NOISE_KINDS, clamp_pvalues, draw_noise, key_to_noisy_p

__all__ = ["PeelOutcome", "reversed_peel", "forward_peel_baseline"]

# Rows of at least this many values are drawn on worker threads (see
# _draw_threads). On 2 cores, threads were slower than the round loop for
# Gaussian rows up to about 8,000 values and faster from 10,000.
THREADED_MIN_M = 10_000
# at most this many threads draw, and at most this many rows are drawn ahead
MAX_DRAW_THREADS = 4


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

    Round k draws its noise from stream.child(k) at scale scales.sigma1
    and the inference row from stream.child(0) at scales.sigma0. A zero
    scale draws nothing and uses the clamped p-values themselves, so with
    sigma1 = 0 the peel order is the stable sort order of the p-values.

    Args:
        pvals: raw p-values, nonempty.
        m_peel: number of peeling rounds, in [1, len(pvals)].
        scales: noise scales from the privacy calibration.
        stream: root stream of this release.
        noise_kind: "gaussian" or "laplace".
    """
    pc = clamp_pvalues(pvals)
    if m_peel < 1:
        raise ValueError("m_peel must be a positive integer")
    if m_peel > pc.size:
        raise ValueError("m_peel cannot exceed the number of hypotheses")
    if noise_kind not in NOISE_KINDS:
        raise ValueError(f"unknown noise kind {noise_kind!r}")
    q = None if scales.sigma0 == scales.sigma1 == 0.0 else std_normal_quantile(pc)
    if scales.sigma1 == 0.0:
        order = np.argsort(pc, kind="stable")[:m_peel]
    else:
        order = _peel_rounds(q, m_peel, scales.sigma1, stream, noise_kind)
    if scales.sigma0 == 0.0:
        return PeelOutcome(order, pc[order])
    z = draw_noise(stream.child(0).generator(), scales.sigma0, pc.size, noise_kind)
    return PeelOutcome(order, key_to_noisy_p(q[order] + z[order], scales.sigma0, noise_kind))


def _peel_rounds(q: np.ndarray, m_peel: int, scale: float, stream: RandomStream,
                 noise_kind: str) -> np.ndarray:
    """Peel order of rounds 1..m_peel, round k taking the first argmin over
    the survivors of q plus a fresh row of noise from stream.child(k)."""
    order = np.empty(m_peel, dtype=np.intp)
    # q with the peeled entries at +inf; each row is added into it in place
    q_alive = q.copy()
    with _noise_rows(stream, scale, q.size, noise_kind, m_peel) as rows:
        for k, key in enumerate(rows):
            np.add(q_alive, key, out=key)
            order[k] = j = np.argmin(key)
            q_alive[j] = np.inf
    return order


def _draw_threads(m: int) -> int:
    """Threads that draw the noise rows of a peel over m values: 1 below
    THREADED_MIN_M and inside a multiprocessing child, whose parent
    already keeps the cores busy, else the usable cores, at most
    MAX_DRAW_THREADS. A process that never imported multiprocessing is no
    child of it, so the check imports nothing."""
    if m < THREADED_MIN_M:
        return 1
    mp = sys.modules.get("multiprocessing")
    if mp is not None and mp.parent_process() is not None:
        return 1
    return min(usable_cores(), MAX_DRAW_THREADS)


@contextmanager
def _noise_rows(stream: RandomStream, scale: float, m: int, noise_kind: str, rounds: int):
    """Yields the noise rows of rounds 1..rounds in order, round k's row
    drawn from the start of stream.child(k), each a new array. The rows'
    keys are hashed in one call. In one thread, one generator is re-keyed
    before each row. With more than one draw thread, the upcoming rows are
    drawn on a thread pool, each on a new generator, as many ahead as
    there are threads; numpy releases the GIL while it fills a row. The
    pool is shut down when the block exits, also on an exception."""
    keys = stream.child_keys(np.arange(1, rounds + 1))
    threads = _draw_threads(m)
    if threads == 1:
        gen = np.random.Generator(np.random.Philox(key=0))
        yield (draw_noise(rekeyed(gen, key), scale, m, noise_kind) for key in keys)
        return
    from concurrent.futures import ThreadPoolExecutor

    def draw(key):
        return draw_noise(np.random.Generator(np.random.Philox(key=key)), scale, m, noise_kind)

    pool = ThreadPoolExecutor(threads)
    try:
        yield _drawn_ahead(pool, draw, iter(keys), threads)
    finally:
        pool.shutdown(cancel_futures=True)


def _drawn_ahead(pool, draw, items, depth: int):
    """draw(x) for each x of items, in order, computed on pool at most
    depth ahead of the one yielded."""
    pending = deque(pool.submit(draw, x) for x in islice(items, depth))
    while pending:
        row = pending.popleft().result()
        pending.extend(pool.submit(draw, x) for x in islice(items, 1))
        yield row


def forward_peel_baseline(
    log_pvals,
    m_peel: int,
    laplace_scale: float,
    stream: RandomStream,
) -> tuple:
    """Forward peeling on the log scale with fresh noise every round.

    Each round adds i.i.d. Laplace(laplace_scale) noise to the logs of the
    surviving p-values, peels the minimizer (ties toward the smallest
    index), and records its noisy value.

    Returns:
        (indices, noisy_values): both length m_peel, in peel order.
    """
    if not 0.0 <= laplace_scale < math.inf:
        raise ValueError("laplace_scale must be finite and nonnegative")
    work = np.asarray(log_pvals, dtype=float).copy()
    m = work.size
    if m_peel < 1:
        raise ValueError("m_peel must be a positive integer")
    if m_peel > m:
        raise ValueError("m_peel cannot exceed the number of hypotheses")
    gen = stream.generator()
    remaining = np.arange(m)
    picked = np.empty(m_peel, dtype=np.intp)
    values = np.empty(m_peel)
    noisy = np.empty(m)
    # the survivors stay in index order in work[:n] and remaining[:n]; a
    # peeled entry is dropped by shifting the tail after it down by one
    for n in range(m, m - m_peel, -1):
        row = np.add(work[:n], gen.laplace(0.0, laplace_scale, n), out=noisy[:n])
        pos = int(np.argmin(row))
        picked[m - n] = remaining[pos]
        values[m - n] = row[pos]
        work[pos:n - 1] = work[pos + 1:n]
        remaining[pos:n - 1] = remaining[pos + 1:n]
    return picked, values
