import hashlib
import math
import multiprocessing
import os
import sys
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import dense_reversed_peel, generate_noisy_matrix
from forward_oracle import forward_peel_delete
from suptest import peeling
from suptest.adaptive import AdaptiveConfig, adaptive_sup_test
from suptest.numerics import RandomStream, std_normal_cdf
from suptest.peeling import PeelOutcome, forward_peel_baseline, reversed_peel
from suptest.privacy import NoiseScales, PrivacyBudget
from suptest.thresholds import TestConfig, sup_test


class _FixedStream:
    """Stream stand-in whose child k draws on a Philox keyed (k, 0), from
    generator() and from child_keys alike; _peel_keys makes every draw
    from key (k, 0) return noise row k, so with p = 0.5 (quantile 0) the
    peeling keys are the rows themselves."""

    def __init__(self, path=()):
        self.path = path

    def child(self, index):
        return _FixedStream(self.path + (index,))

    def generator(self):
        return np.random.Generator(np.random.Philox(key=self.path[-1]))

    def child_keys(self, indices):
        k = np.asarray(indices, dtype=np.uint64)
        return np.column_stack([k, np.zeros_like(k)])


def _peel_keys(monkeypatch, rows, noise_kind="gaussian"):
    rows = np.asarray(rows, dtype=float)

    def draw(gen, scale, size, kind):
        return rows[gen.bit_generator.state["state"]["key"][0]].copy()
    monkeypatch.setattr(peeling, "draw_noise", draw)
    p = np.full(rows.shape[1], 0.5)
    return reversed_peel(p, rows.shape[0] - 1, NoiseScales(1.0, 1.0), _FixedStream(),
                         noise_kind)


def test_reversed_peel_hand_instance(monkeypatch):
    # round 1 picks index 2, round 2 then picks index 0
    rows = [
        [0.10, 0.20, 0.30, 0.40],   # inference noise
        [0.50, 0.60, 0.05, 0.70],
        [0.01, 0.02, 0.00, 0.90],   # index 2 already gone -> index 0
    ]
    out = _peel_keys(monkeypatch, rows)
    assert np.array_equal(out.peeled_indices, [2, 0])
    expect = std_normal_cdf(np.array([0.30, 0.10]) / math.sqrt(2))
    assert np.array_equal(out.inference_pvals, expect)


def test_reversed_peel_tie_breaks_to_smallest_index(monkeypatch):
    rows = [
        [0.1, 0.2, 0.3],
        [0.5, 0.5, 0.5],
        [0.7, 0.7, 0.7],
    ]
    out = _peel_keys(monkeypatch, rows)
    assert np.array_equal(out.peeled_indices, [0, 1])
    # distinct keys peel by size, also where their noisy p-values all clip
    # to 1e-300
    for keys in ([-6.0, -7.0, -8.0], [-800.0, -900.0, -1000.0]):
        for kind in ("gaussian", "laplace"):
            out = _peel_keys(monkeypatch, [[0.0, 0.0, 0.0], keys, keys], kind)
            assert np.array_equal(out.peeled_indices, [2, 1])


def test_reversed_peel_full_depth():
    p = np.random.default_rng(4).uniform(size=5)
    s = RandomStream(4)
    out = reversed_peel(p, 5, NoiseScales(0.3, 0.6), s, "laplace")
    assert sorted(out.peeled_indices.tolist()) == [0, 1, 2, 3, 4]
    # inference values come from the row-0 noise at the peeled indices,
    # which a peel with sigma1 = 0 releases for every index
    full = reversed_peel(p, 5, NoiseScales(0.3, 0.0), s, "laplace")
    row0 = np.empty(5)
    row0[full.peeled_indices] = full.inference_pvals
    assert np.array_equal(out.inference_pvals, row0[out.peeled_indices])


def test_reversed_peel_rejects_overdeep_matrix():
    p = np.random.default_rng(0).uniform(size=3)
    with pytest.raises(ValueError):
        reversed_peel(p, 4, NoiseScales(0.1, 0.2), RandomStream(0))


def test_reversed_peel_validation():
    scales = NoiseScales(0.1, 0.2)
    with pytest.raises(ValueError):
        reversed_peel(np.empty(0), 3, scales, RandomStream(0))
    with pytest.raises(ValueError):
        reversed_peel(np.array([0.5]), 0, scales, RandomStream(0))
    with pytest.raises(ValueError):
        reversed_peel(np.array([0.5]), 1, scales, RandomStream(0), "other")


# p-values with exact 0 and 1, values past the clamp, and repeats
_PVALUE = st.one_of(st.sampled_from([0.0, 1.0, 1e-300, 1e-15, 0.5, 1.0 - 1e-16]),
                    st.floats(0.0, 1.0))
_SCALE = st.sampled_from([0.0, 0.05, 1.0, 4.0, 40.0])


@st.composite
def _peel_cases(draw):
    pvals = np.array(draw(st.lists(_PVALUE, min_size=1, max_size=30)))
    m_peel = draw(st.one_of(st.just(pvals.size), st.integers(1, pvals.size)))
    scales = NoiseScales(draw(_SCALE), draw(_SCALE))
    return pvals, m_peel, scales, RandomStream(draw(st.integers(0, 2**32 - 1)))


def _assert_equals_dense_oracle(pvals, m_peel, scales, stream, noise_kind):
    out = reversed_peel(pvals, m_peel, scales, stream, noise_kind)
    keys, noisy = generate_noisy_matrix(pvals, m_peel, scales, stream, noise_kind)
    order, inference = dense_reversed_peel(keys, noisy)
    assert np.array_equal(out.peeled_indices, order)
    assert np.array_equal(out.inference_pvals, inference)
    # each round's pick has the smallest noisy p-value among the survivors
    alive = np.ones(pvals.size, dtype=bool)
    for k, j in enumerate(order, start=1):
        assert noisy[k, j] == noisy[k, alive].min()
        alive[j] = False


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
@settings(max_examples=300, deadline=None)
@given(case=_peel_cases())
def test_reversed_peel_equals_dense_oracle(noise_kind, case):
    _assert_equals_dense_oracle(*case, noise_kind)


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
@settings(max_examples=50, deadline=None)
@given(m=st.integers(2, 12), scale=st.sampled_from([0.01, 0.05, 0.2]),
       seed=st.integers(0, 2**32 - 1))
def test_reversed_peel_ties_near_one_equal_dense_oracle(noise_kind, m, scale, seed):
    # every p-value at 1 with little noise: the keys sit where the CDF is
    # within a few ulps of 1, so distinct keys often share a noisy p-value,
    # and the rounds still peel by key
    _assert_equals_dense_oracle(np.ones(m), m, NoiseScales(scale, scale), RandomStream(seed),
                                noise_kind)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
def test_reversed_peel_builds_one_stream_generator(monkeypatch, noise_kind, threads):
    # the m_peel noise rows are keyed from one batch of keys; only the
    # inference row builds a generator from its stream
    monkeypatch.setattr(peeling, "_draw_threads", lambda m: threads)
    built = []
    generator = RandomStream.generator

    def counting_generator(stream):
        built.append(stream.path)
        return generator(stream)
    monkeypatch.setattr(RandomStream, "generator", counting_generator)
    p = np.random.default_rng(15).uniform(size=500)
    out = reversed_peel(p, 50, NoiseScales(0.3, 0.6), RandomStream(6), noise_kind)
    assert out.peeled_indices.size == 50
    assert built == [(0,)]


def test_forward_peel_zero_noise_is_sorted_order():
    logs = np.log(np.array([0.5, 0.01, 0.2, 0.09]))
    picked, values = forward_peel_baseline(logs, 4, 0.0, RandomStream(0))
    assert np.array_equal(picked, [1, 3, 2, 0])
    assert np.allclose(values, np.sort(logs))


def test_forward_peel_deterministic():
    logs = np.log(np.random.default_rng(2).uniform(size=50))
    a = forward_peel_baseline(logs, 10, 0.5, RandomStream(3))
    b = forward_peel_baseline(logs, 10, 0.5, RandomStream(3))
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_forward_peel_picks_are_distinct():
    logs = np.log(np.random.default_rng(7).uniform(size=30))
    picked, _ = forward_peel_baseline(logs, 30, 2.0, RandomStream(1))
    assert len(set(picked.tolist())) == 30


@st.composite
def _forward_cases(draw):
    """Log p-values with repeats (ties), a depth that is often 1 or m, a
    scale that is often 0, and a stream seed."""
    m = draw(st.integers(1, 40))
    pool = draw(st.lists(st.floats(-40.0, 0.0), min_size=1, max_size=6))
    logs = draw(st.lists(st.sampled_from(pool), min_size=m, max_size=m))
    m_peel = draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)))
    scale = draw(st.sampled_from([0.0, 1e-3, 0.5, 4.0]))
    return np.array(logs), m_peel, scale, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(_forward_cases())
def test_forward_peel_equals_delete_reference(case):
    logs, m_peel, scale, seed = case
    got = forward_peel_baseline(logs, m_peel, scale, RandomStream(seed))
    want = forward_peel_delete(logs, m_peel, scale, RandomStream(seed))
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


def test_forward_peel_zero_noise_ties_go_to_smallest_index():
    logs = np.log(np.array([0.3, 0.1, 0.3, 0.1, 0.2]))
    picked, _ = forward_peel_baseline(logs, 5, 0.0, RandomStream(0))
    assert np.array_equal(picked, [1, 3, 4, 0, 2])


def test_forward_peel_validation():
    logs = np.array([-1.0, -2.0])
    with pytest.raises(ValueError):
        forward_peel_baseline(logs, 3, 0.5, RandomStream(0))
    with pytest.raises(ValueError):
        forward_peel_baseline(logs, 1, -0.5, RandomStream(0))


def test_peel_outcome_is_plain_record():
    out = PeelOutcome(np.array([1]), np.array([0.5]))
    assert out.peeled_indices[0] == 1
    assert out.inference_pvals[0] == 0.5


# ---------------------------------------------------------------- draw threads

# above the size where the rows are drawn on threads
_M_THREADED = peeling.THREADED_MIN_M + 2_000


def _digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _same_for_any_thread_count(monkeypatch, run):
    # 1 is the serial loop; 2 and 4 draw on a pool even on a one-core host;
    # None leaves the count at its derived value
    derived = peeling._draw_threads
    digests = {}
    for threads in (1, 2, 4, None):
        monkeypatch.setattr(peeling, "_draw_threads",
                            derived if threads is None else lambda m, t=threads: t)
        digests[threads] = run()
    assert len(set(digests.values())) == 1, digests


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
def test_reversed_peel_same_bytes_for_any_thread_count(monkeypatch, noise_kind):
    p = np.random.default_rng(8).uniform(size=_M_THREADED)
    p[:50] *= 1e-6

    def run():
        out = reversed_peel(p, 60, NoiseScales(0.3, 0.6), RandomStream(5), noise_kind)
        return _digest(out.peeled_indices, out.inference_pvals)
    _same_for_any_thread_count(monkeypatch, run)


def test_reversed_peel_all_p_one_same_bytes_for_any_thread_count(monkeypatch):
    # all p = 1 with tiny noise: the noisy p-values tie within ulps of 1
    p, scales = np.ones(_M_THREADED), NoiseScales(0.01, 0.01)

    def run():
        out = reversed_peel(p, 12, scales, RandomStream(9), "gaussian")
        return _digest(out.peeled_indices, out.inference_pvals)
    _same_for_any_thread_count(monkeypatch, run)


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
def test_sup_test_same_bytes_for_any_thread_count(monkeypatch, noise_kind):
    p = np.random.default_rng(10).uniform(size=_M_THREADED)
    p[:100] *= 1e-7
    cfg = TestConfig(family="bh", budget=PrivacyBudget.approx_dp(0.5, 1e-3), m_peel=80,
                     noise_kind=noise_kind)

    def run():
        res = sup_test(p, cfg, RandomStream(11))
        return _digest(res.peeled.peeled_indices, res.peeled.inference_pvals,
                       res.rejected_indices)
    _same_for_any_thread_count(monkeypatch, run)


def test_adaptive_sup_test_same_bytes_for_any_thread_count(monkeypatch):
    p = np.random.default_rng(12).uniform(size=_M_THREADED)
    p[:100] *= 1e-7
    cfg = TestConfig(family="bh", budget=PrivacyBudget.approx_dp(0.5, 1e-3))

    def run():
        res = adaptive_sup_test(p, cfg, AdaptiveConfig(m_tilde=40), RandomStream(13))
        return _digest(res.peeled.peeled_indices, res.peeled.inference_pvals,
                       res.rejected_indices, np.array([res.m_peel]))
    _same_for_any_thread_count(monkeypatch, run)


def test_draw_threads_rule(monkeypatch):
    # reads the affinity mask and the multiprocessing state; starts nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    big = peeling.THREADED_MIN_M
    assert peeling._draw_threads(big - 1) == 1
    assert peeling._draw_threads(big) == peeling.MAX_DRAW_THREADS == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert peeling._draw_threads(big) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3})
    assert peeling._draw_threads(big) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    # inside a multiprocessing child, such as a run_replications worker
    monkeypatch.setattr(multiprocessing, "parent_process", lambda: SimpleNamespace())
    assert peeling._draw_threads(big) == 1
    # a process that never imported multiprocessing is not its child
    monkeypatch.delitem(sys.modules, "multiprocessing")
    assert peeling._draw_threads(big) == 2


def test_threaded_release_leaves_no_thread_behind(monkeypatch):
    monkeypatch.setattr(peeling, "_draw_threads", lambda m: 2)
    p = np.random.default_rng(14).uniform(size=_M_THREADED)
    before = threading.active_count()
    reversed_peel(p, 30, NoiseScales(0.3, 0.6), RandomStream(1))
    assert threading.active_count() == before
    draw = peeling.draw_noise
    failing_key = RandomStream(1).child_keys([7])[0]

    def failing_draw(gen, scale, size, noise_kind):
        if np.array_equal(gen.bit_generator.state["state"]["key"], failing_key):
            raise RuntimeError("draw failed")
        return draw(gen, scale, size, noise_kind)
    monkeypatch.setattr(peeling, "draw_noise", failing_draw)
    with pytest.raises(RuntimeError, match="draw failed"):
        reversed_peel(p, 30, NoiseScales(0.3, 0.6), RandomStream(1))
    assert threading.active_count() == before
