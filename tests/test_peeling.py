import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dense_oracle import dense_reversed_peel, generate_noisy_matrix
from forward_oracle import forward_peel_delete
from suptest.numerics import RandomStream, std_normal_cdf
from suptest.peeling import PeelOutcome, forward_peel_baseline, reversed_peel
from suptest.privacy import NoiseScales
from suptest.transform import noisy_row


class _FixedStream:
    """Stream stand-in: every draw from child k returns noise row k, so with
    p = 0.5 (quantile 0) the peeling keys are the rows themselves."""

    def __init__(self, rows, path=()):
        self.rows, self.path = np.asarray(rows, dtype=float), path

    def child(self, index):
        return _FixedStream(self.rows, self.path + (index,))

    def generator(self):
        row = self.rows[self.path[-1]]

        def draw(loc, scale, size):
            return row.copy()
        return SimpleNamespace(normal=draw, laplace=draw)


def _peel_keys(rows, noise_kind="gaussian"):
    rows = np.asarray(rows, dtype=float)
    p = np.full(rows.shape[1], 0.5)
    return reversed_peel(p, rows.shape[0] - 1, NoiseScales(1.0, 1.0),
                         _FixedStream(rows), noise_kind)


def test_reversed_peel_hand_instance():
    # round 1 picks index 2, round 2 then picks index 0
    rows = [
        [0.10, 0.20, 0.30, 0.40],   # inference noise
        [0.50, 0.60, 0.05, 0.70],
        [0.01, 0.02, 0.00, 0.90],   # index 2 already gone -> index 0
    ]
    out = _peel_keys(rows)
    assert np.array_equal(out.peeled_indices, [2, 0])
    expect = std_normal_cdf(np.array([0.30, 0.10]) / math.sqrt(2))
    assert np.array_equal(out.inference_pvals, expect)


def test_reversed_peel_tie_breaks_to_smallest_index():
    rows = [
        [0.1, 0.2, 0.3],
        [0.5, 0.5, 0.5],
        [0.7, 0.7, 0.7],
    ]
    out = _peel_keys(rows)
    assert np.array_equal(out.peeled_indices, [0, 1])
    # distinct keys whose noisy p-values all clip to 1e-300 tie as well:
    # the smallest index wins, not the smallest key
    saturated = [[0.0, 0.0, 0.0], [-800.0, -900.0, -1000.0], [-800.0, -900.0, -1000.0]]
    for kind in ("gaussian", "laplace"):
        assert np.array_equal(_peel_keys(saturated, kind).peeled_indices, [0, 1])
    # the same keys peel by size once they no longer saturate
    assert np.array_equal(_peel_keys([[0, 0, 0], [-6, -7, -8], [-6, -7, -8]]).peeled_indices,
                          [2, 1])


def test_reversed_peel_full_depth():
    p = np.random.default_rng(4).uniform(size=5)
    s = RandomStream(4)
    out = reversed_peel(p, 5, NoiseScales(0.3, 0.6), s, "laplace")
    assert sorted(out.peeled_indices.tolist()) == [0, 1, 2, 3, 4]
    # inference values come from the row-0 noise at the peeled indices
    row0 = noisy_row(p, 0.3, s.child(0), "laplace")
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


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
@settings(max_examples=300, deadline=None)
@given(case=_peel_cases())
def test_reversed_peel_equals_dense_oracle(noise_kind, case):
    pvals, m_peel, scales, stream = case
    out = reversed_peel(pvals, m_peel, scales, stream, noise_kind)
    order, inference = dense_reversed_peel(
        generate_noisy_matrix(pvals, m_peel, scales, stream, noise_kind))
    assert np.array_equal(out.peeled_indices, order)
    assert np.array_equal(out.inference_pvals, inference)


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
@settings(max_examples=50, deadline=None)
@given(m=st.integers(2, 12), scale=st.sampled_from([0.01, 0.05, 0.2]),
       seed=st.integers(0, 2**32 - 1))
def test_reversed_peel_ties_near_one_equal_dense_oracle(noise_kind, m, scale, seed):
    # every p-value at 1 with little noise: the keys sit where the CDF is
    # within a few ulps of 1, so distinct keys often share a noisy p-value
    # and the tie rule decides the round
    pvals, scales, stream = np.ones(m), NoiseScales(scale, scale), RandomStream(seed)
    out = reversed_peel(pvals, m, scales, stream, noise_kind)
    order, inference = dense_reversed_peel(
        generate_noisy_matrix(pvals, m, scales, stream, noise_kind))
    assert np.array_equal(out.peeled_indices, order)
    assert np.array_equal(out.inference_pvals, inference)


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
