import hashlib
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import chdtrc

from dense_oracle import dense_reversed_peel, generate_noisy_matrix
from forward_oracle import forward_peel_delete
from sorted_peel_oracle import sorted_peel_rounds
from suptest import peeling
from suptest.adaptive import AdaptiveConfig, adaptive_sup_test
from suptest.baselines import DworkParams, dp_test
from suptest.numerics import RandomStream, std_normal_cdf, std_normal_quantile
from suptest.peeling import PeelOutcome, forward_peel_baseline, reversed_peel
from suptest.privacy import NoiseScales, PrivacyBudget
from suptest.thresholds import TestConfig, sup_test


def _peel_keys(monkeypatch, inference, rounds, noise_kind="gaussian"):
    """reversed_peel of p = 0.5 everywhere, whose quantiles are all 0, with
    the noise stubbed: round k's draw returns rounds[k], its keys over the
    survivors in index order, and the inference row returns inference."""
    rows = [np.asarray(r, dtype=float) for r in [*rounds, inference]]

    def draw(gen, scale, size, kind):
        row = rows.pop(0)
        assert row.size == size
        return row.copy()
    monkeypatch.setattr(peeling, "draw_noise", draw)
    p = np.full(len(inference), 0.5)
    return reversed_peel(p, len(rounds), NoiseScales(1.0, 1.0), RandomStream(0), noise_kind)


def test_reversed_peel_hand_instance(monkeypatch):
    # round 1 picks index 2, round 2 then picks index 0 of survivors 0, 1, 3
    out = _peel_keys(monkeypatch, inference=[0.10, 0.20, 0.30, 0.40],
                     rounds=[[0.50, 0.60, 0.05, 0.70], [0.01, 0.02, 0.90]])
    assert np.array_equal(out.peeled_indices, [2, 0])
    expect = std_normal_cdf(np.array([0.30, 0.10]) / math.sqrt(2))
    assert np.array_equal(out.inference_pvals, expect)


def test_reversed_peel_tie_breaks_to_smallest_index(monkeypatch):
    out = _peel_keys(monkeypatch, [0.1, 0.2, 0.3], [[0.5, 0.5, 0.5], [0.7, 0.7]])
    assert np.array_equal(out.peeled_indices, [0, 1])
    # distinct keys peel by size, also where their noisy p-values all clip
    # to 1e-300
    for keys in ([-6.0, -7.0, -8.0], [-800.0, -900.0, -1000.0]):
        for kind in ("gaussian", "laplace"):
            out = _peel_keys(monkeypatch, [0.0, 0.0, 0.0], [keys, keys[:2]], kind)
            assert np.array_equal(out.peeled_indices, [2, 1])
    # with zero noise the keys are the quantiles: equal p-values peel in
    # index order, and every survivor lies in the head
    monkeypatch.setattr(peeling, "draw_noise", lambda gen, scale, size, kind: np.zeros(size))
    p = np.array([0.3, 0.1, 0.3, 0.1, 0.5])
    out = reversed_peel(p, 5, NoiseScales(0.0, 1.0), RandomStream(0))
    assert np.array_equal(out.peeled_indices, [1, 3, 0, 2, 4])


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
    with pytest.raises(ValueError, match=r"^m_peel \(4\) cannot exceed the number of "
                                         r"hypotheses \(3\)$"):
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
    """The peel releases the dense oracle's inference row at the indices it
    peels, and with sigma1 = 0 it peels the oracle's order. With noise the
    order matches the oracle's in distribution only; see
    test_reversed_peel_first_picks_match_dense_oracle."""
    out = reversed_peel(pvals, m_peel, scales, stream, noise_kind)
    keys, noisy = generate_noisy_matrix(pvals, m_peel, scales, stream, noise_kind)
    order, _ = dense_reversed_peel(keys, noisy)
    if scales.sigma1 == 0.0:
        assert np.array_equal(out.peeled_indices, order)
    assert np.unique(out.peeled_indices).size == m_peel
    assert np.array_equal(out.inference_pvals, noisy[0, out.peeled_indices])
    return out


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
    # and the rounds still peel by key. The quantiles are all equal, so
    # every survivor is in the head: round k draws the keys of the
    # survivors, in index order, from the rounds' one generator.
    stream = RandomStream(seed)
    out = _assert_equals_dense_oracle(np.ones(m), m, NoiseScales(scale, scale), stream,
                                      noise_kind)
    q = std_normal_quantile(peeling.clamp_pvalues(1.0))
    gen = stream.child(1).generator()
    alive, order = list(range(m)), []
    while alive:
        key = q + peeling.draw_noise(gen, scale, len(alive), noise_kind)
        order.append(alive.pop(int(np.argmin(key))))
    assert out.peeled_indices.tolist() == order


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
def test_reversed_peel_builds_one_stream_generator(monkeypatch, noise_kind, threads):
    # each stream builds one generator per call: the rounds draw from
    # stream.child(1), the inference row from stream.child(0), however
    # many calls run at once
    built = []
    generator = RandomStream.generator

    def counting_generator(stream):
        built.append(stream.path)
        return generator(stream)
    monkeypatch.setattr(RandomStream, "generator", counting_generator)
    p = np.random.default_rng(15).uniform(size=500)

    def run():
        return reversed_peel(p, 50, NoiseScales(0.3, 0.6), RandomStream(6), noise_kind)
    with ThreadPoolExecutor(threads) as pool:
        outs = [f.result(timeout=120) for f in [pool.submit(run) for _ in range(threads)]]
    assert all(out.peeled_indices.size == 50 for out in outs)
    if threads == 1:
        assert built == [(1,), (0,)]
    assert Counter(built) == Counter({(1,): threads, (0,): threads})


def _homogeneity_pvalue(a: Counter, b: Counter) -> float:
    """Chi-square test that two samples of outcomes share one distribution;
    outcomes seen fewer than 10 times in both samples together are pooled
    into one cell."""
    cells, rare = [], [0, 0]
    for outcome in a.keys() | b.keys():
        pair = [a[outcome], b[outcome]]
        if sum(pair) < 10:
            rare = [rare[0] + pair[0], rare[1] + pair[1]]
        else:
            cells.append(pair)
    if sum(rare):
        cells.append(rare)
    obs = np.array(cells, dtype=float)
    expected = obs.sum(axis=1, keepdims=True) * obs.sum(axis=0) / obs.sum()
    return float(chdtrc(len(cells) - 1, ((obs - expected) ** 2 / expected).sum()))


@pytest.mark.parametrize("tail_candidates", [peeling.TAIL_CANDIDATES, 50.0],
                         ids=["default", "narrow"])
@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
def test_reversed_peel_first_picks_match_dense_oracle(monkeypatch, noise_kind,
                                                      tail_candidates):
    # quantiles 0, 0, 0.02, ...: near-tied keys at the bottom. The default
    # head holds every survivor here; "narrow" holds only the lowest
    # quantiles, so most rounds keep tail survivors that beat the head.
    monkeypatch.setattr(peeling, "TAIL_CANDIDATES", tail_candidates)
    p = std_normal_cdf(np.array([0.0, 0.0, 0.02, 0.1, 0.3, 0.6, 1.0, 2.0]))
    scales, n = NoiseScales(0.0, 0.5), 4_000
    kept_rounds = []
    quantile = peeling._noise_quantile

    def counting_quantile(u, scale, kind):
        kept_rounds.append(u.size)
        return quantile(u, scale, kind)
    monkeypatch.setattr(peeling, "_noise_quantile", counting_quantile)
    lazy = Counter(tuple(reversed_peel(p, 3, scales, RandomStream(seed), noise_kind)
                         .peeled_indices) for seed in range(n))
    eager = Counter(
        tuple(dense_reversed_peel(*generate_noisy_matrix(
            p, 3, scales, RandomStream(n + seed), noise_kind))[0])
        for seed in range(n))
    assert _homogeneity_pvalue(lazy, eager) > 1e-3
    if tail_candidates == 50.0:
        assert len(kept_rounds) > 3 * n / 2


@pytest.mark.parametrize("release", ["gaussian", "laplace", "dp-bh"])
def test_peel_draws_under_one_percent_of_m_per_round(monkeypatch, release):
    # a round draws noise for the bottom of the keys only, not a row of m;
    # dp-bh forward-peels the floored logs through the same rounds
    m, m_peel = 50_000, 200
    g = np.random.default_rng(16)
    p = g.uniform(size=m)
    p[:500] = std_normal_cdf(g.normal(size=500) - 4.0)
    drawn = []
    draw, quantile = peeling.draw_noise, peeling._noise_quantile

    def counting_draw(gen, scale, size, kind):
        drawn.append(size)
        return draw(gen, scale, size, kind)

    def counting_quantile(u, scale, kind):
        drawn.append(u.size)
        return quantile(u, scale, kind)
    monkeypatch.setattr(peeling, "draw_noise", counting_draw)
    monkeypatch.setattr(peeling, "_noise_quantile", counting_quantile)
    if release == "dp-bh":
        dp_test(p, DworkParams(m_peel=m_peel), 0.1, RandomStream(17), "bh")
        row = 0
    else:
        cfg = TestConfig(family="bh", budget=PrivacyBudget.approx_dp(0.5, 1e-3), gs=1e-4,
                         m_peel=m_peel, noise_kind=release)
        sup_test(p, cfg, RandomStream(17))
        # the inference row draws m values; the rest are the rounds'
        assert drawn.count(m) >= 1
        row = m
    assert 0 < (sum(drawn) - row) / m_peel < 0.01 * m


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
    # bit for bit without noise; with noise the lazy rounds draw other
    # values than the eager loop and match it in distribution only (the
    # frequency test below), so a noisy peel is checked for what any peel
    # must hold: m_peel distinct picks, the same bytes from the same stream
    logs, m_peel, scale, seed = case
    got = forward_peel_baseline(logs, m_peel, scale, RandomStream(seed))
    if scale == 0.0:
        want = forward_peel_delete(logs, m_peel, scale, RandomStream(seed))
    else:
        want = forward_peel_baseline(logs, m_peel, scale, RandomStream(seed))
        assert got[0].size == got[1].size == m_peel
        assert len(set(got[0].tolist())) == m_peel
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
def test_noise_cdf_of_a_float_has_the_bits_of_an_array(noise_kind):
    # a round's binomial count reads _noise_cdf of a float, and _tail_winner
    # reads it of an array; both must be the one definition's same bits
    g = np.random.default_rng(26)
    xs = np.concatenate((g.uniform(-40.0, 0.0, 1_000), g.normal(0.0, 1e-3, 200),
                         g.uniform(-80.0, -40.0, 200), g.uniform(0.0, 40.0, 200),
                         [0.0, -0.0, -40.0, 5e-324, -5e-324]))
    for scale in (1e-3, 1.0, 3.7):
        for x in xs.tolist():
            got = peeling._noise_cdf(x, scale, noise_kind)
            want = peeling._noise_cdf(np.array([x]), scale, noise_kind)
            assert isinstance(got, float)
            assert np.float64(got).tobytes() == want.tobytes(), (x, scale)


@st.composite
def _round_cases(draw):
    """Keys with many ties (a few integers) or none, a depth that is often
    1 or m, a scale that is often 0, a noise kind, the default or a narrow
    head (TAIL_CANDIDATES = 50, so rounds often sample their tail), and a
    stream seed."""
    m = draw(st.integers(1, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        keys = rng.integers(0, draw(st.integers(1, 6)), m).astype(float)
    else:
        keys = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 8.0])), m)
    m_peel = draw(st.one_of(st.just(1), st.just(m), st.integers(1, m)))
    scale = draw(st.sampled_from([0.0, 1e-3, 0.5, 4.0, 10.0]))
    kind = draw(st.sampled_from(["gaussian", "laplace"]))
    tail_candidates = draw(st.sampled_from([peeling.TAIL_CANDIDATES, 50.0]))
    return keys, m_peel, scale, kind, tail_candidates, draw(st.integers(0, 2**32 - 1))


def test_peel_rounds_match_full_sort_oracle():
    # the rounds sort only the bottom of the keys, and the rest when a tail
    # sample first needs it; the order, the winning keys and so every draw
    # must be those of the rounds that sort all m keys first, byte for byte
    sorted_rest, events = [], []
    sort_rest, draw, tail_winner = peeling._sort_rest, peeling.draw_noise, peeling._tail_winner

    def counting_sort_rest(*args):
        sorted_rest.append(1)
        return sort_rest(*args)

    def counting_draw(*args):
        events.append("round")
        return draw(*args)

    def counting_tail_winner(qs, e, *args):
        best, low = tail_winner(qs, e, *args)
        if best >= e:
            events.append("tail won")
        return best, low
    tail_then_more = []

    @settings(max_examples=300, deadline=None)
    @given(_round_cases())
    # a tail survivor past the block wins, after which a round's head
    # reaches past the block's old end: the search must then cover all keys
    @example((np.array([0.0, 0.0, 0.0, 2.0, 1.0, 0.0, 0.0, 2.0, 2.0, 0.0]), 6, 10.0,
              "gaussian", 50.0, 496133505))
    # all keys sorted at once; tail survivors win rounds 4 and 6 of 8, so a
    # shift rewrites the head's end position before later rounds
    @example((np.array([2.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]), 8, 1.0,
              "laplace", 50.0, 0))
    def check(case):
        keys, m_peel, scale, kind, tail_candidates, seed = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(peeling, "TAIL_CANDIDATES", tail_candidates)
            patch.setattr(peeling, "_sort_rest", counting_sort_rest)
            patch.setattr(peeling, "draw_noise", counting_draw)
            patch.setattr(peeling, "_tail_winner", counting_tail_winner)
            events.clear()
            got = peeling._peel_rounds(keys.copy(), m_peel, scale, RandomStream(seed), kind)
            if "tail won" in events and "round" in events[events.index("tail won"):]:
                tail_then_more.append(1)
            want = sorted_peel_rounds(keys.copy(), m_peel, scale, RandomStream(seed), kind)
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
    check()
    # some peels sorted their rest on demand, and some peeled a tail
    # survivor and went on with more rounds, and still matched
    assert sorted_rest
    assert tail_then_more


@pytest.mark.parametrize("tail_candidates", [peeling.TAIL_CANDIDATES, 50.0],
                         ids=["default", "narrow"])
def test_forward_peel_first_picks_match_delete_reference(monkeypatch, tail_candidates):
    # a tie at the bottom and logs a few noise scales apart; outcomes are
    # the first two picks and which of three noisy values lie at or below
    # thr. "narrow" gives a head of width 0, so every round samples the
    # tail and many keep a tail survivor.
    monkeypatch.setattr(peeling, "TAIL_CANDIDATES", tail_candidates)
    logs = np.log([1e-4, 1e-4, 3e-4, 1e-3, 0.01, 0.05, 0.2, 0.9])
    thr, n = math.log(2e-4), 6_000
    tail_rounds, kept_rounds = [], []
    tail_winner, quantile = peeling._tail_winner, peeling._noise_quantile

    def counting_tail_winner(*args):
        tail_rounds.append(1)
        return tail_winner(*args)

    def counting_quantile(u, scale, kind):
        kept_rounds.append(u.size)
        return quantile(u, scale, kind)
    monkeypatch.setattr(peeling, "_tail_winner", counting_tail_winner)
    monkeypatch.setattr(peeling, "_noise_quantile", counting_quantile)

    def outcome(picked, values):
        return (*picked[:2].tolist(), *(values <= thr).tolist())
    lazy = Counter(outcome(*forward_peel_baseline(logs, 3, 1.0, RandomStream(seed)))
                   for seed in range(n))
    eager = Counter(outcome(*forward_peel_delete(logs, 3, 1.0, RandomStream(n + seed)))
                    for seed in range(n))
    assert _homogeneity_pvalue(lazy, eager) > 1e-3
    if tail_candidates == 50.0:
        assert len(tail_rounds) == 3 * n and len(kept_rounds) > n / 2


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


# ---------------------------------------------------------------- threads

_M_LARGE = 12_000


def _digest(*arrays):
    return hashlib.sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)).hexdigest()


def _same_for_any_thread_count(run):
    # run() on the calling thread, then on 2 and on 4 threads at once
    digests = [run()]
    for threads in (2, 4):
        with ThreadPoolExecutor(threads) as pool:
            futures = [pool.submit(run) for _ in range(threads)]
            digests += [f.result(timeout=120) for f in futures]
    assert len(set(digests)) == 1, digests


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
def test_reversed_peel_same_bytes_for_any_thread_count(noise_kind):
    p = np.random.default_rng(8).uniform(size=_M_LARGE)
    p[:50] *= 1e-6

    def run():
        out = reversed_peel(p, 60, NoiseScales(0.3, 0.6), RandomStream(5), noise_kind)
        return _digest(out.peeled_indices, out.inference_pvals)
    _same_for_any_thread_count(run)


def test_reversed_peel_all_p_one_same_bytes_for_any_thread_count():
    # all p = 1 with tiny noise: the noisy p-values tie within ulps of 1
    p, scales = np.ones(_M_LARGE), NoiseScales(0.01, 0.01)

    def run():
        out = reversed_peel(p, 12, scales, RandomStream(9), "gaussian")
        return _digest(out.peeled_indices, out.inference_pvals)
    _same_for_any_thread_count(run)


@pytest.mark.parametrize("noise_kind", ["gaussian", "laplace"])
def test_sup_test_same_bytes_for_any_thread_count(noise_kind):
    p = np.random.default_rng(10).uniform(size=_M_LARGE)
    p[:100] *= 1e-7
    cfg = TestConfig(family="bh", budget=PrivacyBudget.approx_dp(0.5, 1e-3), m_peel=80,
                     noise_kind=noise_kind)

    def run():
        res = sup_test(p, cfg, RandomStream(11))
        return _digest(res.peeled.peeled_indices, res.peeled.inference_pvals,
                       res.rejected_indices)
    _same_for_any_thread_count(run)


def test_adaptive_sup_test_same_bytes_for_any_thread_count():
    p = np.random.default_rng(12).uniform(size=_M_LARGE)
    p[:100] *= 1e-7
    cfg = TestConfig(family="bh", budget=PrivacyBudget.approx_dp(0.5, 1e-3))

    def run():
        res = adaptive_sup_test(p, cfg, AdaptiveConfig(m_tilde=40), RandomStream(13))
        return _digest(res.peeled.peeled_indices, res.peeled.inference_pvals,
                       res.rejected_indices, np.array([res.m_peel]))
    _same_for_any_thread_count(run)
