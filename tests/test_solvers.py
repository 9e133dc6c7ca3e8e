from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disclab as dl
from disclab import solvers as sv
from disclab.rng import stream
from disclab.setsystem import IncidenceMatrix


def brute_min_disc(A):
    n = A.n
    best = None
    for mask in range(2 ** n):
        x = np.array([1 if (mask >> j) & 1 else -1 for j in range(n)])
        best = min(best, int(np.abs(A.bits.astype(int) @ x).max())) \
            if best is not None else int(np.abs(A.bits.astype(int) @ x).max())
    return best


def test_exhaustive_examples():
    d, w = dl.exhaustive_min_disc(IncidenceMatrix([[1, 1]]))
    assert d == 0 and dl.disc_of_coloring(IncidenceMatrix([[1, 1]]), w) == 0
    d, _ = dl.exhaustive_min_disc(IncidenceMatrix([[1]]))
    assert d == 1
    d, _ = dl.exhaustive_min_disc(IncidenceMatrix(np.eye(3, dtype=int)))
    assert d == 1


def test_exhaustive_matches_brute_force():
    rng = stream(51)
    for _ in range(25):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 11))
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        got, witness = dl.exhaustive_min_disc(A)
        assert got == brute_min_disc(A)
        assert dl.disc_of_coloring(A, witness) == got


def first_min_in_gray_order(A):
    """(minimum, signs, Gray index) of the first minimal coloring in Gray
    order with the first sign fixed to +1, by a plain loop."""
    rows = A.bits.astype(int).tolist()
    best = None
    for g in range(2 ** (A.n - 1)):
        code = g ^ (g >> 1)
        signs = [1] + [-1 if (code >> b) & 1 else 1 for b in range(A.n - 1)]
        disc = max(abs(sum(a * s for a, s in zip(row, signs))) for row in rows)
        if best is None or disc < best[0]:
            best = (disc, signs, g)
    return best


def test_exhaustive_witness_is_first_minimum_in_gray_order():
    # n - 1 free signs: below, at and above the 12 of the enumeration's low
    # table. Above it, a row {0, j} makes every coloring of discrepancy at
    # most 1 give sign j = -1, so the witness moves past the first block,
    # into blocks that read the low table backwards as well as forwards.
    rng = stream(57)
    blocks = set()
    for n in [1] * 2 + list(range(2, 13)) * 3 + [13] * 3 + [14] * 4 + [15] * 4:
        m = int(rng.integers(1, 7))
        bits = dl.sample_bernoulli(m, n, float(rng.choice([0.3, 0.5, 0.8])),
                                   int(rng.integers(2 ** 62))).bits
        if n > 13:
            pair = np.zeros((1, n), dtype=np.uint8)
            pair[0, [0, int(rng.integers(13, n))]] = 1
            bits = np.vstack((bits, pair))
        A = IncidenceMatrix(bits)
        best, signs, index = first_min_in_gray_order(A)
        got, witness = dl.exhaustive_min_disc(A)
        assert got == best
        assert witness.signs.tolist() == signs
        blocks.add(index >> 12)
    assert {0, 1, 2} <= blocks  # the first block, an odd one and a later even one


def test_exhaustive_respects_parity_floor():
    rng = stream(52)
    for _ in range(20):
        A = dl.sample_bernoulli(3, int(rng.integers(2, 14)), 0.5, int(rng.integers(2 ** 62)))
        d, _ = dl.exhaustive_min_disc(A)
        if (A.row_sums % 2 == 1).any():
            assert d >= 1


def test_negative_target_is_rejected():
    A = IncidenceMatrix([[1, 1]])
    with pytest.raises(ValueError, match="target must be nonnegative"):
        dl.random_search(A, -1, 1000, seed=0)
    with pytest.raises(ValueError, match="target must be nonnegative"):
        dl.local_search(A, -1, restarts=1, max_flips=10, seed=0)


def test_exhaustive_refuses_large_n():
    with pytest.raises(ValueError):
        dl.exhaustive_min_disc(dl.sample_bernoulli(2, 31, 0.5, 0))


def test_count_colorings_within():
    A = IncidenceMatrix([[1, 1]])
    assert dl.count_colorings_within(A, 0) == 2
    assert dl.count_colorings_within(A, 1) == 2
    assert dl.count_colorings_within(A, 2) == 4
    rng = stream(53)
    for _ in range(10):
        B = dl.sample_bernoulli(2, int(rng.integers(1, 9)), 0.5, int(rng.integers(2 ** 62)))
        target = int(rng.integers(0, 3))
        brute = sum(
            int(np.abs(B.bits.astype(int) @ np.array(
                [1 if (mask >> j) & 1 else -1 for j in range(B.n)])).max()) <= target
            for mask in range(2 ** B.n))
        assert dl.count_colorings_within(B, target) == brute


def brute_disc_counts(A):
    """Counts of A x over all 2^n colorings, one coloring per row."""
    masks = np.arange(2 ** A.n)[:, None]
    signs = 1 - 2 * ((masks >> np.arange(A.n)) & 1)
    return Counter(map(tuple, (signs @ A.bits.T.astype(int)).tolist()))


def disc_law_counts(A):
    """The type DP's law of A x as {value: count}, checking its arrays' form."""
    states, counts = sv._disc_law(A)
    assert states.dtype == np.int8 and counts.dtype == np.int64
    assert len(np.unique(states, axis=0)) == len(states) == len(counts)
    return dict(zip(map(tuple, states.tolist()), counts.tolist()))


@pytest.mark.parametrize("bits", [
    [[0, 0, 0]],
    np.zeros((4, 6), dtype=int),
    np.ones((1, 9), dtype=int),
    np.ones((5, 12), dtype=int),
    [[1, 0, 1, 0, 1, 1, 0], [1, 0, 1, 0, 1, 1, 0]],  # repeated rows
    [[1, 1, 1, 1, 0, 0, 0, 0, 1], [0, 0, 0, 0, 1, 1, 1, 1, 1]],  # repeated columns
    [[1, 0, 1, 0, 1, 0, 1, 0, 0, 0], [0, 1, 1, 0, 0, 1, 1, 0, 0, 0],
     [0, 0, 0, 1, 1, 1, 1, 0, 0, 0]],  # zero and distinct columns
])
def test_coloring_disc_counts_matches_brute_force_on_shapes(bits):
    A = IncidenceMatrix(bits)
    assert disc_law_counts(A) == brute_disc_counts(A)


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 6), n=st.integers(1, 14), p=st.sampled_from([0.1, 0.5, 0.9]),
       seed=st.integers(0, 2 ** 62))
def test_coloring_disc_counts_matches_brute_force(m, n, p, seed):
    A = dl.sample_bernoulli(m, n, p, seed)
    assert disc_law_counts(A) == brute_disc_counts(A)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(1, 5), n=st.integers(1, 14), p=st.sampled_from([0.1, 0.5, 0.9]),
       seed=st.integers(0, 2 ** 62))
def test_coloring_disc_counts_agrees_with_gray_enumeration(m, n, p, seed):
    A = dl.sample_bernoulli(m, n, p, seed)
    counts = disc_law_counts(A)
    disc = {vec: max(abs(v) for v in vec) for vec in counts}
    assert min(disc.values()) == dl.exhaustive_min_disc(A)[0]
    for delta in range(3):
        within = sum(c for vec, c in counts.items() if disc[vec] <= delta)
        assert within == dl.count_colorings_within(A, delta)


def test_coloring_disc_counts_total():
    A = dl.sample_bernoulli(3, 9, 0.5, 7)
    counts = disc_law_counts(A)
    assert sum(counts.values()) == 2 ** 9
    # negation symmetry of the count table
    for vec, c in counts.items():
        assert counts[tuple(-v for v in vec)] == c


def loop_random_search(A, target, budget, seed):
    """The plain per-flip walk: the reference random_search must equal."""
    rng = stream(seed)
    n = A.n
    supports = [A.column_rows(j).tolist() for j in range(n)]
    x = (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).tolist()
    D = (A.bits.astype(np.int64) @ np.asarray(x, dtype=np.int64)).tolist()
    bad = sum(1 for d in D if abs(d) > target)
    trials = 1
    while bad and trials < budget:
        for j in rng.integers(0, n, size=min(8192, budget - trials)).tolist():
            x[j] = -x[j]
            for i in supports[j]:
                old = D[i]
                D[i] += 2 * x[j]
                bad += (abs(D[i]) > target) - (abs(old) > target)
            trials += 1
            if bad == 0:
                break
    if bad:
        return sv.SearchResult(coloring=None, disc=None, flips=trials - 1, trials=trials)
    coloring = dl.Coloring(x)
    return sv.SearchResult(coloring=coloring, disc=dl.disc_of_coloring(A, coloring),
                           flips=trials - 1, trials=trials)


def assert_same_walk(A, target, budget, seed):
    got = dl.random_search(A, target, budget, seed)
    want = loop_random_search(A, target, budget, seed)
    assert (got.flips, got.trials, got.disc) == (want.flips, want.trials, want.disc)
    assert (got.coloring is None) == (want.coloring is None)
    if want.found:
        assert np.array_equal(got.coloring.signs, want.coloring.signs)
    return got


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, 12), n=st.integers(1, 150), p=st.sampled_from([0.05, 0.5, 0.95]),
       target=st.integers(0, 2), budget=st.sampled_from([1, 2, 8191, 8192, 8193, 20000]),
       inst_seed=st.integers(0, 2 ** 62), seed=st.integers(0, 2 ** 62))
def test_random_search_equals_per_flip_loop(m, n, p, target, budget, inst_seed, seed):
    assert_same_walk(dl.sample_bernoulli(m, n, p, inst_seed), target, budget, seed)


def flips_drawn(n, budget, seed):
    """The column indices the walk draws from its stream, in flip order."""
    rng = stream(seed)
    rng.integers(0, 2, size=n, dtype=np.int8)
    return np.concatenate([rng.integers(0, n, size=min(8192, budget - 1 - lo))
                           for lo in range(0, budget - 1, 8192)])


def test_random_search_equals_loop_on_edge_cases():
    # zero columns: their flips change no row; the zero matrix needs no flip
    res = assert_same_walk(IncidenceMatrix([[1, 0, 1, 0, 1, 1, 0], [0, 0, 1, 1, 0, 0, 0]]),
                           0, 20000, seed=5)
    assert res.found and res.flips > 0
    assert assert_same_walk(IncidenceMatrix(np.zeros((3, 4), dtype=int)), 0, 10, 1).trials == 1
    # the all-ones matrix: odd n misses target 0 by parity, hits target 1
    ones = IncidenceMatrix(np.ones((4, 9), dtype=int))
    assert not assert_same_walk(ones, 0, 20000, seed=6).found
    assert assert_same_walk(ones, 1, 20000, seed=2).flips > 0
    # [[1]] at target 0: a parity miss after the whole budget, over three draws
    res = assert_same_walk(IncidenceMatrix([[1]]), 0, 20000, seed=7)
    assert not res.found and res.trials == 20000
    # a hit on trial 1
    A = dl.sample_bernoulli(7, 12, 0.5, 5)
    res = assert_same_walk(A, 1, 20000, seed=0)
    assert res.found and res.trials == 1
    # a column flipped three or more times in the draw that holds the hit
    res = assert_same_walk(A, 1, 20000, seed=3)
    assert res.found
    assert np.bincount(flips_drawn(A.n, 20000, 3)[:res.flips]).max() >= 3
    # a hit on the last flip of a draw: 20 disjoint pairs, each balanced
    # when its two signs differ, all balanced first after flip 8192 at seed 18
    pairs = [(1, 0), (3, 2), (4, 7), (5, 8), (6, 10), (9, 13), (11, 15), (12, 16), (14, 17),
             (20, 18), (21, 19), (24, 22), (25, 23), (29, 26), (31, 27), (32, 28), (33, 30),
             (34, 35), (36, 37), (38, 39)]
    bits = np.zeros((len(pairs), 40), dtype=int)
    for i, pair in enumerate(pairs):
        bits[i, pair] = 1
    res = assert_same_walk(IncidenceMatrix(bits), 0, 20000, seed=18)
    assert res.found and res.flips == 8192
    # m = 40: a draw spans several replay steps of k flips; a hit on the
    # first flip of the fifth step of the second draw, and one on the last
    # flip of the fourth step of the first draw
    k = sv._STEP_CELLS // 40
    res = assert_same_walk(dl.sample_bernoulli(40, 50, 0.5, 24), 4, 20000, seed=3)
    assert res.found and res.flips - 1 == 8192 + 4 * k
    res = assert_same_walk(dl.sample_bernoulli(40, 80, 0.5, 3), 6, 20000, seed=45)
    assert res.found and res.flips == 4 * k


def test_random_search_trivial_target():
    A = dl.sample_bernoulli(3, 10, 0.5, 1)
    res = dl.random_search(A, 10, 1, seed=4)
    assert res.found and res.trials == 1 and res.flips == 0
    assert dl.disc_of_coloring(A, res.coloring) <= 10


def test_random_search_walk_on_pair():
    # half of all colorings solve [[1,1]] at target 0; the walk from any
    # bad state fixes it in one flip, so 8 trials always suffice
    A = IncidenceMatrix([[1, 1]])
    hits = sum(dl.random_search(A, 0, 8, seed=s).found for s in range(200))
    assert hits == 200


def test_random_search_first_trial_probability():
    # with budget 1 the walk reduces to one uniform draw: success rate 1/2
    A = IncidenceMatrix([[1, 1]])
    trials = 2000
    hits = sum(dl.random_search(A, 0, 1, seed=s).found for s in range(trials))
    se = (0.25 / trials) ** 0.5
    assert abs(hits / trials - 0.5) <= 5 * se


def test_random_search_miss_is_valid():
    A = IncidenceMatrix([[1]])
    res = dl.random_search(A, 0, 50, seed=3)  # parity makes 0 impossible
    assert not res.found and res.coloring is None and res.trials == 50


def test_random_search_deterministic():
    A = dl.sample_bernoulli(3, 24, 0.5, 6)
    a = dl.random_search(A, 1, 10 ** 5, seed=11)
    b = dl.random_search(A, 1, 10 ** 5, seed=11)
    assert a.found == b.found and a.trials == b.trials
    assert a.coloring == b.coloring


def test_local_search_zero_matrix_immediate():
    Z = IncidenceMatrix(np.zeros((2, 6), dtype=int))
    res = dl.local_search(Z, 0, restarts=1, max_flips=100, seed=0)
    assert res.found and res.flips == 0 and res.disc == 0


def test_local_search_beats_exhaustive_verified_instances():
    # instances with an exhaustively verified zero-discrepancy coloring:
    # local search at the weaker target 1 should almost always succeed
    rng = stream(54)
    found = 0
    total = 0
    for _ in range(60):
        A = dl.sample_bernoulli(3, 12, 0.5, int(rng.integers(2 ** 62)))
        best, _ = dl.exhaustive_min_disc(A)
        if best == 0:
            total += 1
            res = dl.local_search(A, 1, restarts=50, max_flips=5000,
                                  seed=int(rng.integers(2 ** 62)))
            found += res.found
    assert total > 0
    assert found == total


def test_local_search_deterministic_and_verified():
    A = dl.sample_bernoulli(8, 500, 0.5, 13)
    a = dl.local_search(A, 1, restarts=5, max_flips=10 ** 5, seed=21)
    b = dl.local_search(A, 1, restarts=5, max_flips=10 ** 5, seed=21)
    assert a.found == b.found and a.flips == b.flips
    if a.found:
        assert a.coloring == b.coloring
        assert dl.disc_of_coloring(A, a.coloring) <= 1


def test_solver_witness_never_beats_exhaustive():
    rng = stream(55)
    for _ in range(10):
        A = dl.sample_bernoulli(3, 10, 0.5, int(rng.integers(2 ** 62)))
        best, _ = dl.exhaustive_min_disc(A)
        res = dl.random_search(A, best, 10 ** 5, seed=int(rng.integers(2 ** 62)))
        if res.found:
            assert dl.disc_of_coloring(A, res.coloring) >= best


def test_counting_bound_examples():
    assert dl.counting_bound(1, 1, 1, 1.0) == 2.0
    assert dl.counting_bound(8, 16, 1, 1.0) == pytest.approx(1.0)
    assert dl.counting_bound(2, 4, 0, 1.0) == 0.0
    with pytest.raises(ValueError):
        dl.counting_bound(0, 4, 1, 1.0)


def test_counting_bound_dominates_empirical_counts():
    rng = stream(56)
    counts = []
    for _ in range(25):
        A = dl.sample_bernoulli(10, 10, 0.5, int(rng.integers(2 ** 62)))
        counts.append(dl.count_colorings_within(A, 1))
    mean = float(np.mean(counts))
    assert mean <= dl.counting_bound(10, 10, 1, 3.0)


def test_random_search_regime_success_rate():
    hits = 0
    for k in range(100):
        A = dl.sample_bernoulli(3, 24, 0.5, 9000 + k)
        hits += dl.random_search(A, 1, 10 ** 6, seed=90000 + k).found
    assert hits >= 95
