import json

import numpy as np
import pytest

import disclab as dl
from disclab.rng import stream
from disclab.setsystem import DistributionMatrix, GenMeta, IncidenceMatrix


def test_bernoulli_degenerate_probabilities():
    assert dl.sample_bernoulli(2, 3, 0.0, 7).bits.sum() == 0
    assert dl.sample_bernoulli(2, 3, 1.0, 7).bits.sum() == 6


def test_bernoulli_popcount_concentration():
    A = dl.sample_bernoulli(50, 5000, 0.5, 1)
    # 4 binomial standard deviations around 125000
    assert abs(int(A.bits.sum()) - 125000) <= 4 * 250


def test_bernoulli_rejects_bad_inputs():
    with pytest.raises(ValueError):
        dl.sample_bernoulli(2, 3, 1.5, 0)
    with pytest.raises(ValueError):
        dl.sample_bernoulli(2, 3, -0.1, 0)
    with pytest.raises(ValueError):
        dl.sample_bernoulli(0, 3, 0.5, 0)
    with pytest.raises(ValueError):
        dl.sample_bernoulli(2, 0, 0.5, 0)


def test_generation_determinism():
    a = dl.sample_bernoulli(10, 200, 0.3, 999)
    b = dl.sample_bernoulli(10, 200, 0.3, 999)
    assert a == b
    assert a.meta == GenMeta(p=0.3, seed=999, generator="bernoulli")
    c = dl.sample_bernoulli(10, 200, 0.3, 1000)
    assert a != c


def test_packed_words_match_dense():
    A = dl.sample_bernoulli(5, 130, 0.5, 3)
    for i in range(A.m):
        for j in range(0, A.n, 7):
            assert A.entry(i, j) == int(A.bits[i, j])
    assert A.row_words.shape == (5, 3)  # ceil(130/64) words per row
    assert A.col_words.shape == (130, 1)


@pytest.mark.parametrize("m, n", [(3, 200), (70, 40)])
def test_column_types_are_the_column_multiset(m, n):
    # m=70 spans two packed words per column
    A = dl.sample_bernoulli(m, n, 0.3 if m < 64 else 0.02, 5)
    V, counts = A.column_types
    assert A.column_types[0] is V
    expected = {}
    for j in range(n):
        key = tuple(int(v) for v in A.bits[:, j])
        expected[key] = expected.get(key, 0) + 1
    got = {tuple(int(v) for v in V[:, t]): int(counts[t]) for t in range(V.shape[1])}
    assert got == expected
    with pytest.raises(ValueError):
        counts[0] = 0


def test_matrix_is_immutable():
    A = dl.sample_bernoulli(3, 10, 0.5, 1)
    with pytest.raises(ValueError):
        A.bits[0, 0] = 1
    with pytest.raises(ValueError):
        A.row_words[0, 0] = np.uint64(1)


def test_signed_discrepancy_examples():
    A = IncidenceMatrix([[1, 1]])
    assert dl.signed_discrepancy(A, dl.Coloring([1, -1])).tolist() == [0]
    assert dl.signed_discrepancy(A, dl.Coloring([1, 1])).tolist() == [2]
    B = IncidenceMatrix([[1, 0], [1, 1]])
    assert dl.signed_discrepancy(B, dl.Coloring([-1, 1])).tolist() == [-1, 0]
    assert dl.disc_of_coloring(B, dl.Coloring([-1, 1])) == 1
    assert dl.disc_of_coloring(A, dl.Coloring([1, -1])) == 0
    assert dl.disc_of_coloring(IncidenceMatrix([[1]]), dl.Coloring([1])) == 1


def test_signed_discrepancy_dimension_mismatch():
    A = IncidenceMatrix([[1, 1]])
    with pytest.raises(ValueError):
        dl.signed_discrepancy(A, dl.Coloring([1, -1, 1]))


def test_parity_invariance_and_sign_symmetry():
    rng = stream(12)
    for _ in range(25):
        m, n = int(rng.integers(1, 6)), int(rng.integers(1, 40))
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        x = dl.Coloring.uniform(n, rng)
        D = dl.signed_discrepancy(A, x)
        assert np.array_equal(D % 2, A.row_sums % 2)
        assert dl.disc_of_coloring(A, x) == dl.disc_of_coloring(A, x.negated())


def test_covariance_examples():
    assert dl.covariance_empirical(IncidenceMatrix([[1, 1]])).tolist() == [[2]]
    assert dl.covariance_empirical(IncidenceMatrix([[1, 0], [0, 1]])).tolist() == [[1, 0], [0, 1]]
    assert dl.covariance_empirical(IncidenceMatrix([[1, 1, 0], [0, 1, 1]])).tolist() == [[2, 1], [1, 2]]
    ce = dl.covariance_expected(2, 10, 0.5)
    assert np.allclose(np.diag(ce), 5.0)
    assert np.allclose(ce[0, 1], 2.5)
    assert np.allclose(dl.covariance_expected(3, 7, 0.0), 0.0)
    assert np.allclose(dl.covariance_expected(3, 7, 1.0), 7.0)


def test_covariance_empirical_converges_to_expected():
    m, n, p = 3, 60, 0.4
    total = np.zeros((m, m))
    total_sq = np.zeros((m, m))
    trials = 1000
    for k in range(trials):
        cov = dl.covariance_empirical(dl.sample_bernoulli(m, n, p, 5000 + k)).astype(float)
        total += cov
        total_sq += cov * cov
    mean = total / trials
    se = np.sqrt(np.maximum(total_sq / trials - mean ** 2, 0.0) / trials)
    gap = np.abs(mean - dl.covariance_expected(m, n, p))
    assert (gap <= 5 * se + 1e-9).all()


def test_max_column_frequency():
    assert dl.max_column_frequency(IncidenceMatrix(np.zeros((3, 4), dtype=int))) == 0
    assert dl.max_column_frequency(IncidenceMatrix(np.ones((3, 4), dtype=int))) == 3
    assert dl.max_column_frequency(IncidenceMatrix([[1, 1, 0], [0, 1, 1]])) == 2


def test_t_accessor_is_real():
    A = dl.sample_bernoulli(5, 10, 0.3, 0)
    assert A.t == pytest.approx(1.5)
    with pytest.raises(ValueError):
        IncidenceMatrix([[1]]).t


def test_json_round_trip_bit_exact(tmp_path):
    A = dl.sample_bernoulli(7, 101, 0.37, 1234)
    path = tmp_path / "inst.json"
    A.save(path)
    B = IncidenceMatrix.load(path)
    assert B == A
    assert B.meta == A.meta
    # serialization is stable
    assert json.loads(path.read_text()) == B.to_dict()


def test_hex_bit_order_msb_is_column_zero():
    A = IncidenceMatrix([[1, 1, 0, 0, 1]])
    d = A.to_dict()
    # bits 11001 padded to 110010 00 -> hex "c8"
    assert d["rows"] == ["c8"]
    assert IncidenceMatrix.from_dict(d) == A
    with pytest.raises(ValueError):
        IncidenceMatrix.from_dict({"m": 1, "n": 5, "rows": ["c9"]})  # padding bit set


def test_rejects_non_binary_entries():
    with pytest.raises(ValueError):
        IncidenceMatrix([[0, 2]])
    with pytest.raises(ValueError):
        IncidenceMatrix([[0.5, 0.5]])
    with pytest.raises(ValueError):
        dl.Coloring([1, 0])


def test_coloring_round_trip():
    x = dl.Coloring.from_string("+-+")
    assert x.to_string() == "+-+"
    assert x.negated().to_string() == "-+-"
    assert len(x) == 3


def test_distribution_matrix_validation_and_sampling():
    P = DistributionMatrix(np.full((2, 3), 0.25), delta_cap=0.5)
    A = dl.sample_semirandom(P, 5)
    assert A.m == 2 and A.n == 3
    assert dl.sample_semirandom(P, 5) == A
    with pytest.raises(ValueError):
        DistributionMatrix(np.full((2, 2), 0.6), delta_cap=0.5)
    with pytest.raises(ValueError):
        DistributionMatrix(np.full((2, 2), 0.9), column_budget=1.0)
    zero = dl.sample_semirandom(DistributionMatrix(np.zeros((2, 2))), 1)
    assert zero.bits.sum() == 0
    ones = dl.sample_semirandom(DistributionMatrix(np.ones((2, 2)), delta_cap=1.0), 1)
    assert ones.bits.sum() == 4


def test_semirandom_single_entry_frequency():
    P = DistributionMatrix(np.array([[0.5]]))
    hits = sum(int(dl.sample_semirandom(P, s).bits[0, 0]) for s in range(10 ** 4))
    assert abs(hits - 5000) <= 4 * 50


def test_row_and_column_set_views():
    A = IncidenceMatrix([[1, 0, 1], [0, 1, 1]])
    assert A.row_elements(0).tolist() == [0, 2]
    assert A.row_elements(1).tolist() == [1, 2]
    assert A.column_rows(2).tolist() == [0, 1]
    assert A.column_rows(0).tolist() == [0]
