import math
from fractions import Fraction

import numpy as np
import pytest

import disclab as dl
from disclab.rng import stream
from disclab.setsystem import IncidenceMatrix
from disclab.smoothing import ParitySmoother, half_lattice_points


def test_pmf_examples():
    assert dl.build_pmf(0).pmf_table() == {0: Fraction(1)}
    assert dl.build_pmf(1).pmf_table() == {
        -1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}
    assert dl.build_pmf(2).pmf_table() == {
        -2: Fraction(1, 16), -1: Fraction(1, 4), 0: Fraction(3, 8),
        1: Fraction(1, 4), 2: Fraction(1, 16)}


@pytest.mark.parametrize("delta", range(9))
def test_pmf_is_shifted_binomial(delta):
    spec = dl.build_pmf(delta)
    for k in range(-delta, delta + 1):
        assert spec.pmf(k) == Fraction(math.comb(2 * delta, delta + k), 4 ** delta)
    assert sum(spec.pmf_table().values(), Fraction(0)) == 1
    assert spec.variance() == Fraction(delta, 2)
    assert spec.pmf(delta + 1) == 0


def test_sampling_matches_pmf():
    rng = stream(77)
    draws = dl.smoothing.sample(dl.build_pmf(0), rng, size=1000)
    assert (draws == 0).all()
    n = 10 ** 6
    draws = dl.smoothing.sample(dl.build_pmf(1), stream(78), size=n)
    freq0 = float(np.mean(draws == 0))
    assert abs(freq0 - 0.5) <= 0.0025  # 5 binomial standard errors
    draws = dl.smoothing.sample(dl.build_pmf(2), stream(79), size=n)
    for v in (-2, 2):
        assert abs(float(np.mean(draws == v)) - 0.0625) <= 0.0013


def test_rhat_1d_examples():
    assert dl.rhat_1d(1, 0.0) == 1.0
    assert dl.rhat_1d(1, 0.25) == pytest.approx(0.5, abs=1e-15)
    assert dl.rhat_1d(3, 0.5) == pytest.approx(0.0, abs=1e-45)
    assert dl.rhat_1d(0, 0.37) == 1.0


def test_rhat_md_examples():
    assert dl.rhat_md(1, np.zeros(4)) == 1.0
    assert dl.rhat_md(1, [0.25, 0.25]) == pytest.approx(0.25, abs=1e-15)
    assert dl.rhat_md(1, [0.5, 0.123]) == pytest.approx(0.0, abs=1e-16)


def test_transform_consistency_with_pmf():
    grid = np.linspace(-0.5, 0.5, 1001)
    for delta in (1, 2, 5):
        spec = dl.build_pmf(delta)
        ks = np.arange(-delta, delta + 1)
        w = np.array([float(spec.pmf(int(k))) for k in ks])
        series = np.cos(2 * np.pi * grid[:, None] * ks[None, :]) @ w
        assert np.abs(series - dl.rhat_1d(delta, grid)).max() < 1e-12


def test_rhat_periodic_and_even():
    grid = np.linspace(-0.5, 0.5, 501)
    for delta in (1, 3):
        v = dl.rhat_1d(delta, grid)
        assert np.abs(dl.rhat_1d(delta, grid + 1.0) - v).max() < 1e-12
        assert np.abs(dl.rhat_1d(delta, -grid) - v).max() < 1e-12


def test_check_rhat_bounds_spec_points():
    r = dl.check_rhat_bounds(1, np.zeros(3))
    assert r.upper_ok and r.lower_ok and r.ratio_ok
    assert r.margins["upper"] == pytest.approx(0.0, abs=1e-12)

    r = dl.check_rhat_bounds(1, np.array([0.25]))
    assert r.upper_ok and r.lower_ok
    assert math.exp(-math.pi ** 2 / 16) == pytest.approx(0.5397, abs=1e-4)
    assert r.margins["upper"] == pytest.approx(math.exp(-math.pi ** 2 / 16) - 0.5, abs=1e-12)
    assert r.margins["lower"] == pytest.approx(
        0.5 - math.exp(-math.pi ** 2 / 16 - 20 / 256), abs=1e-12)
    assert r.ratio_ok is None  # outside the 1/8 ratio domain

    r = dl.check_rhat_bounds(1, np.array([0.1]))
    lhs = dl.rhat_1d(1, 0.6)
    rhs = 0.32 * dl.rhat_1d(1, 0.1)
    assert lhs == pytest.approx(0.09549, abs=1e-4)
    assert r.ratio_ok and r.margins["ratio"] == pytest.approx(rhs - lhs, abs=1e-12)


def test_rhat_bounds_domain_gating():
    r = dl.check_rhat_bounds(2, np.array([0.4]))
    assert r.upper_ok is not None
    assert r.lower_ok is None and r.ratio_ok is None


def test_rhat_bounds_sampled_fallback():
    theta = np.full(14, 0.01)  # 3^14 shifts > 10^6
    r = dl.check_rhat_bounds(1, theta)
    assert not r.ratio_exhaustive
    assert r.ratio_terms == 4096
    assert r.ratio_ok


def test_rho_examples():
    assert dl.rho(1) == pytest.approx(0.5, abs=1e-9)
    assert dl.rho(2) == pytest.approx(0.25, abs=1e-9)
    assert dl.rho(10) == pytest.approx(2 ** -10, abs=1e-9)
    assert dl.rho(10) <= math.exp(-0.69 * 10)


def test_parity_smoother_from_matrix():
    A = IncidenceMatrix([[1, 1, 0], [1, 0, 0], [1, 1, 1]])
    sm = ParitySmoother.from_matrix(A)
    assert sm.odd_rows == (1, 2)
    tables = sm.row_pmfs(3)
    assert tables[0] == {0: Fraction(1)}
    assert tables[1] == {-1: Fraction(1, 2), 1: Fraction(1, 2)}


def test_parity_rhat_examples():
    even = ParitySmoother(m=2, odd_rows=())
    assert dl.parity_rhat(even, [0.3, -0.1]) == 1.0
    one_odd = ParitySmoother(m=2, odd_rows=(0,))
    assert dl.parity_rhat(one_odd, [0.125, 0.4]) == pytest.approx(math.cos(math.pi / 4))
    assert dl.parity_rhat(one_odd, [0.25, 0.4]) == pytest.approx(0.0, abs=1e-15)


def test_half_lattice_points():
    pts = half_lattice_points(2)
    assert pts.shape == (8, 2)
    assert not (pts == 0).all(axis=1).any()
    with_zero = np.vstack([np.zeros((1, 2)), pts])
    assert with_zero.shape == (9, 2)
    assert len({tuple(row) for row in with_zero}) == 9


def test_smoother_spike_dominance_small_radius():
    # width-1 smoother dominance, exact enumeration, m up to 8
    for m in (1, 4, 8):
        rng = stream(5, m)
        shifts = half_lattice_points(m)
        g = rng.standard_normal((200, m))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        pts = g * (rng.random(200)[:, None] ** (1 / m)) / 16.0
        lhs = dl.rhat_md(1, pts)
        rhs = 2 * dl.rhat_md(1, pts[:, None, :] + shifts[None, :, :]).sum(axis=1)
        assert (lhs > rhs).all()


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def test_rhat_column_product_matches_np_prod_bitwise():
    # The transforms multiply the columns in order; np.prod(axis=-1) is the
    # reference, bit for bit, on batches and on single points.
    rng = stream(31)
    for m in range(1, 13):
        th = rng.random((257, m)) - 0.5
        base = 0.5 + 0.5 * np.cos(2.0 * np.pi * th)
        for delta in range(4):
            expected = np.prod(base ** delta, axis=-1)
            assert _bits(dl.rhat_md(delta, th)) == _bits(expected), (m, delta)
            one = dl.rhat_md(delta, th[3])
            assert type(one) is float and _bits(one) == _bits(expected[3]), (m, delta)
        for odd in ((), tuple(range(0, m, 2)), tuple(range(m))):
            s = ParitySmoother(m=m, odd_rows=odd)
            expected = np.prod(np.cos(2.0 * np.pi * th[:, list(odd)]), axis=-1)
            assert _bits(dl.parity_rhat(s, th)) == _bits(expected), (m, odd)
            one = dl.parity_rhat(s, th[5])
            assert type(one) is float and _bits(one) == _bits(expected[5]), (m, odd)
