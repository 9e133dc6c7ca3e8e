"""Tests of the benchmark's reference computations.

Run from the repository root:  python3 -m pytest -q bench/tests
They need only numpy: the references are checked against laws worked
out by hand and against each other, never against disclab's output.
"""

import itertools
import math
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import references as ref  # noqa: E402
from workloads import BAND  # noqa: E402

# Laws of X = A x + R worked out by hand, R iid with law (1/4, 1/2, 1/4).
# [[1, 1]]: D is -2, 0, 2 with weights 1/4, 1/2, 1/4.
HAND_1X2 = {(0,): F(1, 4), (1,): F(3, 16), (-1,): F(3, 16), (2,): F(1, 8),
            (-2,): F(1, 8), (3,): F(1, 16), (-3,): F(1, 16)}
# [[1, 1, 0], [0, 1, 1]]: D = (x1 + x2, x2 + x3) is (0, 0) for two of the
# eight colorings and each of (2, 2), (2, 0), (0, 2), (0, -2), (-2, 0),
# (-2, -2) for one.
HAND_2X3 = {(0, 0): F(1, 16), (1, 1): F(5, 128), (1, 0): F(3, 64), (2, 2): F(1, 32),
            (3, 3): F(1, 128), (2, -2): F(0), (1, -1): F(1, 32)}
A_1X2 = np.array([[1, 1]])
A_2X3 = np.array([[1, 1, 0], [0, 1, 1]])


def enumerated_law(bits):
    bits = np.asarray(bits)
    return ref.law_from_d_counts(ref.enumerate_d_counts(bits), bits.shape[1], bits.shape[0])


def test_enumeration_matches_hand_laws():
    law = enumerated_law(A_1X2)
    assert law == HAND_1X2
    law = enumerated_law(A_2X3)
    for lam, p in HAND_2X3.items():
        assert law.get(lam, 0) == p
    assert sum(law.values()) == 1


def test_type_convolution_matches_hand_laws():
    for lam, p in HAND_1X2.items():
        assert ref.point_prob_by_types(A_1X2, lam) == p
    assert ref.point_prob_by_types(A_1X2, (4,)) == 0
    for lam, p in HAND_2X3.items():
        assert ref.point_prob_by_types(A_2X3, lam) == p


@pytest.mark.parametrize("m,n,seed", [(1, 9, 0), (2, 7, 1), (2, 11, 2), (2, 12, 3)])
def test_type_convolution_matches_enumeration(m, n, seed):
    bits = (np.random.default_rng(seed).random((m, n)) < 0.5).astype(np.int64)
    law = enumerated_law(bits)
    window = range(-n - 2, n + 3)
    for lam in itertools.product(window, repeat=m):
        assert ref.point_prob_by_types(bits, lam) == law.get(lam, 0)


def test_parity_and_counts_match_direct_loop():
    bits = (np.random.default_rng(5).random((3, 10)) < 0.5).astype(np.int64)
    counts = ref.enumerate_d_counts(bits)
    odd = bits.sum(axis=1) % 2
    hits = within = 0
    best = None
    for signs in itertools.product((-1, 1), repeat=10):
        d = bits @ np.array(signs)
        hits += all(abs(int(d[i])) == odd[i] for i in range(3))
        within += int(np.abs(d).max()) <= 1
        best = int(np.abs(d).max()) if best is None else min(best, int(np.abs(d).max()))
    assert ref.parity_prob_zero(counts, 10, bits.sum(axis=1)) == F(hits, 2 ** 10 * 2 ** int(odd.sum()))
    assert ref.count_within(counts, 1) == within
    assert ref.min_disc(counts) == best


def test_column_product_matches_numpy_product():
    rng = np.random.default_rng(7)
    bits = (rng.random((4, 30)) < 0.5).astype(np.int64)
    theta = rng.random(4) - 0.5
    direct = float(np.prod(np.cos(2 * math.pi * (theta @ bits))))
    assert ref.column_product(bits, theta.tolist()) == pytest.approx(direct, rel=1e-13)


# One instance of each shape on which the benchmark compares against the
# Gaussian: m = 3, 4 in regime_invert and m = 8, 10 in wide_invert.
@pytest.mark.parametrize("m,n,seed", [(3, 1600, 11), (4, 1200, 12), (8, 533, 13), (10, 922, 14)])
def test_gaussian_within_band_of_importance_sampling(m, n, seed):
    bits = (np.random.default_rng(seed).random((m, n)) < 0.5).astype(np.int64)
    value, stderr = ref.importance_sampled_prob_zero(bits, 20000, seed)
    assert stderr < 0.01 * value
    assert abs(ref.gaussian_density(bits) / value - 1.0) <= BAND
