import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import disclab as dl
from disclab import fourier as fr
from disclab import inversion as iv
from disclab.rng import stream
from disclab.setsystem import IncidenceMatrix
from disclab.smoothing import ParitySmoother


S1 = dl.build_pmf(1)


def test_prob_exact_hand_examples():
    A = IncidenceMatrix([[1, 1]])
    assert dl.prob_exact(A, S1, [0]) == Fraction(1, 4)
    assert dl.prob_exact(A, S1, [2]) == Fraction(1, 8)
    B = IncidenceMatrix([[1]])
    assert dl.prob_exact(B, S1, [0]) == Fraction(1, 4)
    Z = IncidenceMatrix(np.zeros((1, 3), dtype=int))
    assert dl.prob_exact(Z, dl.build_pmf(0), [0]) == 1
    assert dl.prob_exact(A, S1, [9]) == 0


def test_prob_exact_refuses_large_n():
    A = dl.sample_bernoulli(2, 25, 0.5, 0)
    with pytest.raises(ValueError):
        dl.prob_exact(A, S1, [0, 0])


def test_distribution_exact_refuses_a_law_too_large_for_memory():
    # m=10, n=16: 64 928 values of A x times 3 smoother values per row bound
    # the law at 3.8e9 entries; the dict once took the process out of 7.5 GB.
    # Under a 384 MB address-space cap on the child only, the call must be
    # refused at once. One BLAS thread keeps the cap independent of the core
    # count.
    resource = pytest.importorskip("resource")
    limit = 384 * 2 ** 20
    code = ("import disclab as dl\n"
            "try:\n"
            "    dl.distribution_exact(dl.sample_bernoulli(10, 16, 0.5, 12), dl.build_pmf(1))\n"
            "except ValueError as e:\n"
            "    print(e)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(dl.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "refusing the exact law with up to 3833933472 entries > 2^20\n"


def test_prob_exact_denominator_structure():
    A = dl.sample_bernoulli(2, 6, 0.5, 8)
    pr = dl.prob_exact(A, S1, [0, 0])
    # denominator divides 2^n * 4^(m * delta)
    assert (2 ** 6 * 4 ** 2) % pr.denominator == 0


def test_distribution_sums_to_one_and_symmetry():
    rng = stream(41)
    for _ in range(5):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 11))
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        dist = dl.distribution_exact(A, S1)
        assert sum(dist.values(), Fraction(0)) == 1
        for lam, pr in dist.items():
            assert dist[tuple(-v for v in lam)] == pr
            assert max(abs(v) for v in lam) <= n + 1


def test_prob_exact_matches_direct_convolution_1d():
    # independent oracle: convolve the exact distribution of D with the
    # smoother table directly, for a single-row matrix
    A = dl.sample_bernoulli(1, 10, 0.5, 55)
    row = int(A.row_sums[0])
    # D = sum of `row` independent +-1 plus (10 - row) zeros
    ddist = {}
    for k in range(row + 1):
        ddist[2 * k - row] = Fraction(math.comb(row, k), 2 ** row)
    for lam in range(-12, 13):
        direct = sum(
            (ddist.get(lam - r, Fraction(0)) * S1.pmf(r) for r in (-1, 0, 1)),
            Fraction(0))
        assert dl.prob_exact(A, S1, [lam]) == direct


def test_prob_fourier_mc_matches_exact():
    rng = stream(42)
    for k in range(8):
        m, n = int(rng.integers(1, 4)), int(rng.integers(4, 13))
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        exact = float(dl.prob_exact(A, S1, [0] * m))
        est = dl.prob_fourier_mc(A, S1, [0] * m, 200000, 4200 + k)
        assert abs(exact - est.value) <= max(3 * est.stderr, 1e-3)


def test_prob_fourier_mc_nonzero_lambda():
    A = IncidenceMatrix([[1, 1]])
    est = dl.prob_fourier_mc(A, S1, [2], 400000, 7)
    assert abs(est.value - 0.125) <= max(3 * est.stderr, 1e-3)


@pytest.mark.parametrize("m,n", [(2, 10), (4, 1200), (8, 533)])
def test_xhat_is_even_bitwise(m, n):
    # Why prob_fourier_mc samples only the cosine part: its sine part is odd.
    A = dl.sample_bernoulli(m, n, 0.5, 3)
    th = stream(m, n).random((2000, m)) - 0.5
    assert np.array_equal(fr.xhat_batch(A, S1, -th), fr.xhat_batch(A, S1, th))


def test_prob_fourier_mc_former_random_failure():
    # Raised "imaginary part 2.782e-03 exceeds 3 stderr 8.810e-04" while the
    # noise of the (exactly zero) sine part was checked against 3 stderr.
    A = dl.sample_bernoulli(2, 10, 0.5, 3)
    est = dl.prob_fourier_mc(A, S1, [1, 1], 2000, 209)
    exact = float(dl.prob_exact(A, S1, [1, 1]))
    assert exact == pytest.approx(0.0231934, abs=1e-7)
    assert abs(est.value - exact) <= 6 * est.stderr


def test_prob_fourier_mc_never_fails_at_random():
    A = dl.sample_bernoulli(2, 10, 0.5, 3)
    for seed in range(3000):
        est = dl.prob_fourier_mc(A, S1, [1, 1], 2000, seed)
        assert math.isfinite(est.value) and est.stderr > 0.0


def test_prob_fourier_mc_unreachable_lambda():
    A = IncidenceMatrix([[1, 1]])
    est = dl.prob_fourier_mc(A, S1, [7], 200000, 11)
    assert abs(est.value) <= 3 * est.stderr


def test_prob_fourier_mc_column_permutation_invariance():
    A = dl.sample_bernoulli(3, 12, 0.5, 77)
    B = IncidenceMatrix(A.bits[:, ::-1])
    ea = dl.prob_fourier_mc(A, S1, [0, 0, 0], 100000, 5)
    eb = dl.prob_fourier_mc(B, S1, [0, 0, 0], 100000, 5)
    assert abs(ea.value - eb.value) <= max(3 * math.hypot(ea.stderr, eb.stderr), 1e-12)


def test_prob_exact_positive_implies_solver_witness():
    rng = stream(43)
    found_positive = 0
    for _ in range(10):
        m, n = int(rng.integers(1, 4)), int(rng.integers(3, 11))
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        if dl.prob_exact(A, S1, [0] * m) > 0:
            found_positive += 1
            best, witness = dl.exhaustive_min_disc(A)
            assert best <= 1
            assert dl.disc_of_coloring(A, witness) <= 1
            res = dl.random_search(A, 1, 200000, seed=9)
            assert res.found
    assert found_positive > 0


def test_even_variant_examples():
    A = IncidenceMatrix([[1, 1]])  # even row: R = 0, X = D
    exact = dl.prob_exact(A, ParitySmoother.from_matrix(A), [0])
    assert exact == Fraction(1, 2)
    est = dl.prob_even_variant(A, 200000, 13)
    assert abs(est.value - 0.5) <= max(3 * est.stderr, 1e-3)

    B = IncidenceMatrix([[1]])  # odd row
    exactB = dl.prob_exact(B, ParitySmoother.from_matrix(B), [0])
    assert exactB == Fraction(1, 2)
    estB = dl.prob_even_variant(B, 200000, 14)
    assert abs(estB.value - 0.5) <= max(3 * estB.stderr, 1e-3)

    Z = IncidenceMatrix(np.zeros((2, 3), dtype=int))
    estZ = dl.prob_even_variant(Z, 1000, 15)
    assert estZ.value == 1.0 and estZ.stderr == 0.0


def test_even_variant_random_instances():
    rng = stream(44)
    for k in range(6):
        m, n = int(rng.integers(1, 4)), int(rng.integers(2, 10))
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        exact = float(dl.prob_exact(A, ParitySmoother.from_matrix(A), [0] * m))
        est = dl.prob_even_variant(A, 200000, 4400 + k)
        assert abs(exact - est.value) <= max(3 * est.stderr, 1e-3)


def test_parity_forces_even_support():
    A = IncidenceMatrix([[1, 1, 1], [1, 1, 0]])
    dist = dl.distribution_exact(A, ParitySmoother.from_matrix(A))
    for lam, pr in dist.items():
        if pr != 0:
            assert all(v % 2 == 0 for v in lam)


def test_cancellation_check():
    re, im = dl.cancellation_check([0, 0], 500, 21)
    assert re.value == 1.0 and re.stderr == 0.0
    assert im.value == 0.0
    for t in ([1], [3, -2], [0, 2]):
        re, im = dl.cancellation_check(t, 100000, 22)
        assert abs(re.value) <= 3 * re.stderr
        assert abs(im.value) <= 3 * im.stderr


def test_point_probability_report():
    A = IncidenceMatrix([[1, 1]])
    est = dl.prob_fourier_mc(A, S1, [0], 50000, 3)
    pp = dl.PointProbability(lam=(0,), exact=Fraction(1, 4), estimate=est)
    d = pp.to_dict()
    assert d["exact"] == "1/4"
    assert d["abs_gap"] == pytest.approx(abs(0.25 - est.value))


def test_three_region_assembly_flags():
    A = dl.sample_bernoulli(4, 1200, 0.5, 31)
    rep = dl.three_region_assembly(A, S1, 30000, 37)
    assert rep.central_positive
    assert rep.spike_ok
    assert rep.far_ok
    assert rep.witness_ok
    assert rep.radius == pytest.approx(1 / (16 * math.sqrt(2)))
    assert rep.far.estimate.value < rep.central.value


def test_three_region_ratio_grows_with_n():
    ratios = []
    for n in (600, 1200, 2400):
        A = dl.sample_bernoulli(4, n, 0.5, 41)
        rep = dl.three_region_assembly(A, S1, 20000, 43)
        ratios.append(math.log(rep.central.value) - rep.far.log_mean)
    assert ratios[0] < ratios[1] < ratios[2]


def test_prob_fourier_mc_adaptive_budget():
    A = IncidenceMatrix([[1, 1]])
    # loose target: stops after the first block instead of spending the cap
    early = dl.prob_fourier_mc(A, S1, [0], 10 ** 6, 9, stderr_target=1e-2)
    assert early.samples < 10 ** 6
    assert early.stderr <= 1e-2
    # unreachable target: spends the full cap
    capped = dl.prob_fourier_mc(A, S1, [0], 2 * 65536, 9, stderr_target=1e-12)
    assert capped.samples == 2 * 65536
    assert abs(early.value - 0.25) <= max(3 * early.stderr, 1e-3)


def test_shell_sum_identity_matches_enumeration():
    # the assembly shell estimator collapses sum over nonzero shifts s of
    # |xhat(theta+s)| to |dhat(theta)| times a factorized transform sum;
    # verify against direct enumeration of all 3^m - 1 shifts
    from disclab.smoothing import half_lattice_points

    rng = stream(61)
    for delta in (1, 2):
        spec = dl.build_pmf(delta)
        A = dl.sample_bernoulli(3, 60, 0.5, int(rng.integers(2 ** 62)))
        shifts = half_lattice_points(3)
        for _ in range(5):
            th = rng.uniform(-0.05, 0.05, size=3)
            brute = sum(abs(dl.xhat(A, spec, th + s)) for s in shifts)
            g0 = (0.5 + 0.5 * np.cos(2 * np.pi * th)) ** delta
            gh = (0.5 - 0.5 * np.cos(2 * np.pi * th)) ** delta
            factored = abs(dl.dhat(A, th)) * (np.prod(g0 + 2 * gh) - np.prod(g0))
            assert factored == pytest.approx(brute, rel=1e-10, abs=1e-13)
