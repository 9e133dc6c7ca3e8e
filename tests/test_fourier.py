import math
import multiprocessing as mp
import sys
import threading
import time

import numpy as np
import pytest

import disclab as dl
from disclab import fourier as fr
from disclab.rng import stream
from disclab.setsystem import IncidenceMatrix
from disclab.smoothing import _row_product, half_lattice_points


def test_dhat_examples():
    Z = IncidenceMatrix(np.zeros((2, 5), dtype=int))
    assert dl.dhat(Z, [0.3, -0.2]) == 1.0
    A = IncidenceMatrix([[1]])
    assert dl.dhat(A, [0.125]) == pytest.approx(math.cos(math.pi / 4), abs=1e-15)
    I2 = IncidenceMatrix(np.eye(2, dtype=int))
    assert dl.dhat(I2, [0.25, 1 / 6]) == pytest.approx(0.0, abs=1e-12)


def test_dhat_dimension_mismatch():
    A = IncidenceMatrix([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        dl.dhat(A, [0.1, 0.2, 0.3])


def test_dhat_log_domain_path_matches_direct():
    # n > 64 goes through sign + sum of log|cos|; compare against mpath-free
    # products on a matrix small enough for both.
    A = dl.sample_bernoulli(3, 100, 0.5, 11)
    th = np.array([0.01, -0.03, 0.02])
    ip = th @ A.columns_f64
    direct = float(np.prod(np.cos(2 * np.pi * ip)))
    assert dl.dhat(A, th) == pytest.approx(direct, rel=1e-12)


def test_dhat_bruteforce_examples():
    Z = IncidenceMatrix(np.zeros((1, 4), dtype=int))
    assert dl.dhat_bruteforce(Z, [0.3]) == 1.0
    A = IncidenceMatrix([[1, 1]])
    # average of cos(2 pi d / 4) over d in {-2, 0, 2} with weights 1/4, 1/2, 1/4
    assert dl.dhat_bruteforce(A, [0.25]) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        dl.dhat_bruteforce(dl.sample_bernoulli(1, 25, 0.5, 0), [0.1])


def test_dhat_matches_bruteforce_on_random_instances():
    rng = stream(21)
    worst = 0.0
    for _ in range(40):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 17))
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        th = rng.uniform(-0.5, 0.5, size=m)
        worst = max(worst, abs(dl.dhat(A, th) - dl.dhat_bruteforce(A, th)))
    assert worst <= 1e-10


def test_dhat_partial_monotone_and_edges():
    rng = stream(22)
    A = dl.sample_bernoulli(3, 30, 0.5, 4)
    th = rng.uniform(-0.5, 0.5, size=3)
    vals = [dl.dhat_partial(A, th, k) for k in range(31)]
    assert vals[0] == 1.0
    assert vals[30] == pytest.approx(abs(dl.dhat(A, th)), abs=1e-14)
    assert all(vals[k + 1] <= vals[k] + 1e-14 for k in range(30))
    with pytest.raises(ValueError):
        dl.dhat_partial(A, th, 31)


def _cos_turns(x):
    """The kernel's cos(2 pi x) for x in turns, written out: t = tan(pi r) of
    the exact reduction r = x - rint(x), then 1 - 2 t^2 / (1 + t^2)."""
    x = np.asarray(x, dtype=np.float64)
    t = np.tan(np.pi * (x - np.rint(x)))
    t2 = t * t
    return 1.0 - (t2 + t2) / (1.0 + t2)


def _sin_turns(x):
    """The kernel's sin(2 pi x) for x in turns: 2 t / (1 + t^2)."""
    x = np.asarray(x, dtype=np.float64)
    t = np.tan(np.pi * (x - np.rint(x)))
    return (t + t) / (1.0 + t * t)


def _column_product(bits, theta):
    """Reference: (prod_j f_j, sum_j log|f_j|) with f_j = cos(2 pi <A^j, theta>),
    one column at a time, each factor from its angle in turns by the
    kernel's cosine."""
    turns = [sum(theta[i] * bits[i][j] for i in range(len(bits))) for j in range(len(bits[0]))]
    prod, log_abs = 1.0, 0.0
    for f in _cos_turns(turns).tolist():
        prod *= f
        log_abs += math.log(abs(f)) if f != 0.0 else -math.inf
    return prod, log_abs


def _repeated_columns(reps):
    """m=2 matrix whose columns (1,0), (0,1), (1,1), (0,0) appear reps[k] times."""
    cols = [(1, 0)] * reps[0] + [(0, 1)] * reps[1] + [(1, 1)] * reps[2] + [(0, 0)] * reps[3]
    return IncidenceMatrix(np.array(cols, dtype=int).T)


# Points where cos(2 pi theta_1), cos(2 pi theta_2) and cos(2 pi (theta_1 + theta_2))
# take every combination of signs; the first has all three negative.
SIGN_POINTS = np.array([[0.4, 0.3], [0.4, 0.05], [-0.35, 0.45], [0.1, -0.2],
                        [0.3, 0.3], [0.05, 0.1], [-0.45, -0.3], [0.2, 0.45]])


@pytest.mark.parametrize("reps", [(2, 3, 1, 1), (3, 2, 4, 0), (40, 41, 7, 2), (51, 64, 33, 9)])
def test_kernel_matches_column_product_with_repeated_columns(reps):
    # even and odd multiplicities at negative cosines, n on both sides of 64
    A = _repeated_columns(reps)
    bits = A.bits.tolist()
    d = fr.dhat_batch(A, SIGN_POINTS)
    la = fr.dhat_log_abs_batch(A, SIGN_POINTS)
    for b, th in enumerate(SIGN_POINTS):
        prod, log_abs = _column_product(bits, th)
        assert d[b] == pytest.approx(prod, rel=1e-12, abs=1e-300)
        assert math.copysign(1.0, d[b]) == math.copysign(1.0, prod)
        assert la[b] == pytest.approx(log_abs, rel=1e-12)
        assert dl.dhat(A, th) == d[b]
        for k in (1, A.n // 2, A.n):
            part, _ = _column_product([row[:k] for row in bits], th)
            assert dl.dhat_partial(A, th, k) == pytest.approx(abs(part), rel=1e-12)


def test_kernel_exactly_zero_factor(monkeypatch):
    # tan(pi / 4) rounds below one, so the kernel's cosine of a quarter turn
    # is not exactly 0.0: tangents within 1e-12 of +-1 are rounded to +-1,
    # whose cosine is 0.0, in the kernel and in the reference alike.
    real_tan = np.tan

    def tan_with_ones(x, *args, **kwargs):
        out = real_tan(x, *args, **kwargs)
        near = np.abs(np.abs(out) - 1.0) < 1e-12
        out[near] = np.sign(out[near])
        return out

    monkeypatch.setattr(np, "tan", tan_with_ones)
    for reps in ((2, 3, 1, 1), (40, 41, 7, 2)):
        A = _repeated_columns(reps)
        th = np.array([0.25, 0.1])  # every (1, 0) column has factor cos(pi / 2)
        prod, log_abs = _column_product(A.bits.tolist(), th)
        assert prod == 0.0 and log_abs == -math.inf
        assert fr.dhat_batch(A, th[None, :])[0] == 0.0
        assert dl.dhat(A, th) == 0.0
        assert fr.dhat_log_abs_batch(A, th[None, :])[0] == -math.inf
        assert dl.dhat_partial(A, th, A.n) == 0.0
        assert dl.dhat_partial(A, th, reps[0] - 1) == 0.0
        # the (0, 1) columns alone have no zero factor
        B = _repeated_columns((0, reps[1], 0, 0))
        assert dl.dhat(B, th) == pytest.approx(math.cos(0.2 * math.pi) ** reps[1], rel=1e-12)


def test_kernel_clamps_far_from_origin():
    A = dl.sample_bernoulli(3, 1500, 0.5, 8)
    bits = A.bits.tolist()
    for th in ([0.2, -0.3, 0.15], [-0.45, 0.35, 0.2]):
        prod, log_abs = _column_product(bits, th)
        assert log_abs < fr.LOG_CLAMP
        floor = math.exp(fr.LOG_CLAMP)
        assert fr.dhat_log_abs_batch(A, [th])[0] == pytest.approx(log_abs, rel=1e-12)
        d = dl.dhat(A, th)
        assert abs(d) == floor
        assert math.copysign(1.0, d) == math.copysign(1.0, prod)
        # dhat_partial takes the 1500 raw columns, so the angle-addition
        # path. At the second point -0.45 + 0.2 is exactly -1/4, and that
        # path's factor cos(2 pi 0.2) cos(2 pi 0.45) - sin(2 pi 0.2) sin(2 pi
        # 0.45) comes out exactly zero.
        assert dl.dhat_partial(A, th, A.n) == (floor if th[0] == 0.2 else 0.0)


def _gate(m):
    """The 4 2^(m - m // 2) values per point of the transform kernel's
    stacked half tables."""
    return 4 << (m - m // 2)


def _few_types(m, types):
    """Whether the transform kernel takes its libm path, the table of all
    2^m subset angles: when neither that table nor the column types
    outnumber the stacked half tables' values per point, so only at
    m <= 5. Otherwise it takes the angle-addition path."""
    return max(types, 1 << m) <= _gate(m)


def _first_table_types(m):
    """The fewest column types (at least one) that take the angle-addition
    path at m: one from m = 6, else the first above the gate."""
    return 1 if (1 << m) > _gate(m) else _gate(m) + 1


def _reference_rows(V, counts, signed, thetas):
    """(la, sign) of the test-side reference of the path the kernel takes."""
    if _few_types(*V.shape):
        return _einsum_rows(V, counts, signed, thetas)
    return _per_step_sign_rows(V, counts, signed, thetas)[:2]


# Instances on either path of the transform kernel: 29 column types at
# m = 5 (the subset-angle table) and 147 at m = 8 (angle-addition
# tables), both with odd and even multiplicities.
LIBM_INSTANCE, TABLE_INSTANCE = (5, 60, 2), (8, 200, 2)


def _kernel_instances():
    mats = [dl.sample_bernoulli(m, n, 0.5, seed) for m, n, seed in (LIBM_INSTANCE, TABLE_INSTANCE)]
    types = [A.column_types[1] for A in mats]
    assert types[0].size == 29 and types[1].size == 147
    assert _few_types(5, types[0].size) and not _few_types(8, types[1].size)
    assert all((c % 2 == 1).any() and (c % 2 == 0).any() for c in types)
    return mats


def test_log_abs_kernel_keeps_the_bits_of_abs_dhat():
    # dhat_log_abs_batch asks the kernel for no sign; on either path the
    # clamped exp of its values is |dhat_batch| bit for bit.
    for A in _kernel_instances():
        th = stream(12).random((2000, A.m)) - 0.5
        assert _hex(fr._exp_clamped(fr.dhat_log_abs_batch(A, th))) == _hex(np.abs(fr.dhat_batch(A, th)))


def _wide_instance():
    """m = 10, n = ceil(4 m^2 ln m) = 922: 602 column types, table path."""
    A = dl.sample_bernoulli(10, 922, 0.5, 5)
    assert A.column_types[1].size == 602 and 602 > _gate(10)
    return A


def test_table_kernel_near_origin_matches_column_product():
    A = _wide_instance()
    rng = stream(31)
    g = rng.standard_normal((40, A.m))
    radius = 2.0 / (math.pi * math.sqrt(A.n))
    th = g / np.linalg.norm(g, axis=1, keepdims=True) * radius * rng.random((40, 1)) ** (1 / A.m)
    d, la = fr.dhat_batch(A, th), fr.dhat_log_abs_batch(A, th)
    bits = A.bits.tolist()
    for b in range(len(th)):
        prod, _ = _column_product(bits, th[b])
        assert d[b] == pytest.approx(prod, rel=1e-12)
        assert math.exp(la[b]) == pytest.approx(abs(prod), rel=1e-12)


def test_table_kernel_error_on_cube():
    # Against a long double evaluation on 10^4 cube points. The error of
    # log|dhat| is about sum_v counts[v] err_v / |cos_v|, so the worst point
    # is the one with a factor nearest zero, and which path rounds that one
    # factor better is chance. Each point's error is therefore taken in units
    # of its conditioning u sum_v counts[v] / |cos_v|; the table path's worst
    # must stay within 4 times the libm path's (its test-side reference,
    # `_einsum_rows`), and so must its median error. Every sign must be right.
    if np.finfo(np.longdouble).precision <= np.finfo(np.float64).precision:
        pytest.skip("long double is no wider than double on this platform")
    A = _wide_instance()
    V, counts = A.column_types
    th = stream(32).random((10 ** 4, A.m)) - 0.5
    two_pi = 8 * np.arctan(np.longdouble(1))
    ref, kappa, sign, libm_la = [], [], [], []
    for part in np.array_split(th, 5):
        cos = np.cos(two_pi * (part.astype(np.longdouble) @ V.astype(np.longdouble)))
        ref.append((np.log(np.abs(cos)) * counts).sum(axis=1))
        kappa.append((counts / np.abs(cos)).sum(axis=1).astype(np.float64) * 2.0 ** -53)
        sign.append(1 - 2 * (np.count_nonzero((cos < 0) & (counts % 2 == 1), axis=1) % 2))
        libm_la.append(_einsum_rows(V, counts, False, part)[0])
    ref, kappa, sign, libm_la = (np.concatenate(x) for x in (ref, kappa, sign, libm_la))
    assert (sign < 0).any() and (sign > 0).any()
    assert np.array_equal(np.sign(fr.dhat_batch(A, th)), sign)
    table = np.abs(fr.dhat_log_abs_batch(A, th) - ref).astype(np.float64)
    libm = np.abs(libm_la - ref).astype(np.float64)
    assert (table / kappa).max() <= 4 * (libm / kappa).max()
    assert np.median(table) <= 4 * np.median(libm)


@pytest.mark.parametrize("m, n, seed", [(2, 300, 1), (4, 400, 2), (6, 259, 1), (8, 533, 3),
                                        (10, 922, 5)])
def test_kernel_accuracy_against_long_double_column_product(m, n, seed):
    # An oracle that shares none of the kernel's rounding: each column
    # type's angle and cosine in long double, after the same exact turn
    # reduction, and the weighted sum of log|cos|. Near the origin (within
    # 0.01) log|dhat| must be within 1e-12; on the cube its error must be
    # within 8 eps of the conditioning sum_v counts[v] / |cos_v|.
    if np.finfo(np.longdouble).precision <= np.finfo(np.float64).precision:
        pytest.skip("long double is no wider than double on this platform")
    A = dl.sample_bernoulli(m, n, 0.5, seed)
    V, counts = A.column_types
    assert (V.shape[1] > _gate(m)) == (m >= 6)  # table path at m = 6, 8, 10
    two_pi = 8 * np.arctan(np.longdouble(1))
    eps = np.finfo(np.float64).eps
    for near, th in ((True, fr.Region.origin_ball(m, 0.01).sample(stream(53, m), 2000)),
                     (False, fr.Region.full_cube(m).sample(stream(54, m), 4000))):
        turns = th.astype(np.longdouble) @ V.astype(np.longdouble)
        cos = np.cos(two_pi * (turns - np.rint(turns)))
        ref = (np.log(np.abs(cos)) * counts).sum(axis=1)
        err = np.abs(fr.dhat_log_abs_batch(A, th) - ref).astype(np.float64)
        if near:
            assert err.max() <= 1e-12, (m, err.max())
        else:
            kappa = (counts / np.abs(cos)).sum(axis=1).astype(np.float64)
            assert (err / kappa).max() <= 8 * eps, (m, (err / kappa).max() / eps)


def test_prob_fourier_mc_independent_of_kernel_chunk(monkeypatch):
    # On the libm instance a BLAS matmul for the inner products already
    # changes the estimate between chunk sizes 1 and 4099; on the table
    # instance the same bound also cuts the blocks inside each slice.
    s = dl.build_pmf(1)
    mats = _kernel_instances()
    base = [dl.prob_fourier_mc(A, s, [0] * A.m, 3000, 11) for A in mats]
    for chunk in (1, 1000, 4099):
        monkeypatch.setattr(fr, "KERNEL_CHUNK", chunk)
        monkeypatch.setattr(fr, "TABLE_CHUNK", chunk)
        assert [dl.prob_fourier_mc(A, s, [0] * A.m, 3000, 11) for A in mats] == base, chunk


def test_estimates_independent_of_thread_count(monkeypatch):
    # Both kernel instances, with a third of the points on the table one
    # (its per-call set-up is dearer at one row per slice); every batch is
    # split across the pool, over thread counts 1-3 crossed with three chunk
    # bounds (on the table path also the bound on its blocks). At 29 and 147
    # column types the bounds give one-row slices, slices of a few rows, and
    # slices of tens of rows, so each bound slices differently.
    s = dl.build_pmf(1)

    def run(A, k):
        th = stream(5).random((k, A.m)) - 0.5
        far = dl.far_region_integral(A, 0.1, k, 4, include_rhat_delta=1)
        asm = dl.three_region_assembly(A, s, 2 * k // 3, 6)
        return (
            dl.prob_fourier_mc(A, s, [0] * A.m, k, 11),
            (far.estimate, far.log_mean),
            (asm.central, asm.near, asm.far.estimate, asm.far.log_mean, asm.witness),
            fr.dhat_batch(A, th).tolist(),
        )

    runs = list(zip(_kernel_instances(), (3000, 1000)))
    base = [run(A, k) for A, k in runs]
    assert all(min(b[3]) < 0.0 < max(b[3]) for b in base)
    split, sizes = fr._map_rows, set()

    def recorded_split(fn, A, thetas):
        def rows(part):
            sizes.add(len(part))
            return fn(part)
        return split(rows, A, thetas)

    monkeypatch.setattr(fr, "_map_rows", recorded_split)
    monkeypatch.setattr(fr, "PARALLEL_MIN_WORK", 0)
    for workers in (1, 2, 3):
        monkeypatch.setattr(fr, "_worker_count", lambda: workers)
        slicings = []
        for chunk in (1, 1000, 4099):
            monkeypatch.setattr(fr, "KERNEL_CHUNK", chunk)
            monkeypatch.setattr(fr, "TABLE_CHUNK", chunk)
            sizes.clear()
            assert [run(A, k) for A, k in runs] == base, (workers, chunk)
            slicings.append(frozenset(sizes))
        assert len(set(slicings)) == 3, (workers, slicings)


def test_kernel_concurrent_callers_share_the_pool(monkeypatch):
    # More callers than cores, each splitting its batches, with pool sizes
    # that differ between callers so the pool is rebuilt while in use.
    A = dl.sample_bernoulli(8, 60, 0.5, 2)
    batches = [stream(7, i).random((4000, 8)) - 0.5 for i in range(4)]
    expected = [fr.dhat_batch(A, th) for th in batches]
    monkeypatch.setattr(fr, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(fr, "KERNEL_CHUNK", 4099)
    monkeypatch.setattr(fr, "_worker_count",
                        lambda: 2 + int(threading.current_thread().name[-1]) % 2)
    results = {}

    def caller(c):
        for _ in range(2):
            for i, th in enumerate(batches):
                results.setdefault((c, i), []).append(fr.dhat_batch(A, th))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(c,), name=f"caller-{c}")
                   for c in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 5 * len(batches)
    for (c, i), got in results.items():
        assert len(got) == 2 and all(np.array_equal(g, expected[i]) for g in got)


def test_kernel_pool_rebuilt_in_forked_child():
    A = dl.sample_bernoulli(8, 60, 0.5, 2)
    th = stream(6).random((4000, 8)) - 0.5
    expected = fr.dhat_batch(A, th)  # builds the pool in this process
    ctx = mp.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_dhat_into_queue, args=(A, th, queue))
    child.start()
    try:
        got = queue.get(timeout=60)
    finally:
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert np.array_equal(got, expected)


def _dhat_into_queue(A, th, queue):
    queue.put(fr.dhat_batch(A, th))


def test_dhat_periodicity_properties():
    rng = stream(23)
    for _ in range(20):
        m, n = int(rng.integers(1, 5)), int(rng.integers(1, 200))
        A = dl.sample_bernoulli(m, n, 0.4, int(rng.integers(2 ** 62)))
        th = rng.uniform(-0.5, 0.5, size=m)
        v = dl.dhat(A, th)
        assert abs(v) <= 1.0
        assert dl.dhat(A, -th) == pytest.approx(v, abs=1e-12)
        shift = rng.integers(-2, 3, size=m).astype(float)
        assert dl.dhat(A, th + shift) == pytest.approx(v, abs=1e-9)
        s = half_lattice_points(m)[int(rng.integers(3 ** m - 1))]
        assert abs(dl.dhat(A, th + s)) == pytest.approx(abs(v), abs=1e-9)


def test_xhat_examples():
    A = IncidenceMatrix([[1]])
    s1 = dl.build_pmf(1)
    assert dl.xhat(A, s1, [0.0]) == 1.0
    s0 = dl.build_pmf(0)
    th = [0.21]
    assert dl.xhat(A, s0, th) == dl.dhat(A, th)
    expected = math.cos(math.pi / 4) * (0.5 + 0.5 * math.cos(math.pi / 4))
    assert dl.xhat(A, s1, [0.125]) == pytest.approx(expected, abs=1e-12)


def test_d2_matches_exhaustive_minimum():
    # The squared distance to the half-integral lattice, on hand examples
    # and against the minimum over every lattice point of the cube.
    examples = np.array([[0.0, 0.0], [0.25, 0.25], [0.4, 0.0]])
    assert fr._lattice_distance_sq(examples) == pytest.approx([0.0, 0.125, 0.01])
    rng = stream(24)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        th = rng.uniform(-0.5, 0.5, size=m)
        pts = np.vstack([np.zeros((1, m)), half_lattice_points(m)])
        brute_full = np.linalg.norm(th[None, :] - pts, axis=1).min()
        d2 = fr._lattice_distance_sq(th[None, :])[0]
        assert math.sqrt(d2) == pytest.approx(brute_full, abs=1e-12)


def test_gaussian_fhat_and_density():
    assert dl.gaussian_fhat(np.eye(1), [0.0]) == 1.0
    assert dl.gaussian_fhat(np.eye(1), [1.0]) == pytest.approx(math.exp(-2 * math.pi ** 2))
    assert dl.gaussian_fhat(2 * np.eye(2), [0.5, 0.0]) == pytest.approx(math.exp(-math.pi ** 2))
    assert dl.gaussian_density_zero(np.eye(1)) == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert dl.gaussian_density_zero(np.eye(2)) == pytest.approx(1 / (2 * math.pi))
    dens = [dl.gaussian_density_zero(r * np.eye(2)) for r in (1, 2, 4, 8)]
    assert all(b < a for a, b in zip(dens, dens[1:]))
    with pytest.raises(ValueError):
        dl.gaussian_fhat(np.array([[1.0, 2.0], [0.0, 1.0]]), [0.1, 0.1])
    with pytest.raises(ValueError):
        dl.gaussian_fhat(-np.eye(2), [0.1, 0.1])


def test_integrate_mc_constant_and_ball_volume():
    est = dl.integrate_mc(lambda p: np.ones(len(p)), fr.Region.full_cube(3), 2000, 1)
    assert est.value == 1.0 and est.stderr == 0.0 and est.samples == 2000
    ball = fr.Region.origin_ball(2, 0.3)
    est = dl.integrate_mc(lambda p: np.ones(len(p)), ball, 4000, 1)
    assert est.value == pytest.approx(math.pi * 0.09, abs=max(3 * est.stderr, 1e-12))
    quarter = fr.Region.quarter_cube(2)
    est = dl.integrate_mc(lambda p: np.ones(len(p)), quarter, 4000, 1)
    assert est.value == pytest.approx(0.25, abs=1e-12)


def test_integrate_mc_gaussian_ball_floor():
    m, r = 2, 4.0
    est = dl.integrate_mc(
        lambda p: dl.gaussian_fhat(r * np.eye(m), p),
        fr.Region.origin_ball(m, math.sqrt(m / r) / math.pi), 100000, 3)
    assert est.value >= 0.5 * (2 * math.pi * r) ** (-m / 2) - 3 * est.stderr


def test_integrate_mc_deterministic_and_block_invariant(monkeypatch):
    f = lambda p: np.cos(2 * np.pi * p[:, 0])  # noqa: E731
    a = dl.integrate_mc(f, fr.Region.full_cube(2), 30000, 9)
    b = dl.integrate_mc(f, fr.Region.full_cube(2), 30000, 9)
    assert a == b
    # block scheduling does not change the drawn points, only the batching
    monkeypatch.setattr(fr, "MC_BLOCK", 7000)
    c = dl.integrate_mc(f, fr.Region.full_cube(2), 30000, 9)
    assert c.value != a.value  # different block structure = different stream split
    assert abs(c.value - a.value) <= 3 * (a.stderr + c.stderr)


def test_integrate_mc_adaptive_stop_reports_scaled_stderr(monkeypatch):
    monkeypatch.setattr(fr, "MC_BLOCK", 1000)
    region = fr.Region.quarter_cube(3)  # volume 1/8
    f = lambda p: np.cos(2 * np.pi * p[:, 0]) + p[:, 1]  # noqa: E731
    fixed = {c: dl.integrate_mc(f, region, c, 4) for c in range(1000, 5000, 1000)}
    # met first after 3000 samples, which is not a checkpoint (1000, 2000, 4000, ...);
    # the unscaled stderr at 4000 samples (8x the reported one) is far above it
    target = fixed[3000].stderr * 1.0001
    assert min(fixed[1000].stderr, fixed[2000].stderr) > target >= fixed[4000].stderr
    assert fixed[4000].stderr * 8 > target
    drawn = []

    def counted(p):
        drawn.append(len(p))
        return f(p)

    est = dl.integrate_mc(counted, region, 10 ** 6, 4, stderr_target=target)
    assert est == fixed[4000]
    assert est.samples == sum(drawn) == 4000
    # an unreachable target spends the whole cap, including its partial block
    capped = dl.integrate_mc(f, region, 5500, 4, stderr_target=1e-12)
    assert capped == dl.integrate_mc(f, region, 5500, 4)
    assert capped.samples == 5500


def test_integrate_mc_rejects_bad_arguments():
    cube = fr.Region.full_cube(2)
    # Not one value per point: too few, a scalar, a column, too many.
    for f in (lambda p: np.ones(3), lambda p: 1.0, lambda p: np.ones((len(p), 1)),
              lambda p: np.ones(len(p) + 1)):
        with pytest.raises(ValueError, match="integrand returned shape"):
            dl.integrate_mc(f, cube, 10, 1)
    ones = lambda p: np.ones(len(p))
    for target in (-1e-3, -math.inf, math.nan):
        with pytest.raises(ValueError, match="stderr_target must be nonnegative"):
            dl.integrate_mc(ones, cube, 10, 1, stderr_target=target)
    for samples in (10.0, 1.5, "10", None):
        with pytest.raises(ValueError, match="samples must be an integer"):
            dl.integrate_mc(ones, cube, samples, 1)
    # The edges that stay valid: a zero or infinite target, a numpy count.
    assert dl.integrate_mc(ones, cube, np.int64(10), 1, stderr_target=0.0).samples == 10
    assert dl.integrate_mc(ones, cube, 10, 1, stderr_target=math.inf).samples == 10


def test_nonfinite_radius_and_delta_rejected():
    for radius in (math.nan, math.inf, -math.inf, 0.0, -1.0):
        with pytest.raises(ValueError, match="ball radius must be positive and finite"):
            fr.Region.origin_ball(2, radius)
    with pytest.raises(ValueError, match="ball radius must be positive and finite"):
        fr.Region(fr.RegionKind.ORIGIN_BALL, 2)
    assert fr.Region.origin_ball(2, 4.0).volume() == pytest.approx(16 * math.pi)
    A = dl.sample_bernoulli(3, 50, 0.5, 1)
    for delta in (math.nan, math.inf, -math.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            dl.far_region_integral(A, delta, 100, 1)


def test_far_membership_by_lattice_distance():
    pts = np.array([[0.0, 0.0], [0.25, 0.25], [0.45, 0.0], [0.05, 0.0]])
    far = fr._lattice_distance_sq(pts) >= 0.1 ** 2
    assert far.tolist() == [False, True, False, False]
    # an indicator integrand over the cube estimates the far region's volume
    est = dl.integrate_mc(lambda p: (fr._lattice_distance_sq(p) >= 0.1 ** 2) * 1.0,
                          fr.Region.full_cube(2), 50000, 5)
    assert 0.0 < est.value < 1.0


def test_check_quadratic_approx_zero_and_scalar():
    A = dl.sample_bernoulli(1, 1, 1.0, 0)
    rep = fr.check_quadratic_approx(A, [0.0])
    assert rep.ok and rep.log_dhat == 0.0 and rep.quad_form == 0.0

    rep = fr.check_quadratic_approx(A, [0.02])
    resid = abs(rep.log_dhat + rep.quad_form)
    assert resid == pytest.approx(
        abs(math.log(math.cos(0.04 * math.pi)) + 2 * math.pi ** 2 * 0.0004), abs=1e-15)
    assert rep.ok and resid <= rep.bound


def test_check_quadratic_approx_reports_precondition_failures():
    A = dl.sample_bernoulli(4, 50, 0.5, 1)
    rep = fr.check_quadratic_approx(A, [0.3, 0.0, 0.0, 0.0])
    assert rep.ok is None
    assert any("theta norm" in f for f in rep.failures)


def test_check_quadratic_approx_rejects_zero_t():
    # p = 0 is a valid instance, but t = p m = 0 leaves no radius 1/(16 sqrt t).
    A = dl.sample_bernoulli(3, 100, 0.0, 3)
    with pytest.raises(ValueError, match="t = p m is zero"):
        fr.check_quadratic_approx(A, [0.001] * 3)


def test_one_factor_exact_examples():
    assert fr.one_factor_abs_cos_exact([0.0, 0.0], 0.3) == pytest.approx(1.0)
    v = fr.one_factor_abs_cos_exact([0.25], 0.5)
    assert v == pytest.approx(0.5)
    assert v <= 1 - (math.pi ** 2 / 4) * 0.5 * 0.25 ** 2
    v2 = fr.one_factor_abs_cos_exact([0.125, 0.125], 0.5)
    hand = np.mean([abs(math.cos(2 * math.pi * (a1 * 0.125 + a2 * 0.125)))
                    for a1 in (0, 1) for a2 in (0, 1)])
    assert v2 == pytest.approx(hand)
    assert v2 <= fr.decay_bound_summary([0.125, 0.125], 0.5)
    with pytest.raises(ValueError):
        fr.one_factor_abs_cos_exact(np.zeros(21), 0.5)


def test_one_factor_decay_bounds_random():
    rng = stream(31)
    for _ in range(150):
        m = int(rng.integers(1, 11))
        p = float(rng.uniform(0.0, 0.5))
        th = rng.uniform(-0.25, 0.25, size=m)
        e_plain = fr.one_factor_abs_cos_exact(th, p)
        assert e_plain <= fr.decay_bound_large_entry(th, p) + 1e-12
        assert e_plain <= fr.decay_bound_summary(th, p) + 1e-12
        nsq = float(th @ th)
        if p > 0 and p * nsq > fr.CENTERED_DECAY_B:
            th = th * math.sqrt(fr.CENTERED_DECAY_B / (p * nsq))
        s = float(rng.uniform(-math.pi, math.pi))
        e_shift = fr.one_factor_centered_exact(th, p, s)
        assert e_shift <= fr.decay_bound_centered(th, p) + 1e-12


def test_spike_dominance_examples():
    s1 = dl.build_pmf(1)
    Z1 = IncidenceMatrix(np.zeros((1, 4), dtype=int))
    rep = dl.spike_dominance_x(Z1, s1, [0.01])
    # off-origin tail is 2 (rhat(0.51) + rhat(-0.49)) since dhat = 1
    expect_rhs = 2 * (dl.rhat_1d(1, 0.51) + dl.rhat_1d(1, -0.49))
    assert rep.rhs == pytest.approx(expect_rhs, abs=1e-15)
    assert rep.dominance and rep.exhaustive and rep.in_domain
    assert rep.periodicity_dev <= 1e-12

    rep0 = dl.spike_dominance_x(Z1, s1, [0.0])
    assert rep0.lhs == 1.0 and rep0.rhs == 0.0 and rep0.dominance

    with pytest.raises(ValueError):
        dl.spike_dominance_x(Z1, dl.build_pmf(2), [0.0])


def test_spike_dominance_random_instances():
    s1 = dl.build_pmf(1)
    rng = stream(32)
    for k in range(10):
        A = dl.sample_bernoulli(6, 200, 0.5, int(rng.integers(2 ** 62)))
        g = rng.standard_normal(6)
        th = g / np.linalg.norm(g) * float(rng.random()) ** (1 / 6) / 16.0
        rep = dl.spike_dominance_x(A, s1, th)
        assert rep.dominance and rep.exhaustive
        assert rep.periodicity_dev <= 1e-10
        assert rep.terms == 3 ** 6 - 1


def test_spike_dominance_sampled_fallback():
    s1 = dl.build_pmf(1)
    A = dl.sample_bernoulli(14, 60, 0.5, 5)
    th = np.full(14, 0.002)  # 3^14 shifts > 10^6
    rep = dl.spike_dominance_x(A, s1, th)
    assert not rep.exhaustive
    assert rep.terms == 2048


def test_far_region_integral_and_bound():
    A = dl.sample_bernoulli(4, 1000, 0.5, 17)
    delta = 1.0 / (16.0 * math.sqrt(A.t))
    rep = dl.far_region_integral(A, delta, 20000, 23)
    assert rep.side_ok_small and rep.side_ok_sixth
    assert rep.estimate.value + 3 * rep.estimate.stderr <= rep.bound
    assert rep.log_mean < 0.0
    assert rep.bound == pytest.approx(math.exp(-0.5 * delta ** 2 * 1000 / 24))


def test_far_region_integral_rejects_nonpositive_samples():
    A = dl.sample_bernoulli(3, 50, 0.5, 1)
    for samples in (0, -5):
        with pytest.raises(ValueError, match="samples must be positive"):
            dl.far_region_integral(A, 0.1, samples, 1)


def test_far_region_zero_matrix_calibration_path():
    # integrand is identically one: the estimate is the far-region volume
    Z = IncidenceMatrix(np.zeros((2, 6), dtype=int), meta=dl.GenMeta(p=0.0))
    rep = dl.far_region_integral(Z, 0.2, 40000, 3)
    pts = stream(1234).random((200000, 2)) - 0.5
    vol = float((fr._lattice_distance_sq(pts) >= 0.2 ** 2).mean())
    assert rep.estimate.value == pytest.approx(vol, abs=0.01)
    # p = 0 makes the comparison bound trivial (exp(0) = 1): calibration only
    assert rep.bound == 1.0 and rep.p_delta_sq == 0.0


def test_far_region_log_slope_in_n():
    logs = []
    for n in (400, 800):
        A = dl.sample_bernoulli(4, n, 0.5, 29)
        delta = 1.0 / (16.0 * math.sqrt(A.t))
        logs.append(dl.far_region_integral(A, delta, 20000, 31).log_mean)
    assert logs[1] < logs[0]
    # roughly linear decay: doubling n should roughly double the log scale
    assert logs[1] / logs[0] == pytest.approx(2.0, rel=0.5)


def test_gaussian_norm_tail():
    for m in (2, 8):
        g = stream(33, m).standard_normal((200000, m))
        norms = np.linalg.norm(g, axis=1)
        for lam in (1.0, 2.0, 3.0):
            emp = float(np.mean(norms > math.sqrt(m) + lam))
            assert emp <= 2 * math.exp(-lam ** 2 / 2)


def test_estimate_stderr_is_sample_std_over_sqrt_n():
    # reproduce the single block by hand and compare the estimate fields
    f = lambda p: p[:, 0] ** 2  # noqa: E731
    est = dl.integrate_mc(f, fr.Region.full_cube(1), 5000, 77)
    pts = stream(77, 0).random((5000, 1)) - 0.5
    vals = f(pts)
    assert est.value == pytest.approx(float(np.mean(vals)), abs=1e-15)
    manual = float(np.std(vals, ddof=1) / math.sqrt(5000))
    assert est.stderr == pytest.approx(manual, rel=1e-12)
    assert est.samples == 5000 and est.seed == 77


def test_stderr_stable_when_far_below_mean():
    # Sum of squares over N minus mean^2 cancels to 0.0 here; the true
    # stderr is about 9.1e-6.
    seen = []

    def f(p):
        vals = 1e8 + 1e-2 * p[:, 0]
        seen.append(vals)
        return vals

    est = dl.integrate_mc(f, fr.Region.full_cube(2), 10 ** 5, 1)
    vals = np.concatenate(seen)
    dev = vals - vals.mean()
    two_pass = math.sqrt(float(dev @ dev) / (vals.size - 1) / vals.size)
    assert two_pass == pytest.approx(9.1e-6, rel=0.01)
    assert est.stderr == pytest.approx(two_pass, rel=0.01)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def test_exp_clamped_matches_the_one_line_formula_bitwise():
    # exp is skipped at and below LOG_CLAMP; every value, sign and the +0.0
    # of a zero factor must be what the plain clamped formula gives.
    clamp = fr.LOG_CLAMP
    la = np.concatenate([
        [-math.inf, clamp - 300.0, np.nextafter(clamp, -math.inf), clamp,
         np.nextafter(clamp, math.inf), clamp + 1e-9, -708.0],
        np.linspace(clamp, -708.0, 4001),        # subnormal results
        stream(3).uniform(-708.0, 0.0, 2000),    # normal results
        [0.0],
    ])
    signs = np.where(stream(4).random(la.size) < 0.5, -1.0, 1.0)
    for sign in (1.0, -1.0, signs):
        old = np.where(la == -math.inf, 0.0, sign * np.exp(np.maximum(la, clamp)))
        assert _hex(fr._exp_clamped(la, sign)) == _hex(old)
    assert _hex(fr._exp_clamped(la)) == _hex(np.where(la == -math.inf, 0.0,
                                                      np.exp(np.maximum(la, clamp))))


def test_integrands_independent_of_pool_size_and_chunk(monkeypatch):
    # Every row-split integrand, with both smoother kinds, over pool sizes
    # 1-3 crossed with three chunk bounds, against the default run.
    A = dl.sample_bernoulli(8, 60, 0.5, 2)
    parity = dl.ParitySmoother.from_matrix(A)
    assert 0 < len(parity.odd_rows) < A.m
    th = stream(8).random((700, 8)) - 0.5

    def run():
        re, im = dl.cancellation_check([1, 0, 0, 2, 0, 0, 0, 1], 3000, 10)
        return (
            _hex(fr.xhat_batch(A, dl.build_pmf(1), th)),
            _hex(fr.xhat_batch(A, parity, th)),
            dl.prob_even_variant(A, 1000, 8),
            (re, im),
        )

    base = run()
    monkeypatch.setattr(fr, "PARALLEL_MIN_WORK", 0)
    for workers in (1, 2, 3):
        monkeypatch.setattr(fr, "_worker_count", lambda: workers)
        for chunk in (1, 1000, 4099):
            monkeypatch.setattr(fr, "KERNEL_CHUNK", chunk)
            assert run() == base, (workers, chunk)


def test_integrand_concurrent_callers_do_not_deadlock(monkeypatch):
    # Callers of xhat_batch and prob_fourier_mc share the pool, and one
    # split evaluates xhat inside its slices, whose own splits then run on
    # the slice's thread; pool sizes differ between callers, so the pool is
    # rebuilt while in use.
    A = dl.sample_bernoulli(8, 60, 0.5, 2)
    s = dl.build_pmf(1)
    batches = [stream(9, i).random((3000, 8)) - 0.5 for i in range(3)]
    expected_x = [fr.xhat_batch(A, s, th) for th in batches]
    expected_p = dl.prob_fourier_mc(A, s, [0] * 8, 3000, 11)
    monkeypatch.setattr(fr, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(fr, "KERNEL_CHUNK", 4099)
    monkeypatch.setattr(fr, "_worker_count",
                        lambda: 2 + int(threading.current_thread().name[-1]) % 2)
    results = {}

    def caller(c):
        for _ in range(2):
            for i, th in enumerate(batches):
                results.setdefault((c, i), []).append(fr.xhat_batch(A, s, th))
            results.setdefault((c, "p"), []).append(
                dl.prob_fourier_mc(A, s, [0] * 8, 3000, 11))
            results.setdefault((c, "n"), []).append(
                fr._map_rows(lambda part: fr.xhat_batch(A, s, part), A, batches[0]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(c,), name=f"caller-{c}")
                   for c in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 5 * (len(batches) + 2)
    for (c, i), got in results.items():
        assert len(got) == 2
        if i == "p":
            assert all(g == expected_p for g in got)
        else:
            assert all(np.array_equal(g, expected_x[0 if i == "n" else i]) for g in got)


# -- the libm path against its einsum reference, bit for bit ---------------------


def _einsum_rows(V, counts, signed, thetas):
    """The libm path's row function before its type-major rewrite, kept as
    the reference: one cos per column type (the zero type's too), the
    sign from a count of the odd types' negative factors, and a row sum.
    einsum sums the products of two or more columns left to right, as the
    kernel forms every angle, but a lone contiguous column's in SIMD
    order, so V gets a zero column that is dropped again."""
    odd, weights = (counts & 1).astype(bool), counts.astype(np.float64)
    wide = np.concatenate([V, np.zeros((V.shape[0], 1))], axis=1)
    c = _cos_turns(np.einsum("bi,ik->bk", thetas, wide)[:, :V.shape[1]])
    sign = None
    if signed:
        sign = 1.0 - 2.0 * (np.count_nonzero((c < 0.0) & odd, axis=1) & 1)
    with np.errstate(divide="ignore"):
        np.log(np.abs(c, out=c), out=c)
    c *= weights
    return c.sum(axis=1), sign


def _table_rows(V, counts, thetas):
    """The angle-addition path's row function before its per-block tables,
    kept as the reference: each half's cos and sin tables over the whole
    batch, a fresh temporary per level, the sign from a count of the odd
    types' negative factors, and the weighted logs copied point-major.
    Returns (la, sign, coordinate cosines)."""
    odd, weights = (counts & 1).astype(bool), counts.astype(np.float64)
    m, types = V.shape
    h = m // 2
    order = np.argsort(~odd, kind="stable")
    bits = V[:, order].astype(np.int64)
    lo = (bits[:h] << np.arange(h)[:, None]).sum(axis=0)
    hi = (bits[h:] << np.arange(m - h)[:, None]).sum(axis=0)
    n_odd, weights = int(odd.sum()), weights[order]

    def half_table(cos_h, sin_h):
        c = np.empty((1 << len(cos_h), cos_h.shape[1]))
        s = np.empty_like(c)
        c[0], s[0] = 1.0, 0.0
        for i, (ci, si) in enumerate(zip(cos_h, sin_h)):
            old, new = slice(0, 1 << i), slice(1 << i, 2 << i)
            np.multiply(c[old], ci, out=c[new])
            c[new] -= s[old] * si
            np.multiply(s[old], ci, out=s[new])
            s[new] += c[old] * si
        return c, s

    k = thetas.shape[0]
    cos_t, sin_t = _cos_turns(thetas.T), _sin_turns(thetas.T)
    ca, sa = half_table(cos_t[:h], sin_t[:h])
    cb, sb = half_table(cos_t[h:], sin_t[h:])
    la, sign = np.empty(k), np.empty(k)
    step = max(1, fr.TABLE_CHUNK // types)
    for a in range(0, k, step):
        part = slice(a, a + step)
        c = ca[lo, part] * cb[hi, part] - sa[lo, part] * sb[hi, part]
        sign[part] = 1.0 - 2.0 * (np.count_nonzero(c[:n_odd] < 0.0, axis=0) & 1)
        with np.errstate(divide="ignore"):
            np.log(np.abs(c, out=c), out=c)
        weighted = np.empty(c.shape[::-1])
        la[part] = np.multiply(c.T, weights, out=weighted).sum(axis=1)
    return la, sign, cos_t.T


def _per_step_sign_rows(V, counts, signed, thetas, coords=False):
    """The angle-addition path's row function before its stacked tables and
    per-block sign, kept as the reference: each half's tables built on
    their own, per block of whole steps holding about 2 TABLE_CHUNK values
    of the four tables, and the sign reduced and converted in every step.
    Returns (la, sign, coordinate cosines)."""
    odd, weights = (counts & 1).astype(bool), counts.astype(np.float64)
    m, types = V.shape
    h = m // 2
    order = np.argsort(~odd, kind="stable")
    bits = V[:, order].astype(np.int64)
    lo = (bits[:h] << np.arange(h)[:, None]).sum(axis=0)
    hi = (bits[h:] << np.arange(m - h)[:, None]).sum(axis=0)
    n_odd, weights = int(odd.sum()), weights[order]
    step = max(1, fr.TABLE_CHUNK // max(types, 1))  # no types: the empty product
    block = max(step, fr.TABLE_CHUNK // ((1 << h) + (1 << (m - h))) // step * step)

    def half_table(cos_h, sin_h, c, s, scratch):
        c[0], s[0] = 1.0, 0.0
        for i, (ci, si) in enumerate(zip(cos_h, sin_h)):
            old, new, tmp = slice(0, 1 << i), slice(1 << i, 2 << i), scratch[:1 << i]
            np.multiply(c[old], ci, out=c[new])
            c[new] -= np.multiply(s[old], si, out=tmp)
            np.multiply(s[old], ci, out=s[new])
            s[new] += np.multiply(c[old], si, out=tmp)

    k = thetas.shape[0]
    cos_t, sin_t = _cos_turns(thetas.T), _sin_turns(thetas.T)
    la = np.empty(k)
    sign = np.empty(k) if signed else None
    flat = np.empty((3, types * min(k, step)))
    width = min(k, block)
    ca, sa = np.empty((2, 1 << h, width))
    cb, sb = np.empty((2, 1 << (m - h), width))
    scratch = np.empty((1 << (m - h - 1), width))
    for a in range(0, k, step):
        part, points, b = slice(a, a + step), min(step, k - a), a % block
        if not b:
            tab, w = slice(a, a + block), min(block, k - a)
            half_table(cos_t[:h, tab], sin_t[:h, tab], ca[:, :w], sa[:, :w], scratch[:, :w])
            half_table(cos_t[h:, tab], sin_t[h:, tab], cb[:, :w], sb[:, :w], scratch[:, :w])
        cols = slice(b, b + points)
        c, s, tmp = (f[:types * points].reshape(types, points) for f in flat)
        np.take(ca[:, cols], lo, axis=0, out=c, mode="clip")
        c *= np.take(cb[:, cols], hi, axis=0, out=tmp, mode="clip")
        np.take(sa[:, cols], lo, axis=0, out=s, mode="clip")
        s *= np.take(sb[:, cols], hi, axis=0, out=tmp, mode="clip")
        c -= s
        if signed:
            sign[part] = np.where(np.logical_xor.reduce(c[:n_odd] < 0.0, axis=0), -1.0, 1.0)
        logs = flat[1, :types * points].reshape(points, types)
        with np.errstate(divide="ignore"):
            np.log(np.abs(c, out=c).T, out=logs)
        logs *= weights
        la[part] = logs.sum(axis=1)
    return la, sign, cos_t.T if coords else None


def _reference_xhat(A, smoothing, pts):
    la, sign = _reference_rows(*A.column_types, True, pts)
    return fr._exp_clamped(la, sign) * smoothing.rhat_of_cos(_cos_turns(pts))


def _random_types(rng, m, types, zero, missing):
    """(V, counts): `types` distinct 0/1 columns of length m, with the zero
    column if `zero`, without the unit columns of the coordinates in
    `missing`, and random counts, odd and even."""
    banned = {1 << i for i in missing} | ({0} if not zero else set())
    pool = [v for v in range(1 << m) if v not in banned] or [0]
    masks = rng.choice(np.array(pool, dtype=np.int64), size=min(types, len(pool)), replace=False)
    if zero and 0 not in masks:
        masks[0] = 0
    V = ((masks[None, :] >> np.arange(m)[:, None]) & 1).astype(np.float64)
    return V, rng.integers(1, 300, size=masks.size)


def _points(rng, k, m):
    """Cube points, tiny-ball points and exact zeros, shuffled."""
    cube = rng.random((k, m)) - 0.5
    g = rng.standard_normal((k, m))
    tiny = g / np.linalg.norm(g, axis=1, keepdims=True) * 10.0 ** rng.uniform(-12, -3, (k, 1))
    pts = np.concatenate([cube, tiny, np.zeros((1, m))])
    return np.ascontiguousarray(pts[rng.permutation(len(pts))])


@pytest.mark.parametrize("m", range(1, 13))
def test_libm_kernel_matches_einsum_reference_bitwise(m):
    # Type counts up to the gate, the gate's own included. Only at m <= 5
    # do they take the libm path; from m = 6 the same inputs take the
    # angle-addition path and are checked against its reference.
    rng = stream(40, m)
    gate = _gate(m)
    sizes = sorted(t for t in {1, 2, 3, 7, 8, 9, 16, 17, 63, 64, 65, 127, gate}
                   | {int(rng.integers(1, gate + 1))} if t <= gate)
    for types in sizes:
        zero = bool(rng.integers(2))
        missing = rng.choice(m, size=int(rng.integers(0, m + 1)), replace=False).tolist()
        V, counts = _random_types(rng, m, types, zero, missing)
        assert V.shape[1] <= gate
        pts = _points(rng, 150, m)
        for th in (pts[:1], pts[:5], pts):
            k = len(th)
            for signed in (False, True):
                la, sign, cos_t = fr._kernel(V, counts, signed)(th, coords=True)
                assert _few_types(m, V.shape[1]) == (m <= 5)
                ref_la, ref_sign = _reference_rows(V, counts, signed, th)
                assert _hex(la) == _hex(ref_la), (m, types, k)
                assert (sign is None) == (not signed)
                if signed:
                    assert _hex(sign) == _hex(ref_sign), (m, types, k)
                assert _hex(cos_t) == _hex(_cos_turns(th))
                no_coords = fr._kernel(V, counts, signed)(th)
                assert no_coords[2] is None and _hex(no_coords[0]) == _hex(la)


def test_libm_kernel_repeated_unit_count_columns_bitwise():
    # dhat_partial's case: the first k raw columns, repeats included, each
    # with count one, up to the gate, at the m <= 5 that take the libm path.
    rng = stream(41)
    for m, n in ((1, 5), (3, 40), (5, 90)):
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        th = _points(rng, 50, m)
        top = min(n, _gate(m))
        for k in sorted({0, 1, 2, top // 2, top}):
            V, ones = A.columns_f64[:, :k], np.ones(k, dtype=np.int64)
            la, _, _ = fr._kernel(V, ones, False)(th)
            assert _hex(la) == _hex(_einsum_rows(V, ones, False, th)[0]), (m, n, k)
            assert dl.dhat_partial(A, th[0], k) == float(
                fr._exp_clamped(_einsum_rows(V, ones, False, th[:1])[0])[0])


def test_table_kernel_repeated_unit_count_columns_bitwise():
    # dhat_partial's case on the angle-addition path: the first k raw
    # columns, each with count one, at m = 1 (a half of no coordinates) up to
    # m = 12, against the table path's reference; from m = 6 from no column
    # on.
    rng = stream(56)
    for m, n in ((1, 40), (2, 30), (3, 40), (5, 90), (8, 120), (12, 60)):
        A = dl.sample_bernoulli(m, n, 0.5, int(rng.integers(2 ** 62)))
        th = _points(rng, 50, m)
        first = 0 if m >= 6 else _gate(m) + 1
        for k in sorted({first, first + 1, (first + n) // 2 + 1, n}):
            assert not _few_types(m, k)
            V, ones = A.columns_f64[:, :k], np.ones(k, dtype=np.int64)
            la, _, _ = fr._kernel(V, ones, False)(th)
            assert _hex(la) == _hex(_per_step_sign_rows(V, ones, False, th)[0]), (m, n, k)
            assert dl.dhat_partial(A, th[0], k) == float(
                fr._exp_clamped(_per_step_sign_rows(V, ones, False, th[:1])[0])[0])


@pytest.mark.parametrize("m", range(2, 13))
def test_kernel_single_wide_type_takes_the_left_to_right_angle(m):
    # One type of every coordinate, in a contiguous V: the libm path builds
    # its angle from its prefixes', theta_0 + theta_1, then + theta_2 and so
    # on, as for any other subset; an odd and an even count. From m = 6 the
    # type takes the angle-addition path, checked against its reference.
    V = np.ones((m, 1))
    assert V.flags.c_contiguous
    th = _points(stream(57, m), 200, m)
    angle = th[:, 0].copy()
    for i in range(1, m):
        angle = angle + th[:, i]
    c = _cos_turns(angle)
    for count in (3, 4):
        counts = np.array([count])
        la, sign, _ = fr._kernel(V, counts, True)(th)
        if m >= 6:
            ref = _per_step_sign_rows(V, counts, True, th)
            assert (_hex(la), _hex(sign)) == (_hex(ref[0]), _hex(ref[1])), (m, count)
            continue
        with np.errstate(divide="ignore"):
            assert _hex(la) == _hex(np.log(np.abs(c)) * float(count)), (m, count)
        assert _hex(sign) == _hex(np.where((c < 0.0) & (count % 2 == 1), -1.0, 1.0)), (m, count)


def test_dhat_partial_at_one_row_matches_column_product():
    # At m = 1 half 0 of the angle-addition tables holds no coordinate; the
    # raw columns take that path from 9 columns on.
    A = dl.sample_bernoulli(1, 200, 0.5, 1)
    row = A.bits.tolist()[0]
    for k in (0, 1, 8, 9, 128, 200):
        prod = math.prod(math.cos(2 * math.pi * 0.1 * b) for b in row[:k])
        assert dl.dhat_partial(A, [0.1], k) == pytest.approx(abs(prod), rel=1e-12), k


def test_dhat_partial_sweep_keeps_no_memory():
    # dhat_partial builds a new column set for every k, so nothing built for
    # one call may outlive it: a plan cache keyed by the columns once kept
    # about 0.8 MB a call here and never hit.
    import tracemalloc
    A = dl.sample_bernoulli(4, 20000, 0.5, 1)
    theta = [0.1, -0.2, 0.3, 0.05]
    dl.dhat_partial(A, theta, 19949)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for k in range(19950, 20000):
            dl.dhat_partial(A, theta, k)
        grown = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20, grown


def test_libm_kernel_blocks_keep_the_bits(monkeypatch):
    A = dl.sample_bernoulli(5, 70, 0.5, 9)  # 28 types, at most 2^5 = the gate
    assert A.column_types[1].size <= _gate(5)
    th = _points(stream(42), 400, 5)
    la, sign = _einsum_rows(*A.column_types, True, th)
    s = dl.build_pmf(2)
    expected = (_hex(fr._exp_clamped(la, sign)), _hex(la), _hex(_reference_xhat(A, s, th)))
    for chunk in (1, 50, 4099):
        monkeypatch.setattr(fr, "LIBM_CHUNK", chunk)
        got = (_hex(fr.dhat_batch(A, th)), _hex(fr.dhat_log_abs_batch(A, th)),
               _hex(fr.xhat_batch(A, s, th)))
        assert got == expected, chunk


def test_cos_turns_exact_values_and_bounds():
    # In place or not, with or without sin, and against the test-side
    # formula bit for bit: exact at whole and half turns, |cos| <= 1 as
    # rounded, NaN for a non-finite turn, and within 1e-15 of libm.
    x = np.array([0.0, -0.0, 0.5, -0.5, 1.0, -3.0, 2.5, 1e15 + 0.5, np.inf, -np.inf, np.nan])
    rng = stream(55)
    x = np.concatenate([x, rng.random(10 ** 5) - 0.5, (rng.random(10 ** 4) - 0.5) * 10.0 ** 6])
    cos, sin, tmp = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    with np.errstate(invalid="ignore"):  # inf - rint(inf)
        fr._cos_turns(x, cos, tmp)
        assert _hex(cos) == _hex(_cos_turns(x))
        fr._cos_turns(x, cos, tmp, sin)
        assert _hex(cos) == _hex(_cos_turns(x)) and _hex(sin) == _hex(_sin_turns(x))
        inplace = x.copy()
        fr._cos_turns(inplace, inplace, tmp)
    assert _hex(inplace) == _hex(cos)
    assert cos[:8].tolist() == [1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]
    assert np.isnan(cos[8:11]).all() and np.isnan(sin[8:11]).all()
    finite = np.isfinite(x)
    assert (np.abs(cos[finite]) <= 1.0).all()
    reduced = x[finite] - np.rint(x[finite])
    assert np.abs(cos[finite] - np.cos(2 * np.pi * reduced)).max() <= 1e-15
    assert np.abs(sin[finite] - np.sin(2 * np.pi * reduced)).max() <= 1e-15


def test_sum_rows_replays_numpy_row_sum():
    rng = stream(43)
    for n in range(0, 301):
        for k in (1, 3, 300):
            x = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-8, 8, size=(k, n))
            if n:
                x[rng.random((k, n)) < 0.02] = -math.inf
            expected = np.add.reduce(x, axis=1)
            assert _hex(fr._sum_rows(np.ascontiguousarray(x.T))) == _hex(expected), (n, k)


def test_table_kernel_hands_back_coordinate_cosines():
    m, n, seed = TABLE_INSTANCE
    A = dl.sample_bernoulli(m, n, 0.5, seed)
    V, counts = A.column_types
    assert V.shape[1] > _gate(m)
    th = _points(stream(45), 300, m)
    assert _hex(fr._kernel(V, counts, True)(th, coords=True)[2]) == _hex(_cos_turns(th))
    s = dl.build_pmf(2)
    assert _hex(fr.xhat_batch(A, s, th)) == _hex(fr.dhat_batch(A, th) * s.rhat_of_cos(_cos_turns(th)))


# -- the angle-addition path against its whole-batch reference, bit for bit -------


@pytest.mark.parametrize("m", range(6, 13))
def test_table_kernel_matches_whole_batch_reference_bitwise(m, monkeypatch):
    # Type counts up to 2^m; batch sizes around one step and one block of
    # half tables, and several blocks with a ragged tail; the default
    # TABLE_CHUNK and a small one, so that batches of test size cross block
    # boundaries. At the small chunk the counts start at one type; at the
    # default one above the gate, since several steps of one type would
    # need whole-batch reference tables of up to 470 MB (m = 12).
    rng = stream(46, m)
    for chunk in (fr.TABLE_CHUNK, 1 << 11):
        monkeypatch.setattr(fr, "TABLE_CHUNK", chunk)
        first = _gate(m) + 1 if chunk == fr.TABLE_CHUNK else _first_table_types(m)
        for types in sorted({first, int(rng.integers(first, (1 << m) + 1)), 1 << m}):
            full = types == 1 << m
            missing = [] if full else rng.choice(m, size=int(rng.integers(0, 3)), replace=False).tolist()
            V, counts = _random_types(rng, m, types, full or bool(rng.integers(2)), missing)
            assert V.shape[1] == types
            step = max(1, chunk // types)
            block = max(step, chunk // ((1 << m // 2) + (1 << (m - m // 2))) // step * step)
            if chunk < fr.TABLE_CHUNK and types > _gate(m):
                assert block > step
            sizes = {1, step - 1, step, block - 1, block, block + 1, 3 * block + step // 2 + 1} - {0}
            pts = _points(rng, max(sizes) // 2 + 1, m)
            for k in sorted(sizes):
                th = pts[:k]
                ref_la, ref_sign, ref_cos = _table_rows(V, counts, th)
                for signed in (False, True):
                    kernel = fr._kernel(V, counts, signed)
                    la, sign, cos_t = kernel(th, coords=True)
                    assert _hex(la) == _hex(ref_la), (m, types, k, chunk)
                    assert (sign is None) == (not signed)
                    if signed:
                        assert _hex(sign) == _hex(ref_sign), (m, types, k, chunk)
                    assert _hex(cos_t) == _hex(ref_cos)
                    no_coords = kernel(th)
                    assert no_coords[2] is None and _hex(no_coords[0]) == _hex(la)


@pytest.mark.parametrize("m", (6, 7, 8, 9, 10, 11))
def test_table_kernel_matches_per_step_sign_reference_bitwise(m, monkeypatch):
    # The stacked tables (one extra level at odd m) and the per-block sign
    # against the loop they replace: no points, one, a step and its
    # neighbours, a partial last block and several blocks; the default
    # TABLE_CHUNK and one small enough for steps of one or two points. At the
    # small chunk the counts start at one type; at the default one above
    # the gate, since a few types give steps of tens of thousands of points.
    rng = stream(47, m)
    for chunk in (fr.TABLE_CHUNK, 1 << 11):
        monkeypatch.setattr(fr, "TABLE_CHUNK", chunk)
        first = _gate(m) + 1 if chunk == fr.TABLE_CHUNK else _first_table_types(m)
        for types in sorted({first, int(rng.integers(first, (1 << m) + 1))}):
            V, counts = _random_types(rng, m, types, bool(rng.integers(2)), [])
            step = max(1, chunk // types)
            block = max(step, chunk // (2 << (m - m // 2)) // step * step)
            sizes = {0, 1, step - 1, step, step + 1, block + step // 2 + 1, 3 * block + 1}
            pts = _points(rng, max(sizes) // 2 + 1, m)
            for k in sorted(sizes):
                th = pts[:k]
                for signed in (False, True):
                    kernel = fr._kernel(V, counts, signed)
                    for coords in (False, True):
                        got = kernel(th, coords=coords)
                        ref = _per_step_sign_rows(V, counts, signed, th, coords)
                        for g, r in zip(got, ref):
                            assert (g is None) == (r is None), (m, types, k, chunk, signed, coords)
                            if r is not None:
                                assert _hex(g) == _hex(r), (m, types, k, chunk, signed, coords)


@pytest.mark.parametrize("m", (8, 9))
@pytest.mark.parametrize("parity", ("even", "odd", "mixed"))
def test_table_kernel_count_parities_and_ragged_ends_bitwise(m, parity, monkeypatch):
    # Every count even (no odd type, so the sign is +1 everywhere), every
    # count odd, and both, at even and odd m; one point, and a batch whose
    # last block and last step are both ragged; against the per-step sign
    # loop, at the default TABLE_CHUNK and a small one. From one type on.
    rng = stream(51, m)
    first = _first_table_types(m)
    V, counts = _random_types(rng, m, int(rng.integers(first, (1 << m) + 1)), True, [])
    counts = {"even": 2 * counts, "odd": 2 * counts + 1, "mixed": counts}[parity]
    types = V.shape[1]
    for chunk in (fr.TABLE_CHUNK, 1 << 11):
        monkeypatch.setattr(fr, "TABLE_CHUNK", chunk)
        step = max(1, chunk // types)
        block = max(step, chunk // (2 << (m - m // 2)) // step * step)
        ragged = 3 * block - 1  # last block block - 1 points, last step step - 1
        assert step > 1 and ragged % block % step == step - 1
        pts = _points(rng, ragged // 2, m)
        for k in (1, ragged):
            th = pts[:k]
            for signed in (False, True):
                got = fr._kernel(V, counts, signed)(th, coords=True)
                ref = _per_step_sign_rows(V, counts, signed, th, coords=True)
                assert [_hex(g) for g in got if g is not None] == [
                    _hex(r) for r in ref if r is not None], (parity, chunk, k, signed)
                if signed and parity == "even":
                    assert (got[1] == 1.0).all()


def test_kernel_step_and_path_follow_each_kernel(monkeypatch):
    # The step and block follow TABLE_CHUNK at each kernel built, with the
    # bits of the path taken. The path follows the rule at its edges: m = 5
    # with all 32 types and m = 1 with 8 raw columns take the libm path,
    # m = 5 with 33 raw columns, m = 6 with one (wide) type and m = 1 with 9 raw
    # columns the angle-addition path (at m = 1 both paths give the same
    # bits, so the path is told by the half tables it builds).
    import tracemalloc
    A = _wide_instance()
    V, counts = A.column_types
    types = V.shape[1]
    th = _points(stream(52), 1500, A.m)
    table_ref = _per_step_sign_rows(V, counts, True, th, coords=True)
    chunks, peaks = (fr.TABLE_CHUNK, 1 << 11), []
    for chunk in chunks:
        monkeypatch.setattr(fr, "TABLE_CHUNK", chunk)
        kernel = fr._kernel(V, counts, True)
        tracemalloc.start()
        try:
            got = kernel(th, coords=True)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert [_hex(g) for g in got] == [_hex(r) for r in table_ref], chunk
    # The whole call at the small chunk peaks below the three (types, step)
    # buffers of the default step alone.
    assert peaks[1] < 3 * 8 * types * max(1, chunks[0] // types) < peaks[0], peaks

    levels, built = fr._half_table_levels, []
    monkeypatch.setattr(fr, "_half_table_levels", lambda m: built.append(m) or levels(m))
    rng = stream(58)
    raw1, raw5 = (dl.sample_bernoulli(m, n, 0.5, 3).columns_f64 for m, n in ((1, 9), (5, 33)))
    edges = [(_random_types(rng, 5, 32, True, []), True),
             ((raw1[:, :8], np.ones(8, dtype=np.int64)), True),
             ((raw5, np.ones(33, dtype=np.int64)), False),
             ((np.ones((6, 1)), np.array([3])), False),
             ((raw1, np.ones(9, dtype=np.int64)), False)]
    for (V, counts), few in edges:
        m, types = V.shape
        assert _few_types(m, types) == few
        pts = _points(rng, 300, m)
        built.clear()
        la, sign, _ = fr._kernel(V, counts, True)(pts)
        assert built == ([] if few else [m]), (m, types)
        ref_la, ref_sign = (_einsum_rows if few else _per_step_sign_rows)(V, counts, True, pts)[:2]
        assert (_hex(la), _hex(sign)) == (_hex(ref_la), _hex(ref_sign)), (m, types)
        if m > 1:  # the two paths round differently
            other = (_per_step_sign_rows if few else _einsum_rows)(V, counts, True, pts)[0]
            assert _hex(la) != _hex(other), (m, types)


def test_samplers_and_lattice_distance_keep_the_bits():
    # The in-place samplers and lattice distance against the expressions
    # they replace, on the same streams.
    for m in (1, 2, 3, 8):
        k = 3000
        cube = fr.Region.full_cube(m).sample(stream(47, m), k)
        assert _hex(cube) == _hex(stream(47, m).random((k, m)) - 0.5)
        quarter = fr.Region.quarter_cube(m).sample(stream(47, m), k)
        assert _hex(quarter) == _hex((stream(47, m).random((k, m)) - 0.5) * 0.5)
        for radius in (0.01, 0.5, 2.0):
            ball = fr.Region.origin_ball(m, radius).sample(stream(48, m), k)
            rng = stream(48, m)
            g = rng.standard_normal((k, m))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            radii = radius * rng.random(k) ** (1.0 / m)
            assert _hex(ball) == _hex(g / norms * radii[:, None]), (m, radius)
        pts = np.concatenate([cube, _points(stream(49, m), 100, m), np.full((1, m), -0.5)])
        a = np.abs(pts - np.round(pts))
        best = np.minimum(a, 0.5 - a)
        before = pts.copy()
        assert _hex(fr._lattice_distance_sq(pts)) == _hex(np.einsum("ij,ij->i", best, best))
        assert _hex(pts) == _hex(before)


def test_table_kernel_working_set_does_not_grow_with_the_slice(monkeypatch):
    # One slice of 16384 points at m = 10 on one thread. The half tables and
    # the coordinate cos and sin are built per block of points, so the
    # traced peak of the call stays within the slice's O(m k) arrays (none
    # without coords; the points and the result are k-sized or the
    # caller's) plus a few TABLE_CHUNK buffers. Tables over the whole slice would need
    # 2 (2^5 + 2^5) k doubles, 16.8 MB, on their own.
    import tracemalloc
    A = _wide_instance()
    k, types = 1 << 14, A.column_types[1].size
    th = stream(34).random((k, A.m)) - 0.5
    monkeypatch.setattr(fr, "_worker_count", lambda: 1)
    monkeypatch.setattr(fr, "KERNEL_CHUNK", k * types)
    fr.dhat_log_abs_batch(A, th[:100])
    bound = 8 * (3 * A.m * k + 2 * k + 6 * fr.TABLE_CHUNK)
    assert 2 * (2 * 32) * k * 8 > bound
    tracemalloc.start()
    try:
        fr.dhat_log_abs_batch(A, th)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def _old_far(A, delta, samples, seed, inc):
    """far_region_integral's integrand with the reference kernel and its
    former row function for the smoother's log."""
    lse = [-math.inf, 0.0]

    def integrand(pts):
        vals = np.zeros(len(pts))
        far = fr._lattice_distance_sq(pts) >= delta ** 2
        if not far.any():
            return vals
        pts = pts[far]
        la = _reference_rows(*A.column_types, False, pts)[0]
        if inc is not None:
            with np.errstate(divide="ignore"):
                la = la + inc * np.log(0.5 + 0.5 * _cos_turns(pts)).sum(axis=1)
        finite = la[la > -math.inf]
        if finite.size:
            fmax = max(lse[0], float(finite.max()))
            lse[1] = lse[1] * math.exp(lse[0] - fmax) + float(np.exp(finite - fmax).sum())
            lse[0] = fmax
        vals[far] = fr._exp_clamped(la)
        return vals

    est = dl.integrate_mc(integrand, fr.Region.full_cube(A.m), samples, seed)
    return est, lse[0] + math.log(lse[1]) - math.log(samples)


@pytest.mark.parametrize("shape", [(2, 300, 1), (4, 400, 2), (7, 90, 3)])
def test_integrands_match_einsum_reference_bitwise(shape):
    # Each integrand's fused cofactor (xhat with both smoother kinds and
    # several widths, the character, the near shells, the far region's
    # smoother log) against the former separate evaluation, estimate by
    # estimate, with every batch split across the pool. The kernel's
    # reference is its path's: einsum at m = 2 and 4, the angle-addition
    # path's at m = 7.
    from disclab.rng import child_seed
    m, n, seed = shape
    A = dl.sample_bernoulli(m, n, 0.5, seed)
    parity = dl.ParitySmoother.from_matrix(A)
    th = _points(stream(44, m), 500, m)
    for s in (dl.build_pmf(0), dl.build_pmf(1), dl.build_pmf(3), parity):
        assert _hex(fr.xhat_batch(A, s, th)) == _hex(_reference_xhat(A, s, th))
    s1 = dl.build_pmf(1)
    for lam in ([0] * m, [1] + [0] * (m - 1)):
        target = np.array(lam, dtype=np.float64)
        ref = dl.integrate_mc(
            lambda p: _reference_xhat(A, s1, p) * _cos_turns(p @ target),
            fr.Region.full_cube(m), 3000, 5)
        assert dl.prob_fourier_mc(A, s1, lam, 3000, 5) == ref
    assert dl.prob_even_variant(A, 2000, 8) == dl.integrate_mc(
        lambda p: _reference_xhat(A, parity, p), fr.Region.quarter_cube(m), 2000, 8).scaled(2.0 ** m)
    for inc in (None, 1, 2):
        rep = dl.far_region_integral(A, 0.1, 3000, 4, include_rhat_delta=inc)
        assert (rep.estimate, rep.log_mean) == _old_far(A, 0.1, 3000, 4, inc)
    for delta in (1, 2):
        s = dl.build_pmf(delta)
        asm = dl.three_region_assembly(A, s, 2000, 6)
        ball = fr.Region.origin_ball(m, asm.radius)

        def shifted_rhat_sum(pts):
            half_cos = 0.5 * _cos_turns(pts)
            g0 = (0.5 + half_cos) ** delta
            gh = (0.5 - half_cos) ** delta
            return _row_product(g0 + 2.0 * gh) - _row_product(g0)

        near = dl.integrate_mc(
            lambda p: fr._exp_clamped(_reference_rows(*A.column_types, False, p)[0]) * shifted_rhat_sum(p),
            ball, 2000, child_seed(6, 1))
        assert asm.central == dl.integrate_mc(lambda p: _reference_xhat(A, s, p), ball, 2000,
                                              child_seed(6, 0))
        assert asm.near == near
        assert (asm.far.estimate, asm.far.log_mean) == _old_far(A, asm.radius, 2000,
                                                                child_seed(6, 2), delta)


def test_integrands_enter_the_kernel_on_the_calling_thread(monkeypatch):
    # The kernel functions are entered on the caller's thread only; their
    # slices run on the pool, but no kernel-named function does.
    from disclab import inversion
    A = dl.sample_bernoulli(3, 200, 0.5, 1)
    s = dl.build_pmf(1)
    monkeypatch.setattr(fr, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(fr, "_worker_count", lambda: 3)
    threads = set()
    for name in ("dhat_batch", "dhat_log_abs_batch"):
        def wrapped(*args, real=getattr(fr, name), **kwargs):
            threads.add(threading.current_thread().name)
            return real(*args, **kwargs)
        for mod in (fr, inversion):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    dl.prob_fourier_mc(A, s, [1, 0, 0], 3000, 1)
    dl.prob_even_variant(A, 3000, 2)
    dl.three_region_assembly(A, s, 3000, 3)
    assert threads == {threading.current_thread().name}


# -- Monte Carlo windows ------------------------------------------------------------


def _block_loop(f, region, samples, seed, stderr_target=None):
    """integrate_mc as a loop of one block at a time: draw a block, call f,
    merge its moments, test the checkpoint."""
    scale = region.volume()
    moments = fr.RunningMoments()
    block_index, checkpoint = 0, fr.MC_BLOCK
    while moments.count < samples:
        pts = region.sample(stream(seed, block_index), min(fr.MC_BLOCK, samples - moments.count))
        moments.add(np.asarray(f(pts), dtype=np.float64))
        block_index += 1
        if stderr_target is not None and moments.count >= checkpoint:
            if scale * moments.stderr <= stderr_target:
                break
            checkpoint *= 2
    return fr.Estimate(scale * moments.mean, scale * moments.stderr, moments.count, int(seed))


def _with_block_loop(monkeypatch, run):
    """run() with every estimator on the one-block loop instead of windows."""
    from disclab import inversion
    with monkeypatch.context() as patch:
        for mod in (fr, inversion):
            patch.setattr(mod, "integrate_mc", _block_loop)
        return run()


def _est_hex(est):
    return (float(est.value).hex(), float(est.stderr).hex(), est.samples)


def test_windows_keep_the_bits_of_the_block_loop(monkeypatch):
    # 3 MC_BLOCK + 1 samples, so the last block holds one point: at 1, 2
    # and 3 workers the windows are 4, 2 + 2 and 3 + 1 blocks. Every
    # estimate, and the far region's block-by-block log-sum-exp, keeps the
    # bits of the one-block loop.
    A = dl.sample_bernoulli(3, 40, 0.5, 4)
    s = dl.build_pmf(1)
    k = 3 * fr.MC_BLOCK + 1

    def run():
        far = dl.far_region_integral(A, 0.1, k, 6, include_rhat_delta=1)
        ests = (dl.prob_fourier_mc(A, s, [0, 0, 0], k, 3),
                dl.prob_fourier_mc(A, s, [1, -1, 0], k, 3),
                dl.prob_even_variant(A, k, 5),
                far.estimate)
        assert all(e.samples == k for e in ests)
        return [_est_hex(e) for e in ests] + [float(far.log_mean).hex()]

    expected = _with_block_loop(monkeypatch, run)
    calls = []
    split = fr._map_rows

    def recorded_split(fn, A, thetas):
        calls.append(len(thetas))
        return split(fn, A, thetas)

    monkeypatch.setattr(fr, "_map_rows", recorded_split)
    for workers in (1, 2, 3):
        monkeypatch.setattr(fr, "_worker_count", lambda: workers)
        calls.clear()
        assert run() == expected, workers
        # four estimators, each entering the kernel once per window (the
        # far region on its far points only)
        windows = -(-4 // workers)
        assert len(calls) == 4 * windows, (workers, calls)


def test_adaptive_windows_stop_at_the_checkpoint(monkeypatch):
    # Checkpoints fall after blocks 1, 2, 4 and 8. The target is met first
    # at 8 blocks, so at 3 workers the windows are 1, 1, 2, 3 and 1 blocks,
    # the last cut short by the checkpoint, and no block past the stop is
    # drawn.
    monkeypatch.setattr(fr, "MC_BLOCK", 1000)
    region = fr.Region.quarter_cube(3)
    f = lambda p: np.cos(2 * np.pi * p[:, 0]) + p[:, 1]  # noqa: E731
    fixed = {c: _block_loop(f, region, c, 4) for c in (1000, 2000, 4000, 8000)}
    target = fixed[8000].stderr * 1.0001
    assert min(fixed[c].stderr for c in (1000, 2000, 4000)) > target
    expected = _block_loop(f, region, 10 ** 6, 4, stderr_target=target)
    assert expected == fixed[8000]
    real_stream, drawn, sizes = fr.stream, [], []

    def recorded_stream(seed, *path):
        drawn.append(path)
        return real_stream(seed, *path)

    def counted(p):
        sizes.append(len(p))
        return f(p)

    monkeypatch.setattr(fr, "stream", recorded_stream)
    for workers, windows in ((1, [1] * 8), (2, [1, 1, 2, 2, 2]), (3, [1, 1, 2, 3, 1])):
        monkeypatch.setattr(fr, "_worker_count", lambda: workers)
        drawn.clear()
        sizes.clear()
        est = dl.integrate_mc(counted, region, 10 ** 6, 4, stderr_target=target)
        assert _est_hex(est) == _est_hex(expected), workers
        assert sizes == [1000 * w for w in windows], workers
        assert sorted(drawn) == [(b,) for b in range(8)], workers


def test_multi_block_calls_enter_the_kernel_on_the_calling_thread(monkeypatch):
    # Five blocks per call at three workers: the draws of each window run on
    # the pool too, but no kernel-named function is entered there.
    from disclab import inversion
    A = dl.sample_bernoulli(3, 200, 0.5, 1)
    s = dl.build_pmf(1)
    monkeypatch.setattr(fr, "MC_BLOCK", 1000)
    monkeypatch.setattr(fr, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(fr, "_worker_count", lambda: 3)
    kernel_threads, draw_threads = set(), set()
    for name in ("dhat_batch", "dhat_log_abs_batch", "dhat_partial"):
        def wrapped(*args, real=getattr(fr, name), **kwargs):
            kernel_threads.add(threading.current_thread().name)
            return real(*args, **kwargs)
        for mod in (fr, inversion):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    real_stream = fr.stream

    def recorded_stream(seed, *path):
        draw_threads.add(threading.current_thread().name)
        return real_stream(seed, *path)

    monkeypatch.setattr(fr, "stream", recorded_stream)
    dl.prob_fourier_mc(A, s, [1, 0, 0], 5000, 1)
    dl.prob_even_variant(A, 5000, 2)
    dl.far_region_integral(A, 0.1, 5000, 3, include_rhat_delta=1)
    dl.three_region_assembly(A, s, 5000, 4)
    assert kernel_threads == {threading.current_thread().name}
    assert len(draw_threads) > 1 and threading.current_thread().name in draw_threads


def test_concurrent_multi_block_callers_keep_the_bits(monkeypatch):
    # More callers than cores, each drawing windows on the shared pool with
    # its own worker count (so the pool is rebuilt while in use), under a
    # short switch interval: every estimate keeps the bits of a lone call.
    monkeypatch.setattr(fr, "MC_BLOCK", 1000)
    A = dl.sample_bernoulli(3, 40, 0.5, 2)
    s = dl.build_pmf(1)
    expected = [dl.prob_fourier_mc(A, s, [1, 0, -1], 5500, seed) for seed in range(3)]
    monkeypatch.setattr(fr, "_worker_count",
                        lambda: 2 + int(threading.current_thread().name[-1]) % 3)
    results = {}

    def caller(c):
        for seed in range(3):
            results[c, seed] = dl.prob_fourier_mc(A, s, [1, 0, -1], 5500, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(c,), name=f"caller-{c}")
                   for c in range(5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == {(c, seed): expected[seed] for c in range(5) for seed in range(3)}


class _Tracked:
    """Counts the calls running at once; the first call on a pool thread
    raises at once if asked, while the others on the pool sleep first."""

    def __init__(self, raise_on_pool: bool):
        self.lock = threading.Lock()
        self.running = 0
        self.raise_on_pool = raise_on_pool
        self.caller = threading.current_thread().name

    def __enter__(self):
        on_pool = threading.current_thread().name != self.caller
        with self.lock:
            self.running += 1
            raising = on_pool and self.raise_on_pool
            self.raise_on_pool &= not raising
        if raising:
            self.__exit__()
            raise RuntimeError("pool task failed")
        if on_pool:
            time.sleep(0.05)

    def __exit__(self, *exc):
        with self.lock:
            self.running -= 1


def test_a_failing_window_leaves_no_task_running(monkeypatch):
    monkeypatch.setattr(fr, "MC_BLOCK", 1000)
    monkeypatch.setattr(fr, "_worker_count", lambda: 3)
    A = dl.sample_bernoulli(3, 40, 0.5, 1)

    # A draw on the pool fails while the other pool draw still sleeps.
    class Region(fr.Region):
        def sample(self, rng, k, out=None):
            with tracked:
                return super().sample(rng, k, out)

    tracked = _Tracked(raise_on_pool=True)
    with pytest.raises(RuntimeError, match="pool task failed"):
        dl.integrate_mc(lambda p: p[:, 0], Region(fr.RegionKind.FULL_CUBE, 3), 5000, 1)
    assert tracked.running == 0

    # The integrand raises on the calling thread in the second window,
    # after that window's draws.
    tracked = _Tracked(raise_on_pool=False)
    windows = []

    def failing(p):
        windows.append(len(p))
        if len(windows) == 2:
            raise ValueError("integrand failed")
        return p[:, 0]

    with pytest.raises(ValueError, match="integrand failed"):
        dl.integrate_mc(failing, Region(fr.RegionKind.FULL_CUBE, 3), 5000, 1)
    assert windows == [3000, 2000] and tracked.running == 0

    # The integrand's own row split fails in its first pool slice while
    # later pool slices still sleep.
    monkeypatch.setattr(fr, "PARALLEL_MIN_WORK", 0)
    monkeypatch.setattr(fr, "KERNEL_CHUNK", 4099)
    tracked = _Tracked(raise_on_pool=True)

    def combine(d, cos_t):
        with tracked:
            return d

    with pytest.raises(RuntimeError, match="pool task failed"):
        dl.integrate_mc(lambda p: fr.dhat_batch(A, p, combine), fr.Region.full_cube(3), 5000, 1)
    assert tracked.running == 0
