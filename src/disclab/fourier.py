"""Transforms of the signed discrepancy, Gaussian comparators, and the
Monte Carlo torus integrator.

The transform of the signed discrepancy D = A x of a uniform random
coloring factors over the columns of A:

    dhat(theta) = prod_j cos(2 pi <A^j, theta>),

real-valued and bounded by one. It is evaluated over the distinct column
types as sign plus a multiplicity-weighted sum of log|cos| (clamped at
exp(-745); an exactly zero factor gives zero), because thousands of
sub-unit factors would underflow a naive product. numpy evaluates
float64 cos and sin with libm one value at a time, but its tan is
vectorised, so every cosine and sine the kernel takes comes from the
tangent of the half angle (`_cos_turns`), in turns: on a 2-vCPU Xeon
with AVX-512 and numpy 2.4, 5-6 ns a value against 13-20 ns for libm's
cos. The kernel has two paths. When neither the 2^m subsets of the
coordinates nor the column types (T) outnumber the 4 2^(m - m//2)
values per point of the other path's half tables, which holds only at
m <= 5, it tabulates the angle of every subset, each the angle of the
subset without its highest coordinate plus that coordinate, takes one
cosine per nonzero subset that is a type (or, when asked, a coordinate),
and reads each type's factor from the row of its bit mask (the "libm
path", named for the cos it used to take).
Otherwise the factors of a point come from cos and sin tables of the
subset sums of each half of its coordinates, built by angle addition
from one cosine and one sine per coordinate instead of T cosines, one
cache-sized block of points at a time; both halves' tables are stacked
and built in the same calls, and the sign of a block's points is
reduced once per block. It takes one log per group of LOG_GROUP types
of one count, of the product of their factors, instead of one per type;
a group whose product underflows (below 2^-1022) takes the sum of its
members' logs instead. That path's loop views are built once per call,
so each of its steps is numpy calls alone. Neither path caches anything
between kernels. `_kernel` gives the measured cost of each path, its
accuracy, its memory, and why no row depends on the batch that holds
it.
All integrals here are
Monte Carlo over the fundamental cube [-1/2, 1/2)^m. `integrate_mc` is
the one engine: a `Region` (cube, quarter cube or origin ball) draws
points uniformly and gives its volume, and an integrand maps them to
values. Every estimator in the package (here and in `inversion`) is an
integrand passed to it; a restriction to another subset, such as the far
region's lattice-distance indicator, lives in the integrand. An integrand
may return a stack of several integrands' values over the same points,
as the assembly's central and near pieces do, and gets one estimate per
row. Blocks of MC_BLOCK points are seeded by index, so estimates depend
only on (seed, samples).

`integrate_mc` takes its blocks in windows of one per core: the calling
thread and a process-wide thread pool (built on first use) draw a
window's blocks at once, and the integrand is called once per window on
the calling thread. Its per-point work is one row split over every core
(`_map_rows`): the kernel hands each slice's coordinate cosines
cos(2 pi theta_i) to the integrand's `combine` function, which builds the
rest in the same pass (the clamped exp, the smoother's transform in
`xhat_batch`, the near-shell factor of the assembly or the far region's
smoother log). Each row is computed the same way whichever thread
computes it and whatever slice or window holds it, and block moments are
merged in block order, so every estimate is the same at any core count.
Threads scale less than cores because each numpy call takes the
interpreter lock back: on 2 vCPUs (Xeon, numpy 2.4), `xhat_batch` on
2^16 cube points at m = 8 and 10 (n = 533 and 922) ran 1.80-1.85 times
as fast on two threads as on one on the angle-addition path (45 and
99 ms on two) and 1.77-1.89 times on the libm path, while two processes
each running it on one thread were at most 0.6% slower than one alone.
Those figures were taken with libm's cos, and without the cores used.
What a second thread gains depends on the host as much as on the code,
so thread-scaling figures are quoted with the cores used, process CPU
time over wall time. With one and two workers in alternation (2^17
points on the libm path at m = 2, 4 and 5; 2^16 on the angle-addition
path at m = 8 and 10), the same code used 0.9-1.0 cores on two workers in
some repetitions and 1.6-1.9 in others of the same run, and the mode
changed between repetitions: at m = 4, n = 18, two workers were 0.8-1.6
times as fast as one at 0.90-1.00 cores, and 2.0-2.3 times at 1.77-1.86
cores; at m = 8 and 10, 0.86-0.99 times at 0.93-0.98 cores and
1.13-1.71 times at 1.65-1.78 cores.
Only the draws run on the pool, not whole blocks: bench/tracing.py starts
and stops the process-wide `tracemalloc` around each kernel call
(`dhat_batch`, `dhat_log_abs_batch`, `dhat_partial`), which has crashed
the interpreter when such a call ran on a pool thread.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .rng import stream
from .setsystem import IncidenceMatrix, max_column_frequency
from .smoothing import (
    ParitySmoother,
    SmoothingSpec,
    _half_integral_shifts,
    _sum_rows,
    build_pmf,
    rhat_md,
)

__all__ = [
    "Estimate",
    "Region",
    "RegionKind",
    "dhat",
    "dhat_batch",
    "dhat_log_abs_batch",
    "dhat_bruteforce",
    "dhat_partial",
    "xhat",
    "xhat_batch",
    "gaussian_fhat",
    "gaussian_density_zero",
    "integrate_mc",
    "check_quadratic_approx",
    "QuadApproxReport",
    "one_factor_abs_cos_exact",
    "decay_bound_large_entry",
    "decay_bound_centered",
    "decay_bound_summary",
    "spike_dominance_x",
    "SpikeReport",
    "far_region_integral",
    "FarRegionReport",
    "unit_ball_volume",
]

TWO_PI = 2.0 * math.pi

# Sum of log|cos| below this is treated as total underflow.
LOG_CLAMP = -745.0

# Points x column types in flight in a row-split batch (the transform
# kernel and the per-point work around it), summed over all threads: bounds
# its memory for any n and any core count.
KERNEL_CHUNK = 1 << 22

# Values per block of the libm path of the kernel (its 2^m angle rows and
# at least T log rows x points), 2 MB. On that Xeon (2 vCPUs), xhat_batch
# on 2^16 cube points at m = 2-5, with blocks of 2^16 to 2^20 values each
# in 10 pairs alternating with 2^18: no size was faster in 9 pairs on two
# threads, nor on one thread at m = 3-5; at m = 2 on one thread 2^16 and
# 2^17 were 8-10% faster (10 and 9 pairs) but on two threads 7% slower
# (9 and 8 pairs). With libm's cos, one block per slice (8 MB at m = 4)
# raised the peak RSS of the m <= 4 benchmark workload by 10 MB.
LIBM_CHUNK = 1 << 18

# Points x gathered rows (LOG_GROUP per group of types, so at least the
# column types) per step of the angle-addition path: its three
# (rows, points) arrays, at most 1.5 MB, fit a 2 MB L2 cache. The path's
# stacked half tables are built per block of whole steps holding at most
# 2 TABLE_CHUNK values, 1 MB, at any number of types up to m = 30 (one
# point's past it), so they stay in that cache too (about 970 points at
# m = 10, 2020 at m = 8). On that Xeon with two threads, one
# round of the m in {8, 10} benchmark workload took 248.5-249.7 ms with
# steps of 2^15, 229.6-231.0 with 3 2^14, 230.0-230.8 with 2^16 and
# 246.5-247.6 with 3 2^15 (three 12 s runs each): smaller steps make more
# numpy calls per value, and the three arrays of larger ones (2.25 MB at
# 3 2^15) outgrow that cache. In six alternating 30 s runs of 3 2^14
# against 2^16, each won three (medians 849.5k and 848.0k samples/s), so
# the step stays 2^16. With tables over a whole row-split slice
# (4 MB per thread at m = 8), xhat_batch on cube points took 1.28 (m = 8)
# and 1.15 (m = 10) times as long on one thread, and the peak RSS of that
# workload was 7 MB higher.
TABLE_CHUNK = 1 << 16

# Column types of one count whose factors the angle-addition path multiplies
# before it takes one log of their product. On that Xeon, one thread,
# xhat_batch on 2^14 cube points at m = 6, 8 and 10 (n = 259, 533, 922;
# 62, 220 and 602 types of 8, 7 and 5 counts), groups of 2, 4 and 8 in
# alternation within a process (three runs of 21-31 rounds): against 4,
# 8 took 0.84-0.97 of the time by median at m = 10 (winning 55 of 73
# rounds), 0.93-1.02 at m = 8 and 1.00-1.08 at m = 6 (winning 10 of 73),
# and pads up to 7 rows per count instead of 3; 2 took 1.08-1.16 at
# m = 8 and 10. Against one log per type in alternation, groups of 4
# took 0.88 (m = 6), 0.76 (m = 8) and 0.78 (m = 10) of the time.
LOG_GROUP = 4

# The smallest normal double, 2^-1022: a group product below it (zero
# included) is logged member by member instead.
TINY = float(np.finfo(np.float64).tiny)

# Row-split batches of fewer points x column types than this (about a
# millisecond of work) run on the calling thread alone: below it, waking the
# pool's threads cost more than they saved on 2 cores, and single points
# never pay it.
PARALLEL_MIN_WORK = 1 << 15

# Calibrated constant for the quadratic approximation of log dhat: smallest
# power of two passing a 10^4-instance pre-run over m in {1..8},
# n in {1..1600}, p in (0.05, 1], theta up to the admissible radius.
# Worst observed ratio 716 (m=1 with t < 1); the single-column boundary
# case needs 136.
QUAD_K_DEFAULT = 1024.0

# Explicit constants the decay bounds leave unspecified; fixed here and
# reported by the suites rather than asserted as sharp.
SUMMARY_DECAY_C = 1e-3   # cap inside 1 - min(p |theta|^2 / 4, c)
CENTERED_DECAY_B = 1e-3  # domain cap on p |theta|_2^2 for the shifted bound
FAR_SIDE_C = 1e-3        # cap on p delta^2 for the far-region bound

# Radius inside which central-spike dominance is exercised.
SPIKE_RADIUS = 1.0 / 16.0


# -- basic types -----------------------------------------------------------------


def _theta_array(theta) -> np.ndarray:
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("expected a single theta vector")
    if not np.isfinite(arr).all():
        raise ValueError("theta must be finite")
    return arr


@dataclass(frozen=True)
class Estimate:
    """A Monte Carlo result: value, standard error, sample count, seed."""

    value: float
    stderr: float
    samples: int
    seed: int

    def scaled(self, factor: float) -> "Estimate":
        return Estimate(self.value * factor, self.stderr * abs(factor),
                        self.samples, self.seed)


def unit_ball_volume(m: int) -> float:
    return math.pi ** (m / 2.0) / math.gamma(m / 2.0 + 1.0)


class RegionKind(Enum):
    FULL_CUBE = "full_cube"
    QUARTER_CUBE = "quarter_cube"
    ORIGIN_BALL = "origin_ball"


@dataclass(frozen=True)
class Region:
    """A subset of the fundamental cube with a uniform sampler and a
    closed-form volume: the cube, the quarter cube or an origin ball.

    Integrals over other subsets (the far region) zero the integrand
    outside them and sample a region that contains them, which keeps the
    estimator unbiased with no rejection loop that could stall.
    """

    kind: RegionKind
    m: int
    radius: Optional[float] = None

    def __post_init__(self):
        # Radii up to 1/2 keep the ball inside the fundamental cube (the
        # torus-integral use); larger radii are allowed for the plain
        # Euclidean comparator integrals, which are not periodized.
        if self.kind is RegionKind.ORIGIN_BALL and not (
                self.radius is not None and 0.0 < self.radius < math.inf):
            raise ValueError("ball radius must be positive and finite")

    @classmethod
    def full_cube(cls, m: int) -> "Region":
        return cls(RegionKind.FULL_CUBE, m)

    @classmethod
    def quarter_cube(cls, m: int) -> "Region":
        return cls(RegionKind.QUARTER_CUBE, m)

    @classmethod
    def origin_ball(cls, m: int, radius: float) -> "Region":
        return cls(RegionKind.ORIGIN_BALL, m, radius=radius)

    def volume(self) -> float:
        if self.kind is RegionKind.FULL_CUBE:
            return 1.0
        if self.kind is RegionKind.QUARTER_CUBE:
            return 0.5 ** self.m
        return unit_ball_volume(self.m) * self.radius ** self.m

    def sample(self, rng: np.random.Generator, k: int,
               out: Optional[np.ndarray] = None) -> np.ndarray:
        """k points drawn uniformly from the region, into out if given (a
        C-contiguous (k, m) array) with the same bits."""
        if self.kind is RegionKind.ORIGIN_BALL:
            # Polar sampling: Gaussian direction, radius via u^(1/m). Exactly
            # uniform in the ball, no rejection, deterministic per stream.
            g = rng.standard_normal((k, self.m), out=out)
            norms = np.linalg.norm(g, axis=1, keepdims=True)
            norms[norms == 0.0] = 1.0
            radii = rng.random(k)
            radii **= 1.0 / self.m
            radii *= self.radius
            g /= norms
            g *= radii[:, None]
            return g
        pts = rng.random((k, self.m), out=out)
        pts -= 0.5
        if self.kind is RegionKind.QUARTER_CUBE:
            pts *= 0.5
        return pts


def _lattice_distance_sq(pts: np.ndarray) -> np.ndarray:
    """Squared l2 distances of a (k, m) batch to the half-integral lattice,
    coordinatewise exact for points of the fundamental cube."""
    a = np.round(pts)
    np.abs(np.subtract(pts, a, out=a), out=a)
    np.minimum(a, np.subtract(0.5, a), out=a)
    return np.einsum("ij,ij->i", a, a)


# -- transforms of the signed discrepancy ------------------------------------------


def _cos_turns(x: np.ndarray, cos: np.ndarray, tmp: np.ndarray,
               sin: Optional[np.ndarray] = None) -> None:
    """cos(2 pi x) into cos and, if sin is given, sin(2 pi x) into sin, for
    x in turns. x may be cos itself; tmp is scratch of x's shape.

    With r = x - rint(x), which is exact, and t = tan(pi r):
    cos = 1 - 2 t^2 / (1 + t^2) and sin = 2 t / (1 + t^2). numpy's float64
    cos and sin call libm one value at a time, while its tan is vectorised
    (on AVX-512): on the Xeon of the module docstring this took 5-6 ns a
    value for cos and 6-7 for both, against 13-20 and 20-46 ns for libm's.
    As rounded, |cos| <= 1, cos(0) = 1 and cos of a half turn is -1. Every
    value is computed elementwise, so it does not depend on the array that
    holds it.
    """
    np.rint(x, out=tmp)
    np.subtract(x, tmp, out=cos)
    np.multiply(cos, math.pi, out=cos)
    np.tan(cos, out=cos)
    np.multiply(cos, cos, out=tmp)
    denom = cos if sin is None else sin  # t is still needed for sin
    np.add(tmp, 1.0, out=denom)
    np.add(tmp, tmp, out=tmp)
    np.divide(tmp, denom, out=tmp)
    if sin is not None:
        np.add(cos, cos, out=cos)
        np.divide(cos, sin, out=sin)
    np.subtract(1.0, tmp, out=cos)


def _half_table_levels(m: int) -> Tuple[Tuple[slice, slice, slice, slice], ...]:
    """The levels of the angle addition that builds the half tables of
    `_kernel`, as (halves, coords, old, new) slices. The tables hold cos
    and sin of 2 pi times every subset sum of each half of the m
    coordinates, (2, 2^(m-h), k) each: row j of half 0 is the subset of the
    set bits of j among coordinates 0..h-1 (rows from 2^h on are left
    unset), row j of half 1 among h..m-1, and row 0 is the empty subset.
    Level i writes rows `new` = 2^i..2^(i+1)-1 of `halves` from rows `old`
    = 0..2^i-1 and the (m, k) cos and sin rows `coords` of the coordinates
    it adds: each level covers both halves in the same calls (coordinates
    i and h + i), and when m is odd a last level covers half 1 alone. At
    m = 1 half 0 is its empty subset alone."""
    h = m // 2
    return tuple((slice(0 if i < h else 1, 2), slice(i if i < h else h + i, h + i + 1, max(h, 1)),
                  slice(0, 1 << i), slice(1 << i, 2 << i)) for i in range(m - h))


Rows = Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]


def _kernel(V: np.ndarray, counts: np.ndarray, signed: bool) -> Callable[..., Rows]:
    """log|.| (unclamped) and, if signed, the sign of
    prod_v cos(2 pi <V^v, theta>)^counts[v] over 0/1 columns V^v, as a
    function rows(thetas, coords=False) of a (k, m) batch of theta rows;
    the sign is None otherwise. With coords, rows also returns the (k, m)
    coordinate cosines cos(2 pi theta_i) (a transposed view), else None.

    The factors come from one of two paths. The first is taken when
    neither the 2^m subsets of the coordinates nor the T column types
    outnumber the 4 2^(m-h) values per point of the stacked half tables
    below (h = m // 2), max(T, 2^m) <= 4 2^(m-h), which holds only at
    m <= 5. It tabulates the angles of all 2^m subsets, type-major on a
    (rows, points) array in blocks of at most LIBM_CHUNK values: row S, a
    bit mask, is row S - 2^i plus coordinate i, i the highest bit of S, so
    the table doubles once per coordinate and each subset's angle is the
    left-to-right sum of its coordinates. It takes cosines in place over
    the runs of consecutive rows that are nonzero types and, with coords,
    coordinates (the empty subset's cosine is 1; other rows keep their
    angles and are never read), and reads each type's factor, the odd
    types' signs and the coordinate cosines from the rows of their masks.
    The sign is the parity of the odd types' negative factors, and the
    weighted log factors are summed in the order numpy sums a row of them
    (`_sum_rows`). So every value is, bit for bit, that of one cosine per
    type and a row sum. The cosines' scratch is the block's log rows, of
    which there are at least as many as the longest run. A cosine of every
    nonzero subset in one run instead cost up to 1.2 times as long at m = 4
    with 10-12 of 16 types (one thread of a 2-vCPU Xeon, numpy 2.4, 2^16
    points with coordinate cosines). With the table path forced at every
    m >= 2, the m <= 4 benchmark workload (T <= 16) drew 26% fewer Monte
    Carlo samples a second, and single-point dhat and xhat took 1.3-2.5
    times as long.
    Otherwise, and so at every m >= 6, the m coordinates are split into
    halves of h and m - h (at m = 1, half 0 is the empty subset alone).
    For each half, cos and sin of 2 pi times all subset sums are
    tabulated by angle addition from one cos and one sin per coordinate,
    and each type's factor is CA[lo] CB[hi] - SA[lo] SB[hi], lo and hi its
    bits in the two halves:
    m cosines and m sines per point instead of T cosines. The factors
    are logged in groups: the types are sorted by count, odd counts first,
    and each count's types are cut into groups of LOG_GROUP, its last
    group padded with the empty subset, whose factor CA[0] CB[0] -
    SA[0] SB[0] is exactly 1. Each group contributes count x log|product|
    of its members' factors, multiplied left to right, and the sign is
    the parity of the odd-count groups' negative products: one log per
    LOG_GROUP types instead of one per type, which was about 1.8 of the
    path's 6 ns per point and type. A group whose |product| is below TINY,
    2^-1022, from underflow or from an exactly zero factor, is replaced by
    the sum of its members' log|factor| and the parity of their negative
    factors (`_log_tiny_groups`), so underflow never gives -inf or loses
    the sign, and a zero factor still gives -inf and dhat 0.0. With no
    product below TINY, which needs factors below about 1e-77, this costs
    one min reduction per step. The plan (the members' lo and hi, the low
    and high bits of their masks, LOG_GROUP rows per group; the number of
    odd groups and the groups' counts as weights) is computed at each
    kernel built, with the step and block from TABLE_CHUNK; no kernel
    keeps anything for the next. The grouping doubled the build: 41 us
    at m = 8 with 220 types and 53 us at m = 10 with 602, against 21 and
    26 us with one log per type, and a single-point dhat took 168 and
    203 us against 131 and 153 (best of 15 x 200 calls, alternated, on a
    host where the same calls took up to twice as long at other times).
    With few types this path costs
    more than one cosine per type: on one thread with coordinate cosines
    at m = 6, 8 and 10, 2^14 points took 2.2-4.6 times as long with 1-4
    types, 1.5-2.5 with 16, 1.2-1.4 with 32, 0.94-1.10 with 64 and 0.81
    with 128 (m = 10), and single points 1.2-2.5 times; no benchmark
    instance has so few types at m >= 6. Per block of
    points, the coordinates' cos and sin are taken into one (2, m, block)
    buffer, with the tables' scratch as theirs, and the tables are built
    into one stacked (2, 2^(m-h), block) buffer each for cos and sin; all
    are reused from block to block, and each level of the angle addition
    covers both halves in the same numpy calls (`_half_table_levels`). The
    per-type work runs in steps of at most TABLE_CHUNK points x gathered
    rows, each of at most 17 numpy calls: four gathers and the factors
    into LOG_GROUP row blocks of (groups, points), their product into one
    block, the odd groups' negative flags written into an (odd groups,
    block) buffer, the logs of the products point-major, the check for
    products below TINY, and the weighted log sum over each point's
    groups (its row, so a lone point is summed like any other); the
    flags' parity becomes the sign once per block. Each call builds
    every view a block of full width needs once (its coordinate cos and
    sin, each level's operands and outputs, each step's table columns,
    buffers, flags and slice of the result) and again only for a ragged
    last block, so the loops make only ufunc and
    ndarray.take calls. This matters because each call takes the
    interpreter lock back from the other threads of the row split, and
    Python between the calls holds it. A block is a whole number of steps
    whose stacked tables, 4 2^(m-h) values per point, hold at most
    2 TABLE_CHUNK values up to m = 30: with the step's buffers they fit a
    core's L2 cache, and beyond the batch's O(1) values per point (O(m)
    with coords) the working set does not grow with the batch. This path rounds
    differently from one cosine per factor: near the origin log|dhat|
    stays within rel 1e-12 of the column product; on the cube its worst
    error, relative to the conditioning sum_v counts[v] / |cos_v|, is
    within 4 times the libm path's. The grouped log moved log|dhat| on
    2^14 cube points at m = 6, 8 and 10 by at most 2.3e-13 (rel 6.3e-16)
    from one log per type, with every sign kept; against the long double
    product below its worst error stayed 2.6-3.9 eps times the
    conditioning and its median error fell by 1-8%.

    Every cosine and sine on either path is `_cos_turns`'s, so the bits
    follow numpy's tan dispatch as they follow its log and exp: where numpy
    takes tan from libm they differ, at the same accuracy. Against a long
    double column product after the same exact turn reduction, log|dhat|
    was within 1.9e-13 at points within 0.01 of the origin, and its worst
    error on the cube was 1.5-3.9 eps (2^-52) times the conditioning at
    m = 2, 4 (the libm path) and 8, 10 (the table path).

    Every step is elementwise except the reductions over each point's own
    values, so on either path a row's value does not depend on the batch
    that holds it.
    """
    m, types = V.shape
    h = m // 2
    odd = (counts & 1).astype(bool)
    masks = ((1 << np.arange(m)) @ V).astype(np.int64)  # each type's bits
    if max(types, 1 << m) <= 4 << (m - h):
        subsets = 1 << m
        odd_rows, coord_rows = masks[odd], 1 << np.arange(m)
        type_weights = counts.astype(np.float64)[:, None]
        # The runs [a, b) of rows that take a cosine, without and with
        # coords: the nonzero types' and then also the coordinates'.
        cos_runs = []
        for rows in (masks, np.concatenate([masks, coord_rows])):
            used = np.zeros(subsets + 1, dtype=np.int8)
            used[rows] = 1
            used[0] = 0  # the empty subset's cosine is 1
            cos_runs.append((np.flatnonzero(np.diff(used)) + 1).reshape(-1, 2).tolist())
        # The log rows are also the cosines' scratch.
        height = subsets + max([types] + [b - a for runs in cos_runs for a, b in runs])
        step = max(1, LIBM_CHUNK // height)

        def block(thetas: np.ndarray, work: np.ndarray, coords: bool) -> Rows:
            ang, logs = work[:subsets], work[subsets:subsets + types]
            ang[0] = 0.0
            for i in range(m):
                np.add(ang[:1 << i], thetas[:, i], out=ang[1 << i:2 << i])
            for a, b in cos_runs[coords]:
                _cos_turns(ang[a:b], ang[a:b], work[subsets:subsets + b - a])
            ang[0] = 1.0  # the empty subset's cosine, as _cos_turns gives it
            sign = None
            if signed:
                negative = np.less(ang.take(odd_rows, axis=0), 0.0)
                sign = np.where(np.logical_xor.reduce(negative, axis=0), -1.0, 1.0)
            np.take(ang, masks, axis=0, out=logs, mode="clip")
            with np.errstate(divide="ignore"):
                np.log(np.abs(logs, out=logs), out=logs)
            logs *= type_weights
            return _sum_rows(logs), sign, ang.take(coord_rows, axis=0).T if coords else None

        def rows(thetas: np.ndarray, coords: bool = False) -> Rows:
            k = thetas.shape[0]
            if k <= step:
                return block(thetas, np.empty((height, k)), coords)
            la = np.empty(k)
            sign = np.empty(k) if signed else None
            cos_t = np.empty((k, m)) if coords else None
            # Reused by every block: fresh arrays of this size cost page faults.
            flat = np.empty(height * step)
            for start in range(0, k, step):
                part = slice(start, start + step)
                th = thetas[part]
                la[part], s, c = block(th, flat[:height * len(th)].reshape(height, -1), coords)
                if signed:
                    sign[part] = s
                if coords:
                    cos_t[part] = c
            return la, sign, cos_t
        return rows

    # The types by count, odd counts first; each count's types in groups of
    # LOG_GROUP, its last group padded with the empty subset (factor 1).
    # Row block i of the gathered rows holds member i of every group.
    order = np.lexsort((counts, ~odd))
    by_count, ordered = counts[order], masks[order]
    ends = (np.flatnonzero(np.diff(by_count)) + 1).tolist() + [types] if types else []
    starts = ([0] + ends)[:-1]  # each count's types are ordered[start:end]
    sizes = [-(-(b - a) // LOG_GROUP) for a, b in zip(starts, ends)]  # its groups
    groups = sum(sizes)
    members = np.zeros((groups, LOG_GROUP), dtype=np.int64)  # mask 0: the empty subset
    slots, g = members.reshape(-1), 0
    for a, b, size in zip(starts, ends, sizes):
        slots[LOG_GROUP * g:LOG_GROUP * g + b - a] = ordered[a:b]
        g += size
    members = members.T.ravel()
    lo, hi = members & ((1 << h) - 1), members >> h
    group_counts = np.repeat(by_count[starts], sizes)
    weights = group_counts.astype(np.float64)
    n_odd = int((group_counts & 1).sum())  # the odd groups come first
    levels = _half_table_levels(m)
    plus_minus = np.array([1.0, -1.0])  # the sign of an even and an odd count of negatives
    height = LOG_GROUP * groups  # gathered rows per point
    step = max(1, TABLE_CHUNK // max(height, 2 << (m - h)))
    # Points per block of half tables: whole steps, and at most 2 TABLE_CHUNK
    # values for the stacked tables, 4 2^(m-h) per point; a step has no more
    # points than that, so few types never stretch a block (one point past m = 30).
    block = max(step, TABLE_CHUNK // (2 << (m - h)) // step * step)

    def rows(thetas: np.ndarray, coords: bool = False) -> Rows:
        k = thetas.shape[0]
        cos_t = np.empty((m, k)) if coords else None
        la = np.empty(k)
        sign = np.empty(k) if signed else None
        # Reused by every block: fresh arrays of this size cost page faults.
        flat = np.empty((3, height * min(k, step)))
        width = min(k, block)
        tables = np.empty((2, 2, 1 << (m - h), width))
        tables[0, :, 0], tables[1, :, 0] = 1.0, 0.0  # the empty subset, never overwritten
        # Also the scratch of the block's coordinate cos and sin: 2^(m-h) >= m rows.
        scratch = np.empty((2, 1 << (m - h - 1), width))
        trig = np.empty((2, m, width))  # the block's coordinate cos and sin
        neg = np.empty((n_odd, width), dtype=bool)
        parity = np.empty(width, dtype=bool)

        def step_views(points: int) -> Tuple[np.ndarray, ...]:
            # c, s and tmp, (height, points); c's row blocks, one per
            # member; the group products, (groups, points) in tmp's memory,
            # their odd groups and transpose; and the weighted logs
            # point-major in s's memory.
            c, s, tmp = (f[:height * points].reshape(height, points) for f in flat)
            prod = flat[2, :groups * points].reshape(groups, points)
            return (c, s, tmp, tuple(c.reshape(LOG_GROUP, groups, points)), prod, prod[:n_odd],
                    prod.T, flat[1, :groups * points].reshape(points, groups))

        def block_views(w: int) -> tuple:
            # For a block of w points: its coordinate cos, sin and their
            # scratch; each level's coordinate rows and operand and output
            # views of the tables; each step's table columns, negative flags
            # and step_views; and the flags and parity of the whole block.
            cos_w, sin_w = trig[..., :w]
            c_tab, s_tab = tables[..., :w]
            tmp = scratch[..., :w]
            ops = [(cos_w[c, None], sin_w[c, None], c_tab[hv, old], s_tab[hv, old], c_tab[hv, new],
                    s_tab[hv, new], tmp[hv, old]) for hv, c, old, new in levels]
            (ca, cb), (sa, sb) = c_tab, s_tab
            steps = []
            for b in range(0, w, step):
                cols = slice(b, min(b + step, w))
                points = cols.stop - b
                steps.append((ca[:, cols], cb[:, cols], sa[:, cols], sb[:, cols], neg[:, cols])
                             + (full if points == size else step_views(points)))
            trig_w = (cos_w, sin_w, scratch.reshape(1 << (m - h), width)[:m, :w])
            return trig_w, ops, steps, neg[:, :w], parity[:w]
        size = min(k, step)
        full = step_views(size)
        full_block = block_views(width)
        # Each step's slice of la, in order: a block is whole steps, so every
        # step but the batch's last is whole and starts at a multiple of step.
        cut = k - k % step
        targets = iter([*la[:cut].reshape(-1, step), la[cut:]])
        with np.errstate(divide="ignore"):
            for t in range(0, k, block):
                w = min(block, k - t)
                (cos_w, sin_w, trig_tmp), ops, steps, neg_w, parity_w = (
                    full_block if w == width else block_views(w))
                span = slice(t, t + w)
                _cos_turns(thetas[span].T, cos_w, trig_tmp, sin_w)
                if coords:
                    cos_t[:, span] = cos_w
                for ci, si, c_old, s_old, c_new, s_new, tmp in ops:
                    np.multiply(c_old, ci, c_new)
                    np.subtract(c_new, np.multiply(s_old, si, tmp), c_new)
                    np.multiply(s_old, ci, s_new)
                    np.add(s_new, np.multiply(c_old, si, tmp), s_new)
                for (ca, cb, sa, sb, neg_j, c, s, tmp, factors, prod, prod_odd, prod_t,
                     logs), la_j in zip(steps, targets):
                    # c = CA[lo] CB[hi] - SA[lo] SB[hi]; mode="clip" spares
                    # take a defensive copy of out (every index is in range).
                    ca.take(lo, 0, c, "clip")
                    np.multiply(c, cb.take(hi, 0, tmp, "clip"), c)
                    sa.take(lo, 0, s, "clip")
                    np.multiply(s, sb.take(hi, 0, tmp, "clip"), s)
                    np.subtract(c, s, c)
                    np.multiply(factors[0], factors[1], prod)
                    for member in factors[2:]:
                        np.multiply(prod, member, prod)
                    if signed:
                        # Not np.signbit: numpy 2.4 writes wrong flags into
                        # a strided bool output such as neg_j.
                        np.less(prod_odd, 0.0, neg_j)
                    np.absolute(prod, prod)
                    np.log(prod_t, logs)
                    if np.minimum.reduce(prod, None, initial=math.inf) < TINY:
                        _log_tiny_groups(prod, logs, factors, neg_j if signed else None)
                    np.multiply(logs, weights, logs)
                    np.add.reduce(logs, 1, None, la_j)
                if signed:
                    np.logical_xor.reduce(neg_w, 0, None, parity_w)
                    plus_minus.take(parity_w, 0, sign[span], "clip")
        return la, sign, cos_t.T if coords else None
    return rows


def _log_tiny_groups(prod: np.ndarray, logs: np.ndarray, members: Tuple[np.ndarray, ...],
                     neg: Optional[np.ndarray]) -> None:
    """Where a (groups, points) |product| is below TINY, replaces its log in
    the point-major logs by the sum of its members' log|factor|, in member
    order, and, if neg is given, its flag in the (odd groups, points) neg
    by the parity of its negative members, which a product that underflowed
    to zero no longer carries. So an underflowed product keeps a finite
    log and its sign, and a zero factor still gives -inf."""
    g, p = np.nonzero(prod < TINY)
    with np.errstate(divide="ignore"):
        total = np.log(np.abs(members[0][g, p]))
        for member in members[1:]:
            total += np.log(np.abs(member[g, p]))
    logs[p, g] = total
    if neg is not None:
        odd = g < neg.shape[0]
        g, p = g[odd], p[odd]
        neg[g, p] = np.logical_xor.reduce([member[g, p] < 0.0 for member in members])


def _worker_count() -> int:
    """Threads a batch is split over: every core the process may use."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool_lock = threading.Lock()
_pool: Optional[Tuple[int, int, ThreadPoolExecutor]] = None  # (pid, workers, pool)
_in_slice = threading.local()  # .active: this thread is evaluating a slice


def _kernel_pool(workers: int) -> ThreadPoolExecutor:
    """The process-wide pool of workers - 1 kernel threads, built on first use.

    It is rebuilt when the worker count changes and in a forked child,
    whose copy of the parent's pool has no live threads.
    """
    global _pool
    with _pool_lock:
        key = (os.getpid(), workers)
        if _pool is None or _pool[:2] != key:
            # A dropped pool's idle threads exit once no caller holds it.
            _pool = key + (ThreadPoolExecutor(workers - 1, "disclab-kernel"),)
        return _pool[2]


def _theta_rows(thetas, m: int) -> np.ndarray:
    """A batch of theta rows (or one theta) as a contiguous (B, m) float array."""
    thetas = np.asarray(thetas, dtype=np.float64)
    thetas = np.ascontiguousarray(np.atleast_2d(thetas))
    if thetas.shape[-1] != m:
        raise ValueError(f"theta dimension {thetas.shape[-1]} != m={m}")
    return thetas


def _map_rows(fn: Callable[[np.ndarray], np.ndarray], A: IncidenceMatrix, thetas) -> np.ndarray:
    """fn over row slices of a batch of theta rows for A, on every core:
    (B,), or (j, B) when fn returns a stack of j values per row.

    fn maps k rows to k values, or to a (j, k) stack, each row's computed
    from that row alone and the same way in any slice, so no value depends
    on the slicing or on the thread; the slices' results are joined along
    their last axis. Work is counted in points x column types of A. A
    batch of at least PARALLEL_MIN_WORK is cut into slices that the calling
    thread and the kernel pool share, the caller taking every T-th of the T
    threads' slices; each slice is at most KERNEL_CHUNK / T points x types,
    so at most KERNEL_CHUNK are in flight at once. A call made inside a slice
    runs on that slice's thread, with no second split.
    """
    thetas = _theta_rows(thetas, A.m)
    points, types = thetas.shape[0], max(A.column_types[0].shape[1], 1)
    nested = getattr(_in_slice, "active", False)
    workers = 1 if nested or points * types < PARALLEL_MIN_WORK else _worker_count()
    # Equal slices of at most cap rows, in whole rounds of one per thread.
    cap = max(1, KERNEL_CHUNK // (workers * types))
    rounds = max(1, -(-points // (workers * cap)))
    step = max(1, -(-points // (workers * rounds)))
    # An empty batch is one empty slice, so fn still gives the stack's height.
    slices = [slice(lo, lo + step) for lo in range(0, max(points, 1), step)]
    results = [None] * len(slices)

    def run(i: int) -> None:
        _in_slice.active = True
        try:
            results[i] = fn(thetas[slices[i]])
        finally:
            _in_slice.active = nested

    futures = []
    if workers > 1 and len(slices) > 1:
        pool = _kernel_pool(workers)
        futures = [pool.submit(run, i) for i in range(len(slices)) if i % workers]
    try:
        for i in range(0, len(slices), workers):
            run(i)
    finally:
        wait(futures)  # also when a slice raised: no task outlives the call
    for f in futures:
        f.result()
    return np.concatenate(results, axis=-1, dtype=np.float64)


def _exp_clamped(la: np.ndarray, sign=1.0) -> np.ndarray:
    """sign * exp(la), la clamped at LOG_CLAMP; exactly zero where la is -inf.

    Where la <= LOG_CLAMP the value is the constant exp(LOG_CLAMP), the
    smallest subnormal: exp is evaluated only on the other entries, since
    subnormal results take a slow path costing about 30 times a normal one.
    """
    val = np.full(la.shape, math.exp(LOG_CLAMP))
    live = ~(la <= LOG_CLAMP)  # NaN stays NaN
    val[live] = np.exp(la[live])
    return np.where(la == -math.inf, 0.0, sign * val)


Combine = Callable[[np.ndarray, np.ndarray], np.ndarray]


def dhat_batch(A: IncidenceMatrix, thetas, combine: Optional[Combine] = None) -> np.ndarray:
    """Transform of D = A x at a batch of theta rows, shape (B, m) -> (B,).

    The kernel and the clamped exp of each row run together on one core.
    With combine, each slice's values are combine(dhat, cos_t) instead,
    cos_t its (k, m) coordinate cosines cos(2 pi theta_i), which the
    kernel hands back: an integrand's other factors run in the same pass.
    """
    kernel = _kernel(*A.column_types, signed=True)

    def rows(part: np.ndarray) -> np.ndarray:
        la, sign, cos_t = kernel(part, coords=combine is not None)
        d = _exp_clamped(la, sign)
        return d if combine is None else combine(d, cos_t)
    return _map_rows(rows, A, thetas)


def dhat(A: IncidenceMatrix, theta) -> float:
    """Column product cos(2 pi <A^j, theta>) over all columns; |result| <= 1."""
    return float(dhat_batch(A, _theta_array(theta)[None, :])[0])


def dhat_log_abs_batch(A: IncidenceMatrix, thetas, combine: Optional[Combine] = None) -> np.ndarray:
    """log |dhat| for a batch, unclamped (-inf where a factor is exactly zero).

    With combine, each slice's values are combine(log |dhat|, cos_t), as in
    `dhat_batch`."""
    kernel = _kernel(*A.column_types, signed=False)

    def rows(part: np.ndarray) -> np.ndarray:
        la, _, cos_t = kernel(part, coords=combine is not None)
        return la if combine is None else combine(la, cos_t)
    return _map_rows(rows, A, thetas)


BRUTEFORCE_MAX_N = 24
BRUTEFORCE_CHUNK = 1 << 16  # colorings per block of the brute-force sum


def dhat_bruteforce(A: IncidenceMatrix, theta) -> float:
    """Average of cos(2 pi <A x, theta>) over all 2^n colorings.

    Independent oracle for dhat: enumerates colorings instead of using the
    column product. Colorings are paired with their negations, so the sine
    part cancels term by term; its residual is still accumulated and must
    stay below 1e-12.
    """
    if A.n > BRUTEFORCE_MAX_N:
        raise ValueError(f"refusing brute force for n={A.n} > {BRUTEFORCE_MAX_N}")
    arr = _theta_array(theta)
    w = arr @ A.columns_f64  # per-column phase contributions
    half = 1 << (A.n - 1)
    bit_cols = np.arange(A.n - 1, dtype=np.int64)
    real_sum = 0.0
    imag_sum = 0.0
    for start in range(0, half, BRUTEFORCE_CHUNK):
        idx = np.arange(start, min(start + BRUTEFORCE_CHUNK, half), dtype=np.int64)
        rest = (((idx[:, None] >> bit_cols) & 1) * 2 - 1).astype(np.float64)
        phases = TWO_PI * (w[0] + rest @ w[1:])
        real_sum += 2.0 * np.cos(phases).sum()
        imag_sum += float((np.sin(phases) + np.sin(-phases)).sum())
    if abs(imag_sum) / (2 ** A.n) > 1e-12:
        raise RuntimeError("imaginary part of the inversion sum failed to cancel")
    return real_sum / 2 ** A.n


def dhat_partial(A: IncidenceMatrix, theta, k: int) -> float:
    """|product of the first k column factors|; k = n gives |dhat|."""
    if not (isinstance(k, (int, np.integer)) and 0 <= k <= A.n):
        raise ValueError(f"k must be an integer in [0, {A.n}]")
    la, _, _ = _kernel(A.columns_f64[:, :k], np.ones(k, dtype=np.int64), signed=False)(
        _theta_rows(_theta_array(theta), A.m))
    return float(_exp_clamped(la)[0])


def xhat_batch(A: IncidenceMatrix, smoothing: SmoothingSpec | ParitySmoother, thetas) -> np.ndarray:
    """xhat at a batch of theta rows: dhat times the smoother's rhat_of_cos,
    in one row split."""
    return dhat_batch(A, thetas, lambda d, cos_t: d * smoothing.rhat_of_cos(cos_t))


def xhat(A: IncidenceMatrix, smoothing: SmoothingSpec | ParitySmoother, theta) -> float:
    """Transform of the smoothed discrepancy X = D + R: dhat times rhat."""
    return float(xhat_batch(A, smoothing, _theta_array(theta)[None, :])[0])


# -- Gaussian comparator -------------------------------------------------------------


def _validate_covariance(Sigma: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    S = np.asarray(Sigma, dtype=np.float64)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError("covariance must be a square matrix")
    if not np.allclose(S, S.T, atol=tol):
        raise ValueError("covariance must be symmetric")
    eig = np.linalg.eigvalsh(S)
    if eig.min() < -tol * max(1.0, eig.max()):
        raise ValueError("covariance must be positive semidefinite")
    return S


def gaussian_fhat(Sigma, theta) -> Union[float, np.ndarray]:
    """Transform of a centered Gaussian: exp(-2 pi^2 theta^T Sigma theta)."""
    S = _validate_covariance(Sigma)
    arr = np.asarray(theta, dtype=np.float64)
    batch = np.atleast_2d(arr)
    q = np.einsum("bi,ij,bj->b", batch, S, batch)
    out = np.exp(-2.0 * math.pi ** 2 * q)
    return float(out[0]) if arr.ndim == 1 else out


def gaussian_density_zero(Sigma) -> float:
    """Density at the origin: (2 pi)^(-m/2) det(Sigma)^(-1/2)."""
    S = _validate_covariance(Sigma)
    sign, logdet = np.linalg.slogdet(S)
    if sign <= 0:
        raise ValueError("covariance must have positive determinant")
    m = S.shape[0]
    return math.exp(-0.5 * (m * math.log(2.0 * math.pi) + logdet))


# -- Monte Carlo integrator -----------------------------------------------------------

# Points per Monte Carlo block. Block b draws from the derived stream
# (seed, b), so this fixes how every estimate splits its stream: changing
# it changes every estimate's bits.
MC_BLOCK = 1 << 16


class RunningMoments:
    """Count, sum and centred sum of squares of Monte Carlo values, by block.

    Each block's squares are centred on the block's own mean and merged by
    the pairwise update of Chan, Golub & LeVeque, so the variance does not
    cancel when the standard error is far below |mean|. The mean is the
    plain running sum over the count, added in block order.
    """

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.m2 = 0.0

    def add(self, vals: np.ndarray) -> None:
        k = vals.size
        s = float(vals.sum())
        dev = vals - s / k
        m2 = float((dev * dev).sum())
        if self.count:
            delta = s / k - self.mean
            m2 += delta * delta * (self.count * k / (self.count + k))
        self.m2 += m2
        self.count += k
        self.total += s

    @property
    def mean(self) -> float:
        return self.total / self.count

    @property
    def stderr(self) -> float:
        """Sample standard deviation over sqrt(count); zero for one value."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count - 1) / self.count)


def integrate_mc(
    f: Callable[[np.ndarray], np.ndarray],
    region: Region,
    samples: int,
    seed: int,
    stderr_target: Optional[float] = None,
) -> Union[Estimate, Tuple[Estimate, ...]]:
    """Unbiased Monte Carlo estimate of the integral of f over the region.

    f maps a (k, m) batch of points drawn uniformly from the region to (k,)
    values, one per point, or to a (j, k) stack of j integrands' values
    over the same points, the same j in every call (any other shape raises
    ValueError); the estimate is the region's volume times their mean, and
    a stack gives a tuple of j Estimates, row by row, each with the bits a
    lone call of its row would give. Block b draws at most MC_BLOCK points
    from the derived stream (seed, b), and each block's moments are merged
    in block order, so the estimate depends only on (seed, samples), never
    on scheduling.

    The blocks are taken in windows of one per core (`_worker_count`):
    the calling thread and the kernel pool draw a window's blocks at once
    into one array, which f then gets on the calling thread, each block
    MC_BLOCK points but the last. The array is reused from window to
    window, so f must not keep it. When stderr_target is given, the budget
    doubles from one block until the reported stderr (scaled by the region
    volume) meets it, for every row of a stack, with `samples` as the hard
    cap; no window crosses one of these checkpoints, and the Estimate
    reports the samples spent.
    """
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError("samples must be an integer")
    if samples < 1:
        raise ValueError("samples must be positive")
    if stderr_target is not None and not stderr_target >= 0.0:  # NaN too
        raise ValueError("stderr_target must be nonnegative")
    scale = region.volume()
    moments = None  # one RunningMoments per row, from the first window on
    workers = 1 if getattr(_in_slice, "active", False) else _worker_count()
    blocks = -(-samples // MC_BLOCK)
    window = np.empty((min(samples, workers * MC_BLOCK), region.m))

    def draw(b: int, lo: int) -> None:
        k = min(MC_BLOCK, samples - b * MC_BLOCK)
        region.sample(stream(seed, b), k, out=window[lo:lo + k])

    start, checkpoint = 0, 1  # in blocks
    while start < blocks:
        stop = min(blocks, start + workers, blocks if stderr_target is None else checkpoint)
        futures = []
        if stop - start > 1:
            pool = _kernel_pool(workers)
            futures = [pool.submit(draw, b, (b - start) * MC_BLOCK) for b in range(start + 1, stop)]
        try:
            draw(start, 0)
        finally:
            wait(futures)  # also when the caller's draw raised: no task outlives the call
        for fut in futures:
            fut.result()
        size = min(samples, stop * MC_BLOCK) - start * MC_BLOCK
        vals = np.asarray(f(window[:size]), dtype=np.float64)
        if vals.ndim not in (1, 2) or vals.shape[-1] != size or vals.size == 0:
            raise ValueError(f"integrand returned shape {vals.shape} for {size} points")
        if moments is None:
            height, moments = vals.shape[:-1], [RunningMoments() for _ in range(vals.size // size)]
        if vals.shape[:-1] != height:
            raise ValueError(f"integrand returned shape {vals.shape} for {size} points, "
                             f"stack shape {height} before")
        rows = vals.reshape(-1, size)
        for lo in range(0, size, MC_BLOCK):
            for acc, row in zip(moments, rows):
                acc.add(row[lo:lo + MC_BLOCK])
        start = stop
        if stderr_target is not None and start == checkpoint:
            if scale * max(acc.stderr for acc in moments) <= stderr_target:
                break
            checkpoint *= 2
    estimates = tuple(Estimate(scale * acc.mean, scale * acc.stderr, acc.count, int(seed))
                      for acc in moments)
    return estimates if height else estimates[0]


# -- quadratic approximation of log dhat ------------------------------------------------


@dataclass
class QuadApproxReport:
    """Residual of log dhat against the quadratic form -2 pi^2 theta^T A A^T theta."""

    log_dhat: Optional[float]
    quad_form: float
    bound: float
    ok: Optional[bool]
    failures: Tuple[str, ...]


def check_quadratic_approx(A: IncidenceMatrix, theta) -> QuadApproxReport:
    """Check |log dhat(theta) + 2 pi^2 theta^T (A A^T) theta| <= K n t^2 |theta|_2^4.

    K is the calibrated QUAD_K_DEFAULT. Preconditions (|theta|_2 <=
    1/(16 sqrt t), max column frequency <= 4t, dhat > 0) are reported in
    `failures` rather than silently skipped; ok is None when any of them
    fails. Raises ValueError when t = p m is zero, since the radius
    1/(16 sqrt t) is then undefined.
    """
    arr = _theta_array(theta)
    t = A.t
    if t == 0.0:
        raise ValueError("t = p m is zero: the quadratic approximation has no radius")
    failures = []
    norm_sq = float(arr @ arr)
    if norm_sq > (1.0 / (256.0 * t)) * (1.0 + 1e-12):
        failures.append("theta norm exceeds 1/(16 sqrt t)")
    if max_column_frequency(A) > 4.0 * t:
        failures.append("a column frequency exceeds 4t")
    ip = arr @ A.columns_f64
    quad = 2.0 * math.pi ** 2 * float(ip @ ip)
    bound = QUAD_K_DEFAULT * A.n * t * t * norm_sq * norm_sq
    if (np.cos(TWO_PI * ip) <= 0.0).any():
        failures.append("dhat is not positive at theta")
        return QuadApproxReport(None, quad, bound, None, tuple(failures))
    log_dhat = float(dhat_log_abs_batch(A, arr)[0])
    ok = None if failures else bool(abs(log_dhat + quad) <= bound)
    return QuadApproxReport(log_dhat, quad, bound, ok, tuple(failures))


# -- expected one-column decay -----------------------------------------------------------

ONE_FACTOR_MAX_M = 20


def one_factor_abs_cos_exact(theta, p: float, shift: float = 0.0) -> float:
    """E |cos(shift + 2 pi <a, theta>)| over a ~ Bernoulli(p)^m, by full 2^m enumeration."""
    arr = _theta_array(theta)
    m = arr.size
    if m > ONE_FACTOR_MAX_M:
        raise ValueError(f"refusing 2^m enumeration for m={m} > {ONE_FACTOR_MAX_M}")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    phases = np.zeros(1)
    weights = np.ones(1)
    for th in arr:
        phases = np.concatenate([phases, phases + th])
        weights = np.concatenate([weights * (1.0 - p), weights * p])
    return float(weights @ np.abs(np.cos(shift + TWO_PI * phases)))


def decay_bound_large_entry(theta, p: float) -> float:
    """Bound 1 - (pi^2/4) p |theta|_inf^2 for the plain one-column expectation."""
    arr = _theta_array(theta)
    return 1.0 - (math.pi ** 2 / 4.0) * p * float(np.abs(arr).max()) ** 2


def decay_bound_centered(theta, p: float) -> float:
    """Bound 1 - p |theta|_2^2 / 2 for the recentred, phase-shifted expectation."""
    arr = _theta_array(theta)
    return 1.0 - 0.5 * p * float(arr @ arr)


def decay_bound_summary(theta, p: float) -> float:
    """Bound 1 - min(p |theta|_2^2 / 4, c) for the plain one-column
    expectation, at the fixed c = SUMMARY_DECAY_C."""
    arr = _theta_array(theta)
    return 1.0 - min(0.25 * p * float(arr @ arr), SUMMARY_DECAY_C)


def one_factor_centered_exact(theta, p: float, s: float) -> float:
    """E |cos(s + 2 pi <theta, a - p 1>)| over a ~ Bernoulli(p)^m, exactly.

    Same enumeration as one_factor_abs_cos_exact with the mean of <a, theta>
    folded into the phase shift.
    """
    arr = _theta_array(theta)
    return one_factor_abs_cos_exact(arr, p, shift=s - TWO_PI * p * float(arr.sum()))


# -- dominance of the central spike ----------------------------------------------------


@dataclass
class SpikeReport:
    """|xhat| at theta against twice the summed |xhat| over nonzero shifts."""

    lhs: float
    rhs: float
    dominance: bool
    periodicity_dev: float
    terms: int
    exhaustive: bool
    in_domain: bool


def spike_dominance_x(A: IncidenceMatrix, smoothing: SmoothingSpec, theta) -> SpikeReport:
    """Check |xhat(theta)| > 2 sum over nonzero half-integral shifts s of |xhat(theta+s)|.

    Requires a width-1 smoother. All 3^m - 1 shifts are enumerated exactly
    while 3^m <= 10^6; otherwise the sum is estimated from 2048 shifts
    sampled from stream(0) and the report is flagged non-exhaustive. |dhat|
    is also re-evaluated at every tested shift to confirm its half-integral
    periodicity; the worst deviation is reported.
    """
    if not isinstance(smoothing, SmoothingSpec) or smoothing.delta != 1:
        raise ValueError("spike dominance is checked for the width-1 smoother only")
    arr = _theta_array(theta)
    m = arr.size
    shifts, exhaustive = _half_integral_shifts(m, 2048)
    d0 = dhat(A, arr)
    r0 = float(rhat_md(1, arr))
    shifted = arr[None, :] + shifts
    ds = dhat_batch(A, shifted)
    rs = rhat_md(1, shifted)
    terms = np.abs(ds * rs)
    if exhaustive:
        rhs = 2.0 * float(terms.sum())
    else:
        rhs = 2.0 * float(terms.mean()) * (3 ** m - 1)
    lhs = abs(d0 * r0)
    periodicity_dev = float(np.abs(np.abs(ds) - abs(d0)).max())
    return SpikeReport(
        lhs=lhs,
        rhs=rhs,
        dominance=bool(lhs > rhs),
        periodicity_dev=periodicity_dev,
        terms=shifts.shape[0],
        exhaustive=exhaustive,
        in_domain=bool(float(arr @ arr) <= SPIKE_RADIUS ** 2),
    )


# -- far-region decay ----------------------------------------------------------------------


@dataclass
class FarRegionReport:
    """Monte Carlo integral of |dhat| over the far region, with log diagnostics.

    log_mean is the log of the Monte Carlo mean computed stably from the
    per-sample log values, so the decay trend stays visible even when the
    linear-scale value underflows to zero.
    """

    estimate: Estimate
    log_mean: float
    bound: float
    delta: float
    p_delta_sq: float
    side_ok_small: bool
    side_ok_sixth: bool


def far_region_integral(
    A: IncidenceMatrix,
    delta_param: float,
    samples: int,
    seed: int,
    include_rhat_delta: Optional[int] = None,
) -> FarRegionReport:
    """Estimate the integral of |dhat| over points at lattice distance >= delta.

    One `integrate_mc` call over the full cube. The integrand is zero at
    points whose squared distance to the half-integral lattice is below
    delta^2 and evaluates the kernel on the other, far points only; it
    also keeps a running log-sum-exp of their log values for `log_mean`,
    advanced block by block.
    The report carries the comparison value exp(-p delta^2 n / 24) and the
    two side conditions p delta^2 / 6 <= 1 and p delta^2 <= FAR_SIDE_C.
    When include_rhat_delta is given, the integrand is |xhat| for that
    smoother width instead of |dhat|.
    """
    if A.meta.p is None:
        raise ValueError("far-region comparison needs the generation probability p")
    if not 0.0 < delta_param < math.inf:  # NaN too
        raise ValueError("delta must be positive and finite")
    p = A.meta.p
    delta_sq = delta_param ** 2
    lse_max = -math.inf
    lse_sum = 0.0

    log_rhat = None if include_rhat_delta is None else build_pmf(include_rhat_delta).log_rhat_of_cos

    def abs_integrand(pts: np.ndarray) -> np.ndarray:
        nonlocal lse_max, lse_sum
        far = _lattice_distance_sq(pts) >= delta_sq
        if not far.any():
            return np.zeros(len(pts))
        everywhere = far.all()  # at m = 10, every block: no copy of its points
        la = dhat_log_abs_batch(A, pts if everywhere else pts[far], None if log_rhat is None
                                else lambda la, cos_t: la + log_rhat(cos_t))
        # The log-sum-exp advances one MC block at a time, in block order,
        # whichever window holds the block.
        cuts = np.searchsorted(np.flatnonzero(far), range(MC_BLOCK, len(pts), MC_BLOCK))
        for part in np.split(la, cuts):
            finite = part[part > -math.inf]
            if finite.size:
                fmax = max(lse_max, float(finite.max()))
                lse_sum = lse_sum * math.exp(lse_max - fmax) + float(np.exp(finite - fmax).sum())
                lse_max = fmax
        if everywhere:
            return _exp_clamped(la)
        vals = np.zeros(len(pts))
        vals[far] = _exp_clamped(la)
        return vals

    est = integrate_mc(abs_integrand, Region.full_cube(A.m), samples, seed)
    log_mean = (lse_max + math.log(lse_sum) - math.log(samples)) if lse_sum > 0.0 else -math.inf
    p_delta_sq = p * delta_param * delta_param
    return FarRegionReport(
        estimate=est,
        log_mean=log_mean,
        bound=math.exp(-p_delta_sq * A.n / 24.0),
        delta=float(delta_param),
        p_delta_sq=p_delta_sq,
        side_ok_small=bool(p_delta_sq <= FAR_SIDE_C),
        side_ok_sixth=bool(p_delta_sq / 6.0 <= 1.0),
    )
