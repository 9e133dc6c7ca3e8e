"""Point probabilities of the smoothed discrepancy X = A x + R, two ways.

The exact route takes the law of the signed discrepancy A x from a
dynamic program over the column types (its cost grows with the number of
distinct values of A x, not with 2^n) and convolves it with the
smoother's law in integer arithmetic, so its output is a Fraction with
denominator dividing 2^n * 4^(m*delta); no rounding enters the oracle the
rest of the suite leans on. The scalable route estimates the inversion
integral of xhat against exp(-2 pi i <lambda, theta>) over the
fundamental cube by Monte Carlo. The even-parity shortcut integrates over
the quarter cube only, and the cancellation check exercises the identity
the inversion formula rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import numpy as np

from .fourier import (
    Estimate,
    FarRegionReport,
    Region,
    _exp_clamped,
    dhat_log_abs_batch,
    far_region_integral,
    integrate_mc,
    xhat_batch,
)
from .rng import child_seed
from .setsystem import IncidenceMatrix
from .smoothing import ParitySmoother, SmoothingSpec, _row_product
from .solvers import _disc_law

__all__ = [
    "PointProbability",
    "prob_exact",
    "distribution_exact",
    "prob_fourier_mc",
    "prob_even_variant",
    "cancellation_check",
    "three_region_assembly",
    "AssemblyReport",
    "EXACT_MAX_N",
]

TWO_PI = 2.0 * math.pi
EXACT_MAX_N = 24


@dataclass(frozen=True)
class PointProbability:
    """Pr[X = lambda], exactly and/or by Monte Carlo."""

    lam: Tuple[int, ...]
    exact: Optional[Fraction] = None
    estimate: Optional[Estimate] = None

    @property
    def abs_gap(self) -> Optional[float]:
        if self.exact is None or self.estimate is None:
            return None
        return abs(float(self.exact) - self.estimate.value)

    def to_dict(self) -> dict:
        return {
            "lambda": list(self.lam),
            "exact": None if self.exact is None else str(self.exact),
            "exact_float": None if self.exact is None else float(self.exact),
            "estimate": None if self.estimate is None else {
                "value": self.estimate.value,
                "stderr": self.estimate.stderr,
                "samples": self.estimate.samples,
                "seed": self.estimate.seed,
            },
            "abs_gap": self.abs_gap,
        }


def _lambda_array(A: IncidenceMatrix, lam) -> np.ndarray:
    arr = np.asarray(lam, dtype=np.int64)
    if arr.ndim == 0:
        arr = arr[None]
    if arr.shape != (A.m,):
        raise ValueError(f"lambda has shape {arr.shape}, expected ({A.m},)")
    return arr


def _integer_row_laws(smoothing, m: int) -> Tuple[List[Dict[int, int]], int]:
    """The smoother's row laws as integer numerators over common denominators.

    Row i's law is nums[i][r] / L_i with L_i the least common denominator
    of its table; zero entries are dropped. Returns (nums, prod_i L_i).
    """
    nums, denominator = [], 1
    for table in smoothing.row_pmfs(m):
        L = math.lcm(*(p.denominator for p in table.values()))
        nums.append({r: p.numerator * (L // p.denominator) for r, p in table.items() if p})
        denominator *= L
    return nums, denominator


def prob_exact(A: IncidenceMatrix, smoothing, lam) -> Fraction:
    """Exact Pr[X = lambda] from the exact law of A x.

    Takes the law of A x from `solvers._disc_law`, a dynamic program over
    column types whose cost grows with the number of distinct values of
    A x, keeps the values every row's smoother law can move onto lambda,
    convolves those with the smoother's law in integers and divides once
    at the end. Works for both smoother kinds; refuses n > 24.
    """
    if A.n > EXACT_MAX_N:
        raise ValueError(f"refusing the exact law for n={A.n} > {EXACT_MAX_N}")
    target = _lambda_array(A, lam).tolist()
    rows, denominator = _integer_row_laws(smoothing, A.m)
    states, counts = _disc_law(A)
    reach = np.ones(len(counts), dtype=bool)
    for i, (row, lam_i) in enumerate(zip(rows, target)):
        # |D_i| <= n, so farther values cannot occur (and would not fit int8).
        reach &= np.isin(states[:, i], [lam_i - r for r in row if abs(lam_i - r) <= A.n])
    total = 0
    for disc_vec, cnt in zip(states[reach].tolist(), counts[reach].tolist()):
        for row, lam_i, d in zip(rows, target, disc_vec):
            cnt *= row[lam_i - d]
        total += cnt
    return Fraction(total, denominator << A.n)


def distribution_exact(A: IncidenceMatrix, smoothing) -> dict:
    """The full exact law of X as {lambda tuple: Fraction}; sums to one.

    Refuses n > 24, and laws that may exceed 2^20 entries: the values of
    A x (the type DP's states) times the rows' smoother supports. At
    m = 6, n = 12 a bound of 1.0e6 held 313 021 entries in 83 MB.
    """
    if A.n > EXACT_MAX_N:
        raise ValueError(f"refusing the exact law for n={A.n} > {EXACT_MAX_N}")
    rows, denominator = _integer_row_laws(smoothing, A.m)
    states, counts = _disc_law(A)
    size = len(counts) * math.prod(len(row) for row in rows)
    if size > 1 << 20:
        raise ValueError(f"refusing the exact law with up to {size} entries > 2^20")
    law = dict(zip(map(tuple, states.tolist()), counts.tolist()))
    for i, row in enumerate(rows):  # the smoother's rows are independent
        smoothed: Dict[Tuple[int, ...], int] = {}
        for vec, cnt in law.items():
            head, d, tail = vec[:i], vec[i], vec[i + 1:]
            for r, num in row.items():
                key = head + (d + r,) + tail
                smoothed[key] = smoothed.get(key, 0) + cnt * num
        law = smoothed
    scale = denominator << A.n
    return {lam: Fraction(t, scale) for lam, t in law.items()}


def prob_fourier_mc(
    A: IncidenceMatrix,
    smoothing,
    lam,
    samples: int,
    seed: int,
    stderr_target: Optional[float] = None,
) -> Estimate:
    """Monte Carlo inversion integral for Pr[X = lambda] over the cube.

    One `integrate_mc` call over the full cube. xhat is real and even in
    theta, so the integral of the sine part, -xhat(theta) sin(2 pi
    <lambda, theta>), is exactly zero; the integrand is the cosine part
    xhat(theta) cos(2 pi <lambda, theta>) alone. Point probabilities span
    many orders of magnitude, so stderr_target is passed on to the
    engine's adaptive stop: the budget doubles from one block until the
    target is met, with `samples` as the hard cap, and the Estimate
    reports the samples actually spent.
    """
    target = _lambda_array(A, lam).astype(np.float64)

    def integrand(pts: np.ndarray) -> np.ndarray:
        x = xhat_batch(A, smoothing, pts)
        # At lambda = 0 the character is cos(0) = 1 exactly: skipped.
        return x * np.cos(TWO_PI * (pts @ target)) if target.any() else x

    return integrate_mc(
        integrand,
        Region.full_cube(A.m),
        samples,
        seed,
        stderr_target=stderr_target,
    )


def prob_even_variant(A: IncidenceMatrix, samples: int, seed: int) -> Estimate:
    """Pr[X = 0] for the parity smoother: 2^m times the quarter-cube integral.

    X lands on the even lattice by construction, which is what shrinks the
    integration domain to [-1/4, 1/4)^m.
    """
    smoother = ParitySmoother.from_matrix(A)
    est = integrate_mc(
        lambda pts: xhat_batch(A, smoother, pts),
        Region.quarter_cube(A.m),
        samples,
        seed,
    )
    return est.scaled(2.0 ** A.m)


def cancellation_check(t, samples: int, seed: int) -> Tuple[Estimate, Estimate]:
    """Monte Carlo of the cube integral of exp(2 pi i <t, theta>).

    Returns (real, imaginary) estimates. The integral is 1 exactly when
    t = 0 and cancels to 0 for every other integer vector: each nonzero
    coordinate walks the unit circle a whole number of times.
    """
    tv = np.asarray(t, dtype=np.int64)
    if tv.ndim == 0:
        tv = tv[None]
    m = tv.size
    re = integrate_mc(
        lambda pts: np.cos(TWO_PI * (pts @ tv.astype(np.float64))),
        Region.full_cube(m),
        samples,
        child_seed(seed, 0),
    )
    im = integrate_mc(
        lambda pts: np.sin(TWO_PI * (pts @ tv.astype(np.float64))),
        Region.full_cube(m),
        samples,
        child_seed(seed, 1),
    )
    return re, im


@dataclass
class AssemblyReport:
    """Numerical shadow of the three-region split of the inversion integral.

    central: integral of xhat over the origin ball of radius 1/(16 sqrt t).
    near:    summed integral of |xhat| over the same-size balls around all
             nonzero shifts in {-1/2, 0, 1/2}^m. A shift with j
             coordinates +-1/2 is one point of the torus counted 2^j times,
             and the j = 1 shells carry almost all of the sum, so near is
             about twice the torus value (3.05e-15 against 1.54e-15 at
             m = 8) and spike_ok is conservative.
    far:     integral of |xhat| over the region at lattice distance >= the
             same radius, with log diagnostics.
    witness: integral of xhat over the smaller ball of radius 1/(pi sqrt n)
             against its Gaussian floor 1/2 * (2 pi n m)^(-m/2).
    """

    radius: float
    central: Estimate
    near: Estimate
    far: FarRegionReport
    witness: Estimate
    witness_floor: float
    central_positive: bool
    spike_ok: bool
    far_ok: bool
    witness_ok: bool


def three_region_assembly(
    A: IncidenceMatrix,
    smoothing: SmoothingSpec,
    samples: int,
    seed: int,
) -> AssemblyReport:
    """Estimate the three pieces the positivity of Pr[X = 0] rests on.

    The near-lattice piece uses the half-integral periodicity of |dhat|:
    summing |xhat(theta + s)| over all nonzero shifts s collapses to
    |dhat(theta)| times an exactly computed transform factor, so one ball
    sampler covers all 3^m - 1 shells at once. Those shifts count each
    shell of the torus once per sign of each +-1/2 coordinate, so `near`
    is about twice the torus value and the spike check against it is
    conservative (see AssemblyReport).
    """
    if not isinstance(smoothing, SmoothingSpec):
        raise TypeError("assembly expects the width-delta smoother")
    t = A.t
    radius = 1.0 / (16.0 * math.sqrt(t))
    if radius > 0.5:
        raise ValueError("central radius exceeds the cube; t is too small")
    delta = smoothing.delta

    central = integrate_mc(
        lambda pts: xhat_batch(A, smoothing, pts),
        Region.origin_ball(A.m, radius),
        samples,
        child_seed(seed, 0),
    )

    def near_shells(la: np.ndarray, cos_t: np.ndarray) -> np.ndarray:
        # |dhat| times the sum over nonzero shifts s of rhat(theta + s), via
        # the factorized per-coordinate identity; the two half-integer
        # shifts coincide.
        half_cos = 0.5 * cos_t
        g0 = (0.5 + half_cos) ** delta
        gh = (0.5 - half_cos) ** delta
        return _exp_clamped(la) * (_row_product(g0 + 2.0 * gh) - _row_product(g0))

    near = integrate_mc(
        lambda pts: dhat_log_abs_batch(A, pts, near_shells),
        Region.origin_ball(A.m, radius),
        samples,
        child_seed(seed, 1),
    )

    far = far_region_integral(
        A, radius, samples, child_seed(seed, 2), include_rhat_delta=delta
    )

    witness_radius = min(1.0 / (math.pi * math.sqrt(A.n)), 0.5)
    witness = integrate_mc(
        lambda pts: xhat_batch(A, smoothing, pts),
        Region.origin_ball(A.m, witness_radius),
        samples,
        child_seed(seed, 3),
    )
    witness_floor = 0.5 * (2.0 * math.pi * A.n * A.m) ** (-A.m / 2.0)

    return AssemblyReport(
        radius=radius,
        central=central,
        near=near,
        far=far,
        witness=witness,
        witness_floor=witness_floor,
        central_positive=central.value > 0.0,
        spike_ok=central.value >= 2.0 * near.value,
        far_ok=0.5 * central.value > far.estimate.value,
        witness_ok=witness.value >= witness_floor - 3.0 * witness.stderr,
    )
