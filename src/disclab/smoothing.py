"""The additive smoothing distribution and its Fourier transform.

A width-Delta smoother is the sum of Delta independent steps in
{-1, 0, +1} taken with probabilities (1/4, 1/2, 1/4); it is its Delta
alone, from which its exact law (integer numerators over 4**Delta) is
derived. A second variant adds a fair +-1 only on the rows of an
incidence matrix whose set size is odd, which forces the smoothed
discrepancy vector onto the even lattice; it checks its rows. Each class
alone defines its law (`row_laws`) and, in double precision over the
coordinate cosines cos(2 pi theta_i), every transform factor the
integrands use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .rng import stream
from .setsystem import IncidenceMatrix

__all__ = [
    "SmoothingSpec",
    "ParitySmoother",
    "build_pmf",
    "sample",
    "rhat_1d",
    "rhat_md",
    "check_rhat_bounds",
    "RhatBoundReport",
    "rho",
    "parity_rhat",
    "half_lattice_points",
]

# Violations smaller than this are float noise, not counterexamples.
BOUND_TOL = 1e-12

# Grid step of the 1-d maximization in rho().
RHO_GRID_STEP = 1e-4


@dataclass(frozen=True)
class SmoothingSpec:
    """The width-delta smoother, defined by delta, a nonnegative integer.

    numerators[k + delta] / 4**delta is the probability of value k, for k
    in [-delta, delta]: the delta-fold convolution of (1, 2, 1), derived
    on construction. The table is symmetric, sums to 4**delta and has no
    zero entry. `pmf` reads it as Fractions; `row_laws` hands the integers
    themselves to the exact law of X.
    """

    delta: int
    numerators: Tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if not (self.delta >= 0 and self.delta % 1 == 0):  # also false for inf and nan
            raise ValueError("delta must be a nonnegative integer")
        object.__setattr__(self, "delta", int(self.delta))
        nums = [1]
        for _ in range(self.delta):  # convolve with (1, 2, 1)
            nums = [a + 2 * b + c for a, b, c in zip(nums + [0, 0], [0, *nums, 0], [0, 0, *nums])]
        object.__setattr__(self, "numerators", tuple(nums))

    @property
    def denominator(self) -> int:
        return 4 ** self.delta

    def pmf(self, k: int) -> Fraction:
        if abs(k) > self.delta:
            return Fraction(0)
        return Fraction(self.numerators[k + self.delta], self.denominator)

    def pmf_table(self) -> Dict[int, Fraction]:
        return {k: self.pmf(k) for k in range(-self.delta, self.delta + 1)}

    def variance(self) -> Fraction:
        return sum(
            (Fraction(k * k) * self.pmf(k) for k in range(-self.delta, self.delta + 1)),
            Fraction(0),
        )

    def row_laws(self, m: int) -> Tuple[List[Dict[int, int]], int]:
        """The m iid row laws as integer numerators, and their joint denominator.

        Every row is {k: numerators[k + delta]} over 4**delta, so the joint
        denominator is 4**(m delta).
        """
        row = {k - self.delta: v for k, v in enumerate(self.numerators)}
        return [row] * m, self.denominator ** m

    def rhat_of_cos(self, cos_t: np.ndarray) -> np.ndarray:
        """The transform prod_i (1/2 + cos_t_i / 2)^delta along the last axis,
        from the coordinate cosines cos_t_i = cos(2 pi theta_i)."""
        base = 0.5 + 0.5 * cos_t
        return _row_product(base if self.delta == 1 else base ** self.delta)

    def shell_sum_of_cos(self, cos_t: np.ndarray) -> np.ndarray:
        """Sum of the transform at theta + s over the 3^m - 1 nonzero shifts s
        in {-1/2, 0, 1/2}^m, from the (k, m) coordinate cosines: per
        coordinate, shift 0 gives g0 = (1/2 + cos/2)^delta and each half
        shift gh = (1/2 - cos/2)^delta, so it is prod(g0 + 2 gh) - prod(g0)."""
        half_cos = 0.5 * cos_t
        g0 = (0.5 + half_cos) ** self.delta
        gh = (0.5 - half_cos) ** self.delta
        return _row_product(g0 + 2.0 * gh) - _row_product(g0)

    def log_rhat_of_cos(self, cos_t: np.ndarray) -> np.ndarray:
        """log of the transform, delta sum_i log(1/2 + cos_t_i / 2), from the
        (k, m) coordinate cosines; -inf where a factor is zero."""
        with np.errstate(divide="ignore"):
            return self.delta * _sum_rows(np.log(0.5 + 0.5 * cos_t.T))


def build_pmf(delta: int) -> SmoothingSpec:
    """The width-delta smoother, SmoothingSpec(delta)."""
    return SmoothingSpec(delta)


def sample(spec: SmoothingSpec, rng: np.random.Generator, size: Optional[int] = None):
    """Draw from the smoother: a Binomial(2*delta, 1/2) shifted by -delta.

    The shifted binomial has exactly the convolved law (each unit step is
    the sum of two fair coins minus one).
    """
    draw = rng.binomial(2 * spec.delta, 0.5, size=size)
    if size is None:
        return int(draw) - spec.delta
    return draw - spec.delta


@dataclass(frozen=True)
class ParitySmoother:
    """Adds a fair +-1 on odd_rows only (increasing rows of 0..m-1), zero elsewhere."""

    m: int
    odd_rows: Tuple[int, ...]

    def __post_init__(self):
        bounds = (-1, *self.odd_rows, self.m)
        if not all(a < b for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"odd_rows {self.odd_rows} are not increasing rows of 0..{self.m - 1}")

    @classmethod
    def from_matrix(cls, A: IncidenceMatrix) -> "ParitySmoother":
        odd = tuple(int(i) for i in np.flatnonzero(A.row_sums % 2 == 1))
        return cls(m=A.m, odd_rows=odd)

    def row_laws(self, m: int) -> Tuple[List[Dict[int, int]], int]:
        """The row laws as integer numerators, and their joint denominator.

        An odd row is {-1: 1, 1: 1} over 2 and an even row {0: 1} over 1,
        so the joint denominator is 2 to the number of odd rows.
        """
        if m != self.m:
            raise ValueError(f"smoother built for m={self.m}, asked for m={m}")
        odd = set(self.odd_rows)
        return [{-1: 1, 1: 1} if i in odd else {0: 1} for i in range(m)], 2 ** len(odd)

    def rhat_of_cos(self, cos_t: np.ndarray) -> np.ndarray:
        """The transform prod_{i odd} cos_t_i along the last axis, from the
        coordinate cosines cos_t_i = cos(2 pi theta_i)."""
        if cos_t.shape[-1] != self.m:
            raise ValueError("theta dimension does not match the smoother")
        return _row_product(cos_t[..., list(self.odd_rows)])


# -- transforms ----------------------------------------------------------------


def _row_product(factors: np.ndarray) -> np.ndarray:
    """Product along the last axis, multiplied in order.

    A 2-d batch is multiplied one column at a time, which equals
    np.prod(axis=-1) bit for bit without its cost of about 25 ns per short
    row; every row is computed alone, whatever batch holds it.
    """
    if factors.ndim != 2:
        return np.prod(factors, axis=-1)
    out = np.ones(factors.shape[0])
    for column in factors.T:
        out *= column
    return out


def _sum_rows(x: np.ndarray) -> np.ndarray:
    """Sum of the rows of a (n, k) array, bit for bit x.T.sum(axis=1) on a
    C-contiguous copy, which sums each of its rows pairwise: in turn below
    8 values, in 8 interleaved accumulators up to 128, and above that as
    the sum of two halves cut at a multiple of 8. This replays that order
    over whole rows, with no transposed copy, and overwrites x."""
    n = x.shape[0]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return _sum_rows(x[:half]) + _sum_rows(x[half:])
    if n < 8:
        out = np.zeros(x.shape[1])
        for r in x:
            out += r
        return out
    acc, whole = x[:8], n - n % 8
    for i in range(8, whole, 8):
        acc += x[i:i + 8]
    pairs = np.add(acc[0::2], acc[1::2], out=acc[0::2])
    out = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
    for r in x[whole:]:
        out += r
    return out


def rhat_1d(delta: int, theta):
    """Transform of the 1-d smoother: (1/2 + cos(2 pi theta)/2) ** delta."""
    return rhat_md(delta, np.asarray(theta, dtype=np.float64)[..., None])


def rhat_md(delta: int, theta) -> np.ndarray:
    """Product of 1-d transforms along the last axis (batch friendly)."""
    arr = np.asarray(theta, dtype=np.float64)
    out = SmoothingSpec(delta).rhat_of_cos(np.cos(2.0 * np.pi * arr))
    return float(out) if out.ndim == 0 else out


def parity_rhat(smoother: ParitySmoother, theta) -> np.ndarray:
    """Transform of the parity smoother: product of cos(2 pi theta_i) on odd rows."""
    out = smoother.rhat_of_cos(np.cos(2.0 * np.pi * np.asarray(theta, dtype=np.float64)))
    return float(out) if out.ndim == 0 else out


def rho(delta: int) -> float:
    """max |rhat_1d| over [1/4, 1/2], by dense grid plus both endpoints.

    The base 1/2 + cos(2 pi theta)/2 decreases on [0, 1/2], so the max
    sits at theta = 1/4 and equals 2**-delta; the grid is a safety net,
    not the source of truth.
    """
    grid = np.arange(0.25, 0.5, RHO_GRID_STEP)
    grid = np.concatenate([grid, [0.25, 0.5]])
    return float(np.abs(rhat_1d(delta, grid)).max())


# -- half-integral lattice helpers ---------------------------------------------


@lru_cache(maxsize=32)
def half_lattice_points(m: int) -> np.ndarray:
    """All nonzero points of {-1/2, 0, 1/2}^m as a read-only (3^m - 1, m) array."""
    k = np.arange(3 ** m)
    digits = (k[:, None] // (3 ** np.arange(m))) % 3
    pts = ((digits - 1) * 0.5)[~np.all(digits == 1, axis=1)]
    pts.flags.writeable = False
    return pts


def _half_integral_shifts(m: int, samples: int) -> Tuple[np.ndarray, bool]:
    """Nonzero shifts s in {-1/2, 0, 1/2}^m, and whether they are all of them.

    All 3^m - 1 are returned while 3^m <= 10^6; beyond that, `samples` of
    them drawn with replacement from stream(0).
    """
    if 3 ** m <= 10 ** 6:
        return half_lattice_points(m), True
    rng = stream(0)
    out = np.empty((samples, m))
    filled = 0
    while filled < samples:
        digits = rng.integers(0, 3, size=(samples - filled, m))
        good = (digits[~np.all(digits == 1, axis=1)] - 1) * 0.5
        out[filled:filled + good.shape[0]] = good
        filled += good.shape[0]
    return out, False


# -- decay bounds ---------------------------------------------------------------


@dataclass
class RhatBoundReport:
    """Pointwise check of the transform decay bounds at one theta.

    A flag is None when theta lies outside the bound's stated domain;
    margins are the slack (nonnegative means the inequality holds).
    """

    upper_ok: Optional[bool]
    lower_ok: Optional[bool]
    ratio_ok: Optional[bool]
    margins: Dict[str, Optional[float]]
    ratio_worst_s: Optional[Tuple[float, ...]]
    ratio_terms: int
    ratio_exhaustive: bool


def check_rhat_bounds(delta: int, theta) -> RhatBoundReport:
    """Check the three decay inequalities of the multi-d transform at theta.

    upper:  rhat(theta) <= exp(-pi^2 delta |theta|_2^2)      for |theta|_inf <= 1/2
    lower:  rhat(theta) >= exp(-pi^2 delta |theta|_2^2
                               - 20 delta |theta|_2^4)        for |theta|_inf <= 1/4
    ratio:  rhat(theta+s) <= rhat(theta) * prod_{i in supp s}
                               (32 theta_i^2)^delta           for |theta|_inf <= 1/8,
            for every nonzero half-integral shift s; all 3^m - 1 shifts
            are enumerated while 3^m <= 10^6, otherwise 4096 of them are
            sampled from stream(0) and ratio_exhaustive is False.
    """
    arr = np.asarray(theta, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("theta must be a vector")
    m = arr.size
    linf = float(np.abs(arr).max())
    l2sq = float(arr @ arr)
    value = float(rhat_md(delta, arr))

    margins: Dict[str, Optional[float]] = {"upper": None, "lower": None, "ratio": None}
    upper_ok = lower_ok = ratio_ok = None

    if linf <= 0.5 + 1e-15:
        margins["upper"] = math.exp(-math.pi ** 2 * delta * l2sq) - value
        upper_ok = margins["upper"] >= -BOUND_TOL
    if linf <= 0.25 + 1e-15:
        margins["lower"] = value - math.exp(
            -math.pi ** 2 * delta * l2sq - 20.0 * delta * l2sq * l2sq
        )
        lower_ok = margins["lower"] >= -BOUND_TOL

    ratio_worst_s = None
    ratio_terms = 0
    ratio_exhaustive = True
    if linf <= 0.125 + 1e-15:
        shifts, ratio_exhaustive = _half_integral_shifts(m, 4096)
        ratio_terms = shifts.shape[0]
        lhs = rhat_md(delta, arr[None, :] + shifts)
        factor = (32.0 * arr * arr) ** delta
        support = shifts != 0.0
        rhs = value * np.prod(np.where(support, factor[None, :], 1.0), axis=1)
        gaps = rhs - lhs
        worst = int(np.argmin(gaps))
        margins["ratio"] = float(gaps[worst])
        ratio_worst_s = tuple(float(v) for v in shifts[worst])
        ratio_ok = margins["ratio"] >= -BOUND_TOL

    return RhatBoundReport(
        upper_ok=upper_ok,
        lower_ok=lower_ok,
        ratio_ok=ratio_ok,
        margins=margins,
        ratio_worst_s=ratio_worst_s,
        ratio_terms=ratio_terms,
        ratio_exhaustive=ratio_exhaustive,
    )
