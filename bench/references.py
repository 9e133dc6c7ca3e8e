"""Reference values computed apart from disclab.

Nothing here imports disclab: every value the benchmark checks the
program against is recomputed from the 0/1 matrix itself, by a different
method than the one the program uses.

- ``point_prob_by_types``: exact Pr[X = lambda] for m <= 2 at any n, as a
  binomial convolution over the column types, in integers.
- ``enumerate_d_counts``: the law of D = A x by plain enumeration of all
  2^n colorings (integer matrix products, no Gray code).
- ``law_from_d_counts`` / ``parity_prob_zero``: that law convolved with
  the width-delta smoother, or with the parity smoother, in Fractions.
- ``gaussian_density``: the local-CLT value (2 pi)^(-m/2) det(A A^T)^(-1/2).
- ``column_product`` / ``smoother_transform``: dhat and rhat at one point,
  column by column in pure Python.
- ``importance_sampled_prob_zero``: Pr[X = 0] by importance sampling the
  inversion integral with a Gaussian matched to the central spike.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import comb
from typing import Dict, Sequence, Tuple

import numpy as np

TWO_PI = 2.0 * math.pi


def smoother_numerators(delta: int) -> Dict[int, int]:
    """Law of the width-delta smoother: Pr[R = r] = C(2 delta, r + delta) / 4^delta."""
    return {r: comb(2 * delta, r + delta) for r in range(-delta, delta + 1)}


def _column_types(bits: np.ndarray) -> Dict[Tuple[int, ...], int]:
    types: Dict[Tuple[int, ...], int] = {}
    for col in np.asarray(bits, dtype=np.int64).T.tolist():
        key = tuple(col)
        types[key] = types.get(key, 0) + 1
    return types


def _signed_binomial(c: int, s: int) -> int:
    """Number of sign vectors in {-1, +1}^c whose sum is s."""
    if abs(s) > c or (c - s) % 2:
        return 0
    return comb(c, (c - s) // 2)


def _count_d(types: Dict[Tuple[int, ...], int], m: int, d: Sequence[int]) -> int:
    """Number of colorings with A x = d, for m <= 2, from the column types."""
    free = 2 ** types.get((0,) * m, 0)
    if m == 1:
        return free * _signed_binomial(types.get((1,), 0), d[0])
    c10 = types.get((1, 0), 0)
    c01 = types.get((0, 1), 0)
    c11 = types.get((1, 1), 0)
    total = 0
    for j in range(c11 + 1):
        s11 = c11 - 2 * j
        a = _signed_binomial(c10, d[0] - s11)
        if a:
            total += comb(c11, j) * a * _signed_binomial(c01, d[1] - s11)
    return free * total


def point_prob_by_types(bits, lam: Sequence[int], delta: int = 1) -> Fraction:
    """Exact Pr[A x + R = lambda] for a 1- or 2-row matrix, at any n.

    D = A x is a sum of independent shifted binomials, one per column type,
    and only the (1, 1) type couples the two rows, so each Pr[D = d] is a
    single O(n) sum of integer binomial products.
    """
    arr = np.asarray(bits)
    m, n = arr.shape
    if m > 2:
        raise ValueError("the type convolution here handles m <= 2 only")
    types = _column_types(arr)
    weights = smoother_numerators(delta)
    num = 0
    for r in itertools.product(range(-delta, delta + 1), repeat=m):
        w = 1
        for ri in r:
            w *= weights[ri]
        num += w * _count_d(types, m, [lam[i] - r[i] for i in range(m)])
    return Fraction(num, 2 ** n * 4 ** (m * delta))


def enumerate_d_counts(bits, chunk: int = 1 << 16) -> Dict[Tuple[int, ...], int]:
    """Counts of every D = A x over all 2^n colorings, by direct products."""
    arr = np.asarray(bits, dtype=np.int64)
    m, n = arr.shape
    base = 2 * n + 1
    radix = base ** np.arange(m, dtype=np.int64)
    totals = np.zeros(base ** m, dtype=np.int64)
    shifts = np.arange(n, dtype=np.int64)
    for start in range(0, 1 << n, chunk):
        idx = np.arange(start, min(start + chunk, 1 << n), dtype=np.int64)
        signs = 1 - 2 * ((idx[:, None] >> shifts) & 1)
        d = signs @ arr.T
        totals += np.bincount((d + n) @ radix, minlength=totals.size)
    out: Dict[Tuple[int, ...], int] = {}
    for code in np.flatnonzero(totals).tolist():
        d = tuple((code // base ** i) % base - n for i in range(m))
        out[d] = int(totals[code])
    return out


def law_from_d_counts(counts, n: int, m: int, delta: int = 1) -> Dict[Tuple[int, ...], Fraction]:
    """The law of X = D + R as {lambda: Fraction}, R the width-delta smoother."""
    weights = smoother_numerators(delta)
    shifts = []
    for r in itertools.product(range(-delta, delta + 1), repeat=m):
        w = 1
        for ri in r:
            w *= weights[ri]
        shifts.append((r, w))
    nums: Dict[Tuple[int, ...], int] = {}
    for d, c in counts.items():
        for r, w in shifts:
            key = tuple(d[i] + r[i] for i in range(m))
            nums[key] = nums.get(key, 0) + c * w
    denom = 2 ** n * 4 ** (m * delta)
    return {k: Fraction(v, denom) for k, v in nums.items()}


def parity_prob_zero(counts, n: int, row_sums: Sequence[int]) -> Fraction:
    """Pr[D + R = 0] when R adds a fair +-1 on odd-size rows and 0 elsewhere."""
    odd = [int(r) % 2 for r in row_sums]
    num = 0
    for d, c in counts.items():
        if all(abs(d[i]) == odd[i] for i in range(len(odd))):
            num += c
    return Fraction(num, 2 ** n * 2 ** sum(odd))


def count_within(counts, delta: int) -> int:
    return sum(c for d, c in counts.items() if max(abs(v) for v in d) <= delta)


def min_disc(counts) -> int:
    return min(max(abs(v) for v in d) for d in counts)


def gaussian_density(bits) -> float:
    """(2 pi)^(-m/2) det(A A^T)^(-1/2), the local-CLT value of Pr[X = 0]."""
    b = np.asarray(bits, dtype=np.float64)
    sign, logdet = np.linalg.slogdet(b @ b.T)
    if sign <= 0:
        raise ValueError("A A^T is singular")
    m = b.shape[0]
    return math.exp(-0.5 * (m * math.log(TWO_PI) + logdet))


def column_product(bits, theta: Sequence[float]) -> float:
    """prod_j cos(2 pi <A^j, theta>), one column at a time, log-summed with fsum."""
    sign = 1.0
    logs = []
    for col in np.asarray(bits, dtype=np.int64).T.tolist():
        c = math.cos(TWO_PI * math.fsum(t for t, b in zip(theta, col) if b))
        if c == 0.0:
            return 0.0
        if c < 0.0:
            sign = -sign
        logs.append(math.log(abs(c)))
    return sign * math.exp(math.fsum(logs))


def smoother_transform(theta: Sequence[float], delta: int = 1) -> float:
    """prod_i (1/2 + cos(2 pi theta_i) / 2)^delta."""
    out = 1.0
    for t in theta:
        out *= (0.5 + 0.5 * math.cos(TWO_PI * t)) ** delta
    return out


def importance_sampled_prob_zero(bits, samples: int, seed: int, delta: int = 1) -> Tuple[float, float]:
    """Pr[X = 0] as the integral of xhat, sampling theta from the Gaussian
    that matches xhat near the origin; returns (value, stderr).

    The proposal has covariance (4 pi^2 (A A^T + delta/2 I))^(-1), so the
    weights xhat / q are nearly constant on the spike. The spikes at the
    nonzero half-integral points are left out: rhat vanishes there.
    """
    b = np.asarray(bits, dtype=np.float64)
    m = b.shape[0]
    prec = 4.0 * math.pi ** 2 * (b @ b.T + 0.5 * delta * np.eye(m))
    chol = np.linalg.cholesky(np.linalg.inv(prec))
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((samples, m))
    theta = z @ chol.T
    c = np.cos(TWO_PI * (theta @ b))
    sign = np.where((c < 0.0).sum(axis=1) % 2 == 1, -1.0, 1.0)
    with np.errstate(divide="ignore"):
        log_dhat = np.log(np.abs(c)).sum(axis=1)
    log_rhat = delta * np.log(0.5 + 0.5 * np.cos(TWO_PI * theta)).sum(axis=1)
    log_q = (-0.5 * (z * z).sum(axis=1) - 0.5 * m * math.log(TWO_PI)
             + 0.5 * np.linalg.slogdet(prec)[1])
    w = sign * np.exp(log_dhat + log_rhat - log_q)
    w[np.abs(theta).max(axis=1) >= 0.5] = 0.0
    return float(w.mean()), float(w.std(ddof=1) / math.sqrt(samples))
