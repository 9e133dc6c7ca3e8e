"""Coloring search: exact minimum at tiny n, randomized and local search
at desk scale, and the exact expected number of good colorings.

None of these carries a guarantee; existence in the random regime is a
probabilistic fact and every routine here is a plain search heuristic.
The exact minimum and the count of good colorings walk colorings in
reflected Gray-code order, in blocks of 2^12: the discrepancy vectors of
the low 12 free columns are tabulated once, and each block adds the sum
of its high columns to that table (read backwards in odd blocks), with
consecutive blocks one high column apart. That is O(m) per coloring in
numpy with memory O(m 2^12) for any n. The full law of A x is a dynamic
program over the column types instead, whose cost grows with the number
of distinct values of A x rather than 2^n. The random walk draws its
flips in blocks and replays each block in numpy, one flip per row of an
(flips, m) array of running sums, so a flip costs O(m) without a
per-flip Python loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Tuple

import numpy as np

from .rng import stream
from .setsystem import Coloring, IncidenceMatrix, disc_of_coloring

__all__ = [
    "SearchResult",
    "exhaustive_min_disc",
    "count_colorings_within",
    "random_search",
    "local_search",
    "expected_good_colorings",
    "EXHAUSTIVE_MAX_N",
]

EXHAUSTIVE_MAX_N = 30
_GRAY_LOW_BITS = 12  # free columns in the enumeration's table of low sums
_DRAW_BITS = 13
_DRAW_BLOCK = 1 << _DRAW_BITS  # flips per draw of the random walk; part of its per-seed trajectory
_STEP_CELLS = 1 << 16  # cap on flips x rows in one replay step of the walk


@dataclass(frozen=True)
class SearchResult:
    """Outcome of a search run; coloring is None when the target was missed."""

    coloring: Optional[Coloring]
    disc: Optional[int]
    flips: int
    trials: int

    @property
    def found(self) -> bool:
        return self.coloring is not None


def _gray_code(i):
    """Gray code of an int or of an integer array, elementwise."""
    return i ^ (i >> 1)


def _coloring_from_gray_index(A: IncidenceMatrix, index: int) -> Coloring:
    """The coloring at a Gray index: first sign +1, bit b of the code flips column b + 1."""
    bits = (_gray_code(index) >> np.arange(A.n - 1)) & 1
    return Coloring(np.concatenate(([1], 1 - 2 * bits)))


def _gray_disc_chunks(A: IncidenceMatrix) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (start_index, disc) over Gray-ordered colorings.

    disc[k] is max_i |(A x)_i| at Gray index start_index + k. Index 0 is
    the all +1 coloring; the first sign stays +1, so only the 2^(n-1)
    sign classes are visited. With L low free columns, index
    h 2^L + l has the reflected code gray(h) 2^L + gray(l) for even h and
    gray(h) 2^L + gray(2^L - 1 - l) for odd h. So each block h is the
    table of low sums, read backwards when h is odd, plus the sum of the
    high columns, which changes in one column from block to block.
    """
    free = A.bits.T[1:].astype(np.int8)  # |A x| <= n <= 30 fits int8
    low = min(len(free), _GRAY_LOW_BITS)
    table = A.row_sums.astype(np.int8)[:, None]  # (m, 2^b) in Gray order after b steps
    for b in range(low):
        table = np.concatenate((table, table[:, ::-1] - 2 * free[b][:, None]), axis=1)
    tables = (table, np.ascontiguousarray(table[:, ::-1]))
    high = np.zeros(A.m, dtype=np.int8)
    block = np.empty_like(table)
    for h in range(1 << (len(free) - low)):
        if h:
            b = (h & -h).bit_length() - 1  # the high bit that gray(h) flips
            if (_gray_code(h) >> b) & 1:
                high -= 2 * free[low + b]
            else:
                high += 2 * free[low + b]
        np.add(tables[h & 1], high[:, None], out=block)
        yield h << low, np.abs(block, out=block).max(axis=0)


def _parity_floor(A: IncidenceMatrix) -> int:
    """1 when some set has odd size (its imbalance can never vanish), else 0."""
    return int((A.row_sums % 2).max())


def exhaustive_min_disc(A: IncidenceMatrix) -> Tuple[int, Coloring]:
    """Global minimum of max |A x| over all sign classes, with one witness.

    Fixes the first sign to +1 (negating a coloring preserves the
    discrepancy) and stops early once the parity floor is reached.
    """
    if A.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"refusing exhaustive enumeration for n={A.n} > {EXHAUSTIVE_MAX_N}")
    floor = _parity_floor(A)
    best = None
    best_index = 0
    for start, disc in _gray_disc_chunks(A):
        k = int(np.argmin(disc))
        if best is None or int(disc[k]) < best:
            best = int(disc[k])
            best_index = start + k
            if best == floor:
                break
    witness = _coloring_from_gray_index(A, best_index)
    if disc_of_coloring(A, witness) != best:
        raise RuntimeError("internal error: witness fails independent verification")
    return best, witness


def count_colorings_within(A: IncidenceMatrix, delta: int) -> int:
    """Number of colorings (out of all 2^n) with discrepancy at most delta."""
    if A.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"refusing exhaustive enumeration for n={A.n} > {EXHAUSTIVE_MAX_N}")
    half_count = 0
    for _, disc in _gray_disc_chunks(A):
        half_count += int(np.count_nonzero(disc <= delta))
    return 2 * half_count  # x and -x have equal discrepancy


def _disc_law(A: IncidenceMatrix) -> Tuple[np.ndarray, np.ndarray]:
    """The law of A x over all 2^n colorings: its distinct values as the
    rows of an int8 array, and the number of colorings reaching each.

    A x = sum_v s_v v over the column types v, where s_v = c_v - 2k is the
    signed sum of the c_v colors on the columns of type v, reached by
    C(c_v, k) colorings. The types are added one at a time and equal
    partial sums merged, so the cost grows with the number of distinct
    values of A x rather than with 2^n, and no intermediate set of states
    outgrows the final one (adding the largest shift of every remaining
    type is injective). States fit int8 (|D_i| <= n <= 30) and counts stay
    exact in int64 (each is at most 2^n).
    """
    if A.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"refusing the exact law for n={A.n} > {EXHAUSTIVE_MAX_N}")
    V, c = A.column_types
    states = np.zeros((1, A.m), dtype=np.int8)
    counts = np.ones(1, dtype=np.int64)
    for v, cv in zip(V.T.astype(np.int8), c.tolist()):
        shifts = np.arange(cv, -cv - 1, -2, dtype=np.int8)[:, None] * v  # s_v for k = 0..c_v
        ways = np.array([math.comb(cv, k) for k in range(cv + 1)], dtype=np.int64)
        states = (states[:, None, :] + shifts).reshape(-1, A.m)
        counts = (counts[:, None] * ways).reshape(-1)
        states, counts = _merge_equal_rows(states, counts)
    return states, counts


def _merge_equal_rows(states: np.ndarray, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Sum the counts of equal rows of states; one row per distinct state."""
    order = np.lexsort(states.T)
    states = states[order]
    first = np.ones(len(states), dtype=bool)
    first[1:] = (states[1:] != states[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return states[starts], np.add.reduceat(counts[order], starts)


def _verified(A: IncidenceMatrix, coloring: Coloring, target: int,
              flips: int, trials: int) -> SearchResult:
    # Witnesses are re-verified with the exact integer path before output.
    disc = disc_of_coloring(A, coloring)
    if disc > target:
        raise RuntimeError("internal error: witness fails independent verification")
    return SearchResult(coloring=coloring, disc=disc, flips=flips, trials=trials)


def random_search(A: IncidenceMatrix, target: int, budget: int, seed: int) -> SearchResult:
    """Single-flip random walk over colorings; stop at discrepancy <= target.

    The walk starts from a uniform coloring (trial 1) and flips one
    uniformly chosen sign per trial, so each visited coloring is uniform
    marginally. Returns a miss after `budget` trials; a miss is a valid
    outcome.

    The flipped columns are drawn `_DRAW_BLOCK` at a time and each draw
    is replayed in numpy (`_replay`) in steps of k = `_STEP_CELLS` // m
    flips (at least 1, at most a draw): the step's changes of A x, one
    row of m per flip, are summed down the flips, so a flip costs O(m),
    whatever the degree of its column, and no Python code runs per flip.
    The coloring, `flips` and `trials` equal those of the plain per-flip
    loop at every seed. Besides the 2 n m int32 table of column changes,
    a step holds two (k, m) int32 arrays, reused from step to step, and a
    few of k elements: under 1 MB for m <= `_STEP_CELLS`, whatever n is.
    Reusing the two arrays matters: allocated per step, they are mmapped
    and page-faulted in afresh each time.
    """
    if budget < 1:
        raise ValueError("budget must be at least one trial")
    if target < 0:
        raise ValueError("target must be nonnegative")
    rng = stream(seed)
    n, m = A.n, A.m
    x = rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    D = A.bits.astype(np.int32) @ x.astype(np.int32)  # |D_i| <= n
    if int(np.abs(D).max()) <= target:
        return _verified(A, Coloring(x), target, flips=0, trials=1)
    # Row 2j is the change of D when sign j turns +1, row 2j + 1 when it turns -1.
    cols = 2 * np.ascontiguousarray(A.bits.T, dtype=np.int32)
    turns = np.stack((cols, -cols), axis=1).reshape(2 * n, m)
    k = max(1, min(_DRAW_BLOCK, _STEP_CELLS // m))
    # Sort keys (column, position in step) in int32 while they fit.
    pos = np.arange(k, dtype=np.int32 if n <= 1 << (31 - _DRAW_BITS) else np.int64)
    D_run = np.empty((k, m), dtype=np.int32)
    by_row = np.empty((m, k), dtype=np.int32)
    flips = 0
    while flips < budget - 1:
        js = rng.integers(0, n, size=min(_DRAW_BLOCK, budget - 1 - flips))
        for lo in range(0, js.size, k):
            hit = _replay(js[lo:lo + k], x, D, target, turns, pos, D_run, by_row)
            if hit:
                flips += lo + hit
                return _verified(A, Coloring(x), target, flips=flips, trials=flips + 1)
        flips += js.size
    return SearchResult(coloring=None, disc=None, flips=flips, trials=flips + 1)


def _replay(js, x, D, target, turns, pos, D_run, by_row) -> int:
    """Apply the flips of columns js to the coloring x and its D = A x.

    Stops after the first flip that leaves max_i |D_i| <= target and
    returns its 1-based position; returns 0 when no flip does. x and D
    advance to the stopping state, except that D is stale after a hit
    (the walk then ends). D_run and by_row are work arrays of at least
    len(js) rows and columns.
    """
    k = js.size
    # New sign of each flip: minus the column's sign before this step,
    # times -1 per earlier flip of the same column in the step. The keys
    # (column, position) are distinct, so any sort orders them stably.
    p = pos[:k]
    key = np.sort((js.astype(p.dtype) << _DRAW_BITS) | p)
    by_col = key >> _DRAW_BITS
    first = np.concatenate(([True], by_col[1:] != by_col[:-1]))
    earlier = p - np.maximum.accumulate(np.where(first, p, 0))
    neg = (x[by_col] > 0) ^ (earlier & 1).astype(bool)  # the flip turns the sign to -1
    rows = np.empty(k, dtype=p.dtype)
    rows[key & (_DRAW_BLOCK - 1)] = (by_col << 1) | neg
    # D after each flip, one row per flip, shifted by target: then
    # |D_i| <= target reads as D_i + target <= 2 target in uint32.
    run = D_run[:k]
    np.take(turns, rows, axis=0, out=run, mode="clip")
    run[0] += D + target
    np.cumsum(run, axis=0, out=run)
    across = by_row[:, :k]
    np.copyto(across, run.T)  # max over axis 0 of (m, k) is the fast reduction
    hit = np.flatnonzero(across.view(np.uint32).max(axis=0) <= 2 * target)
    if hit.size:
        t = int(hit[0]) + 1
        x[np.bincount(js[:t], minlength=x.size) & 1 == 1] *= -1
        return t
    D[:] = run[-1] - target
    last = np.append(first[1:], True)
    x[by_col[last]] = 1 - 2 * neg[last]
    return 0


def local_search(
    A: IncidenceMatrix,
    target: int,
    restarts: int,
    max_flips: int,
    seed: int,
) -> SearchResult:
    """Steepest-descent restarts on the potential sum_i (A x)_i^2.

    Each step flips the sign whose flip lowers the potential the most
    (ties broken by lowest column index, so runs are reproducible per
    seed), restarting from a fresh uniform coloring at local minima.
    Stops as soon as some visited coloring has discrepancy <= target, or
    after max_flips flips within each restart.
    """
    if restarts < 1 or max_flips < 0:
        raise ValueError("restarts must be >= 1 and max_flips >= 0")
    if target < 0:
        raise ValueError("target must be nonnegative")
    cols_f = A.columns_f64  # (m, n)
    cols_i = A.bits.astype(np.int64)
    col_norms = 4.0 * A.col_sums.astype(np.float64)
    total_flips = 0
    trials = 0
    for r in range(restarts):
        rng = stream(seed, r)
        x = rng.integers(0, 2, size=A.n, dtype=np.int64) * 2 - 1
        D = cols_i @ x
        trials += 1
        if int(np.abs(D).max()) <= target:
            return _verified(A, Coloring(x.astype(np.int8)), target, total_flips, trials)
        for _ in range(max_flips):
            correlations = D.astype(np.float64) @ cols_f  # <A^j, D> for every j
            gains = -4.0 * x * correlations + col_norms
            j = int(np.argmin(gains))
            if gains[j] >= 0.0:
                break  # local minimum of the potential
            x[j] = -x[j]
            D += 2 * x[j] * cols_i[:, j]
            total_flips += 1
            trials += 1
            if int(np.abs(D).max()) <= target:
                return _verified(A, Coloring(x.astype(np.int8)), target, total_flips, trials)
    return SearchResult(coloring=None, disc=None, flips=total_flips, trials=trials)


def expected_good_colorings(m: int, n: int, p: float, delta: int) -> Fraction:
    """E_A[N], exactly: the expected number of colorings of discrepancy at
    most delta over m x n matrices A of independent Bernoulli(p) entries.

    A coloring with k signs +1 gives each row the sum X - Y, X ~ Bin(k, p)
    and Y ~ Bin(n - k, p) independent, and the rows are independent, so
    E_A[N] = sum_k C(n, k) Pr[|X - Y| <= delta]^m. With p = a / b in
    lowest terms (exact for a float p), b^n Pr[|X - Y| <= delta] is the
    integer sum of C(k, x) C(n - k, y) a^(x + y) (b - a)^(n - x - y) over
    |x - y| <= delta, so the sum runs in integers and divides once.
    """
    if m < 1 or n < 1 or delta < 0 or not 0.0 <= p <= 1.0:
        raise ValueError("need m >= 1, n >= 1, delta >= 0 and p in [0, 1]")
    if n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"refusing the exact expectation for n={n} > {EXHAUSTIVE_MAX_N}")
    a, b = Fraction(p).as_integer_ratio()
    weight = [a ** s * (b - a) ** (n - s) for s in range(n + 1)]  # of s ones in n entries
    total = 0
    for k in range(n + 1):
        within = sum(math.comb(k, x) * math.comb(n - k, y) * weight[x + y]
                     for x in range(k + 1)
                     for y in range(max(0, x - delta), min(n - k, x + delta) + 1))
        total += math.comb(n, k) * within ** m
    return Fraction(total, b ** (n * m))
