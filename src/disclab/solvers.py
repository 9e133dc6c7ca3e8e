"""Coloring search: exact minimum at tiny n, randomized and local search
at desk scale, and the counting upper bound on good colorings.

None of these carries a guarantee; existence in the random regime is a
probabilistic fact and every routine here is a plain search heuristic.
The exact minimum and the count of good colorings walk colorings in
Gray-code order so consecutive states differ in a single sign and the
discrepancy vector is updated incrementally; the per-step updates are
batched into numpy cumulative sums, which keeps the cost per coloring at
O(m) without a Python-level inner loop and the memory bounded. The full
law of A x is a dynamic program over the column types instead, whose
cost grows with the number of distinct values of A x rather than 2^n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from .rng import stream
from .setsystem import Coloring, IncidenceMatrix, disc_of_coloring

__all__ = [
    "SearchResult",
    "exhaustive_min_disc",
    "count_colorings_within",
    "coloring_disc_counts",
    "random_search",
    "local_search",
    "counting_bound",
    "EXHAUSTIVE_MAX_N",
]

EXHAUSTIVE_MAX_N = 30
_CHUNK = 1 << 14


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


def _coloring_from_gray_index(A: IncidenceMatrix, index: int, fix_first: bool) -> Coloring:
    code = _gray_code(index)
    offset = 1 if fix_first else 0
    signs = np.ones(A.n, dtype=np.int8)
    for b in range(A.n - offset):
        if (code >> b) & 1:
            signs[b + offset] = -1
    return Coloring(signs)


def _gray_disc_chunks(
    A: IncidenceMatrix, fix_first: bool = True, chunk: int = _CHUNK
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (start_index, D_block) over Gray-ordered colorings.

    D_block[k] is the signed discrepancy at Gray index start_index + k.
    Index 0 is the all +1 coloring; when fix_first is set the first sign
    stays +1 and only 2^(n-1) sign classes are visited.
    """
    nbits = A.n - 1 if fix_first else A.n
    offset = 1 if fix_first else 0
    cols = np.ascontiguousarray(A.bits.T.astype(np.int32))  # (n, m)
    state = A.row_sums.astype(np.int32)  # D at Gray index 0
    total = 1 << nbits
    start = 0
    while start < total:
        size = min(chunk, total - start)
        steps = np.arange(start, start + size, dtype=np.int64)
        deltas = np.zeros((size, A.m), dtype=np.int32)
        nz = steps > 0  # step 0 flips nothing
        if nz.any():
            s = steps[nz]
            flip_bit = np.log2(s & -s).astype(np.int64)
            after = (_gray_code(s) >> flip_bit) & 1
            direction = np.where(after == 1, -2, 2).astype(np.int32)
            deltas[nz] = direction[:, None] * cols[flip_bit + offset]
        block = state[None, :] + np.cumsum(deltas, axis=0, dtype=np.int32)
        yield start, block
        state = block[-1]
        start += size


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
    for start, block in _gray_disc_chunks(A, fix_first=True):
        disc = np.abs(block).max(axis=1)
        k = int(np.argmin(disc))
        if best is None or int(disc[k]) < best:
            best = int(disc[k])
            best_index = start + k
            if best == floor:
                break
    witness = _coloring_from_gray_index(A, best_index, fix_first=True)
    assert disc_of_coloring(A, witness) == best
    return best, witness


def count_colorings_within(A: IncidenceMatrix, delta: int) -> int:
    """Number of colorings (out of all 2^n) with discrepancy at most delta."""
    if A.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"refusing exhaustive enumeration for n={A.n} > {EXHAUSTIVE_MAX_N}")
    half_count = 0
    for _, block in _gray_disc_chunks(A, fix_first=True):
        half_count += int((np.abs(block).max(axis=1) <= delta).sum())
    return 2 * half_count  # x and -x have equal discrepancy


def coloring_disc_counts(A: IncidenceMatrix) -> Dict[Tuple[int, ...], int]:
    """Counts of each signed-discrepancy vector over all 2^n colorings.

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
    law: Dict[Tuple[int, ...], int] = {}
    for lo in range(0, len(counts), _CHUNK):  # bounds the per-coordinate lists
        coords = states[lo:lo + _CHUNK].T.tolist()
        law.update(zip(zip(*coords), counts[lo:lo + _CHUNK].tolist()))
    return law


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
    marginally and a trial costs O(row degree of the flipped column) via
    incremental row counters. Returns a miss after `budget` trials; a miss
    is a valid outcome.
    """
    if budget < 1:
        raise ValueError("budget must be at least one trial")
    rng = stream(seed)
    n = A.n
    supports = [A.column_rows(j).tolist() for j in range(n)]
    x = (rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1).tolist()
    D = (A.bits.astype(np.int64) @ np.asarray(x, dtype=np.int64)).tolist()
    bad = sum(1 for d in D if abs(d) > target)
    if bad == 0:
        return _verified(A, Coloring(x), target, flips=0, trials=1)
    trials = 1
    draw_block = 8192
    while trials < budget:
        remaining = budget - trials
        js = rng.integers(0, n, size=min(draw_block, remaining)).tolist()
        for j in js:
            new = -x[j]
            x[j] = new
            dv = 2 * new
            for i in supports[j]:
                old = D[i]
                now = old + dv
                D[i] = now
                bad += (abs(now) > target) - (abs(old) > target)
            trials += 1
            if bad == 0:
                return _verified(A, Coloring(x), target, flips=trials - 1, trials=trials)
    return SearchResult(coloring=None, disc=None, flips=trials - 1, trials=trials)


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


def counting_bound(m: int, n: int, delta: int, kappa: float) -> float:
    """Upper bound 2^n (kappa delta / sqrt n)^m on the expected number of
    colorings with discrepancy <= delta, computed in log space."""
    if m < 1 or n < 1 or delta < 0 or kappa < 0:
        raise ValueError("invalid counting-bound parameters")
    if delta == 0 or kappa == 0.0:
        return 0.0
    log_value = n * math.log(2.0) + m * (math.log(kappa * delta) - 0.5 * math.log(n))
    if log_value > 700.0:
        return math.inf
    return math.exp(log_value)
