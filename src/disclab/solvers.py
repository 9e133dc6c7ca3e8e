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
The random walk draws its flips in blocks and replays each block in
numpy: per-row running sums over the (flip, row) events give A x after
every flip, so a flip costs O(degree of its column), as it would in a
per-flip loop, without one.
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
_DRAW_BLOCK = 8192  # flips per draw of the random walk; part of its per-seed trajectory
_FIRST_STEP_EVENTS = 1 << 10  # (flip, row) events in the walk's first replay step
_STEP_EVENTS = 1 << 15  # cap on a replay step's events; each step doubles up to it


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
    marginally. Returns a miss after `budget` trials; a miss is a valid
    outcome.

    The flipped columns are drawn `_DRAW_BLOCK` at a time and each draw
    is replayed in numpy (`_replay`) over its (flip, row) events, one per
    set containing the flipped element, so a flip costs O(degree of its
    column) and no O(m) or O(n) work is done per flip. The coloring,
    `flips` and `trials` equal those of the plain per-flip loop at every
    seed. A replay step holds at most max(`_STEP_EVENTS`, m) events, of
    about 50 bytes each, and one draw of flips: under 2 MB for m <= 2^15,
    whatever n is. Steps start at `_FIRST_STEP_EVENTS` and double, so a
    walk that hits early replays few flips past its hit.
    """
    if budget < 1:
        raise ValueError("budget must be at least one trial")
    rng = stream(seed)
    n = A.n
    x = rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
    D = A.bits.astype(np.int32) @ x.astype(np.int32)  # |D_i| <= n
    bad = int((np.abs(D) > target).sum())
    if bad == 0:
        return _verified(A, Coloring(x), target, flips=0, trials=1)
    # Column supports in CSR form. Rows and columns are sort keys in the
    # smallest unsigned type, so that numpy's stable sort is a radix sort.
    rows = np.nonzero(A.bits.T)[1].astype(np.min_scalar_type(A.m - 1))
    deg = A.col_sums
    ptr = np.concatenate(([0], np.cumsum(deg)))
    col_key = np.min_scalar_type(n - 1)
    flips = 0
    step_events = _FIRST_STEP_EVENTS
    while flips < budget - 1:
        js = rng.integers(0, n, size=min(_DRAW_BLOCK, budget - 1 - flips)).astype(col_key)
        ends = np.cumsum(deg[js])
        lo = 0
        while lo < js.size:
            before = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, before + step_events, side="right")))
            step_events = min(2 * step_events, _STEP_EVENTS)
            hit, bad = _replay(js[lo:hi], x, D, bad, target, ptr, rows, deg)
            if hit:
                flips += lo + hit
                return _verified(A, Coloring(x), target, flips=flips, trials=flips + 1)
            lo = hi
        flips += js.size
    return SearchResult(coloring=None, disc=None, flips=flips, trials=flips + 1)


def _replay(js, x, D, bad, target, ptr, rows, deg) -> Tuple[int, int]:
    """Apply the flips of columns js to the coloring x and its D = A x.

    Stops after the first flip that leaves no row with |D_i| > target and
    returns (that flip's 1-based position, 0); returns (0, rows still
    bad) when no flip does. x, D and bad advance to the stopping state,
    except that D is stale after a hit (the walk then ends).
    """
    k = js.size
    # New sign of each flip: minus the column's sign before this step,
    # times -1 per earlier flip of the same column in the step.
    order = np.argsort(js, kind="stable")
    by_col = js[order]
    pos = np.arange(k, dtype=np.int32)
    first = np.ones(k, dtype=bool)
    np.not_equal(by_col[1:], by_col[:-1], out=first[1:])
    earlier = pos - np.maximum.accumulate(np.where(first, pos, 0))
    step = np.empty(k, dtype=np.int8)
    step[order] = (4 * (earlier & 1) - 2).astype(np.int8) * x[by_col]  # 2 * new sign
    # One event per (flip, row of the flipped column), in flip order.
    d = deg[js]
    ends = np.cumsum(d)
    total = int(ends[-1])
    if total == 0:
        return 0, bad  # only empty columns were flipped
    ev_row = rows[np.arange(total) - np.repeat(ends - d - ptr[js], d)]
    ev_step = np.repeat(step, d)
    # D_i after each event: running sums per row; the stable sort keeps
    # each row's events in flip order.
    by_row = np.argsort(ev_row, kind="stable")
    r = ev_row[by_row]
    s = ev_step[by_row]
    run = np.cumsum(s, dtype=np.int32)
    starts = np.ones(total, dtype=bool)
    np.not_equal(r[1:], r[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    sizes = np.diff(np.append(starts, total))
    now = run + np.repeat(D[r[starts]] - (run[starts] - s[starts]), sizes)
    bad_change = (np.abs(now) > target).view(np.int8) - (np.abs(now - s) > target).view(np.int8)
    per_event = np.empty(total, dtype=np.int8)
    per_event[by_row] = bad_change
    bad_after = bad + np.concatenate(([0], np.cumsum(per_event, dtype=np.int32)))[ends]
    hit = np.flatnonzero(bad_after == 0)
    if hit.size:
        t = int(hit[0]) + 1
        x[np.bincount(js[:t], minlength=x.size) & 1 == 1] *= -1
        return t, 0
    last = np.append(starts[1:], total) - 1
    D[r[last]] = now[last]
    groups = np.flatnonzero(first)
    odd = np.diff(np.append(groups, k)) & 1 == 1
    x[by_col[groups[odd]]] *= -1
    return 0, int(bad_after[-1])


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
