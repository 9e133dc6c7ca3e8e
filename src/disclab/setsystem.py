"""Random set systems stored as packed 0/1 incidence matrices.

Rows are sets, columns are elements: entry ``A[i][j] = 1`` iff element j
belongs to set i. Both orientations are kept as packed 64-bit words so
single-bit tests are O(1) in either direction; a dense int8 copy backs the
vectorized linear algebra. Everything here is immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple, Union

import numpy as np

from .rng import stream

__all__ = [
    "GenMeta",
    "IncidenceMatrix",
    "Coloring",
    "DistributionMatrix",
    "sample_bernoulli",
    "sample_semirandom",
    "signed_discrepancy",
    "disc_of_coloring",
    "covariance_empirical",
    "covariance_expected",
    "max_column_frequency",
]


@dataclass(frozen=True)
class GenMeta:
    """Generation record carried by sampled matrices (None = unknown)."""

    p: Optional[float] = None
    seed: Optional[int] = None
    generator: Optional[str] = None


def _pack_u64(bits: np.ndarray) -> np.ndarray:
    """Pack a (r, c) 0/1 uint8 array into (r, ceil(c/64)) uint64 words.

    Bit j of a row lives at word j >> 6, position j & 63 (LSB first),
    little-endian words.
    """
    r, c = bits.shape
    words = (c + 63) // 64
    padded = np.zeros((r, words * 64), dtype=np.uint8)
    padded[:, :c] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    out = packed.view("<u8")
    out.flags.writeable = False
    return out


def _row_to_hex(bits_row: np.ndarray) -> str:
    # Most significant bit of the first hex digit is column 0; trailing
    # pad bits (up to 3) are zero and trimmed to ceil(n/4) digits.
    digits = (bits_row.size + 3) // 4
    return np.packbits(bits_row, bitorder="big").tobytes().hex()[:digits]


def _hex_to_row(h: str, n: int) -> np.ndarray:
    digits = (n + 3) // 4
    if len(h) != digits:
        raise ValueError(f"row hex string has {len(h)} digits, expected {digits}")
    padded = h + "0" * (-len(h) % 2)
    raw = np.frombuffer(bytes.fromhex(padded), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="big")
    if bits[n:].any():
        raise ValueError("row hex string has set bits beyond column n-1")
    return bits[:n]


class IncidenceMatrix:
    """Immutable 0/1 incidence matrix of a set system.

    Attributes
    ----------
    m, n : int
        Number of sets (rows) and elements (columns).
    row_words, col_words : uint64 arrays
        Packed bits, one row per set resp. one row per element.
    meta : GenMeta
        How the matrix was generated, if sampled.
    """

    __slots__ = ("m", "n", "meta", "row_words", "col_words",
                 "_bits", "_cols64", "_types", "_row_sums", "_col_sums")

    def __init__(self, bits, meta: Optional[GenMeta] = None):
        arr = np.asarray(bits)
        if arr.ndim != 2:
            raise ValueError("incidence matrix must be two-dimensional")
        m, n = arr.shape
        if m < 1 or n < 1:
            raise ValueError("incidence matrix dimensions must be positive")
        b = np.array(arr, dtype=np.int8)
        if not np.isin(b, (0, 1)).all() or not np.array_equal(b, arr):
            raise ValueError("incidence entries must be 0 or 1")
        b.flags.writeable = False
        self.m = m
        self.n = n
        self._bits = b
        self.row_words = _pack_u64(b.view(np.uint8))
        self.col_words = _pack_u64(np.ascontiguousarray(b.T).view(np.uint8))
        self.meta = meta if meta is not None else GenMeta()
        self._cols64 = None
        self._types = None
        self._row_sums = None
        self._col_sums = None

    # -- accessors ---------------------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """Dense read-only int8 view, shape (m, n)."""
        return self._bits

    @property
    def columns_f64(self) -> np.ndarray:
        """Dense float64 copy (cached) used by the transform kernels."""
        if self._cols64 is None:
            c = self._bits.astype(np.float64)
            c.flags.writeable = False
            self._cols64 = c
        return self._cols64

    @property
    def column_types(self) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct columns and their multiplicities (cached).

        Returns (V, c): V is a read-only float64 array of shape (m, k) whose
        columns are the k <= min(n, 2^m) distinct columns of the matrix, and
        c the int64 number of columns equal to each. The transform of the
        signed discrepancy depends on the columns only through this multiset.
        """
        if self._types is None:
            _, first, counts = np.unique(self.col_words, axis=0,
                                         return_index=True, return_counts=True)
            V = np.ascontiguousarray(self._bits[:, first], dtype=np.float64)
            V.flags.writeable = False
            counts = counts.astype(np.int64)
            counts.flags.writeable = False
            self._types = (V, counts)
        return self._types

    @property
    def row_sums(self) -> np.ndarray:
        """Set sizes, i.e. the l1 norm of every row."""
        if self._row_sums is None:
            s = self._bits.sum(axis=1, dtype=np.int64)
            s.flags.writeable = False
            self._row_sums = s
        return self._row_sums

    @property
    def col_sums(self) -> np.ndarray:
        """Element frequencies, i.e. the l1 norm of every column."""
        if self._col_sums is None:
            s = self._bits.sum(axis=0, dtype=np.int64)
            s.flags.writeable = False
            self._col_sums = s
        return self._col_sums

    @property
    def t(self) -> float:
        """Expected element frequency p*m (kept as a real, never rounded)."""
        if self.meta.p is None:
            raise ValueError("matrix carries no generation probability p")
        return self.meta.p * self.m

    def entry(self, i: int, j: int) -> int:
        """Bit A[i][j], read from the packed row words."""
        if not (0 <= i < self.m and 0 <= j < self.n):
            raise IndexError("entry index out of range")
        word = self.row_words[i, j >> 6]
        return int((word >> np.uint64(j & 63)) & np.uint64(1))

    def row_elements(self, i: int) -> np.ndarray:
        """The set with index i, as the sorted indices of its elements."""
        return np.flatnonzero(self._bits[i])

    def column_rows(self, j: int) -> np.ndarray:
        """Indices of the sets containing element j."""
        return np.flatnonzero(self._bits[:, j])

    def __eq__(self, other) -> bool:
        if not isinstance(other, IncidenceMatrix):
            return NotImplemented
        return (self.m == other.m and self.n == other.n
                and np.array_equal(self.row_words, other.row_words))

    def __hash__(self):
        return hash((self.m, self.n, self.row_words.tobytes()))

    def __repr__(self) -> str:
        return f"IncidenceMatrix(m={self.m}, n={self.n}, meta={self.meta})"

    # -- instance file format ------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready dict; rows are hex packed, MSB of first digit = column 0."""
        return {
            "m": self.m,
            "n": self.n,
            "p": self.meta.p,
            "seed": self.meta.seed,
            "generator": self.meta.generator,
            "rows": [_row_to_hex(np.asarray(self._bits[i], dtype=np.uint8))
                     for i in range(self.m)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "IncidenceMatrix":
        if not isinstance(d, dict):
            raise ValueError(f"instance must be a JSON object, not {type(d).__name__}")
        for name in ("m", "n", "rows"):
            if name not in d:
                raise ValueError(f"instance field {name!r} is missing")
        m, n = _int_field(d, "m"), _int_field(d, "n")
        rows = d["rows"]
        if not isinstance(rows, list) or not all(isinstance(h, str) for h in rows):
            raise ValueError("instance rows must be a list of hex strings")
        if len(rows) != m:
            raise ValueError(f"instance lists {len(rows)} rows, expected m={m}")
        p = d.get("p")
        if p is not None:
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ValueError(f"instance field 'p' must be a number, not {json.dumps(p)}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"instance p={p} lies outside [0, 1]")
            p = float(p)
        bits = np.vstack([_hex_to_row(h, n) for h in rows])
        meta = GenMeta(
            p=p,
            seed=None if d.get("seed") is None else _int_field(d, "seed", minimum=None),
            generator=d.get("generator"),
        )
        return cls(bits, meta)

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "IncidenceMatrix":
        return cls.from_dict(json.loads(Path(path).read_text()))


def _int_field(d: dict, name: str, minimum: Optional[int] = 1) -> int:
    """An integer field of an instance file, at least `minimum` if given.

    JSON booleans, floats (2.5, and also 2.0), lists and null are refused
    with a ValueError that names the field."""
    value = d[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"instance field {name!r} must be an integer, not {json.dumps(value)}")
    if minimum is not None and value < minimum:
        raise ValueError(f"instance field {name!r} must be at least {minimum}, not {value}")
    return value


class Coloring:
    """A +-1 assignment of the n elements."""

    __slots__ = ("signs",)

    def __init__(self, signs):
        arr = np.array(signs, dtype=np.int8)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coloring must be a nonempty vector")
        if not np.isin(arr, (-1, 1)).all():
            raise ValueError("coloring entries must be -1 or +1")
        arr.flags.writeable = False
        self.signs = arr

    def __len__(self) -> int:
        return self.signs.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coloring):
            return NotImplemented
        return np.array_equal(self.signs, other.signs)

    def __hash__(self):
        return hash(self.signs.tobytes())

    @classmethod
    def uniform(cls, n: int, rng: np.random.Generator) -> "Coloring":
        """A uniformly random coloring drawn from the given stream."""
        return cls(rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1)

    @classmethod
    def from_string(cls, s: str) -> "Coloring":
        table = {"+": 1, "-": -1}
        try:
            return cls([table[c] for c in s])
        except KeyError as exc:
            raise ValueError(f"coloring string may only contain '+'/'-': {s!r}") from exc

    def to_string(self) -> str:
        return "".join("+" if v > 0 else "-" for v in self.signs)

    def negated(self) -> "Coloring":
        return Coloring(-self.signs)


@dataclass(frozen=True)
class DistributionMatrix:
    """Entrywise success probabilities for the semi-random generator.

    Every entry must lie in [0, delta_cap] and every column sum must stay
    within column_budget (defaults to m, which never binds).
    """

    probs: np.ndarray
    delta_cap: float = 1.0
    column_budget: Optional[float] = None

    def __post_init__(self):
        arr = np.array(self.probs, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError("probs must be a nonempty 2-d matrix")
        if not (0.0 < self.delta_cap <= 1.0):
            raise ValueError("delta_cap must lie in (0, 1]")
        if (arr < 0.0).any() or (arr > self.delta_cap + 1e-12).any():
            raise ValueError("entries must lie in [0, delta_cap]")
        budget = float(self.m if self.column_budget is None else self.column_budget)
        object.__setattr__(self, "column_budget", budget)
        if (arr.sum(axis=0) > budget + 1e-9).any():
            raise ValueError("a column sum exceeds the column budget")
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @property
    def m(self) -> int:
        return np.asarray(self.probs).shape[0]

    @property
    def n(self) -> int:
        return np.asarray(self.probs).shape[1]


# -- sampling ----------------------------------------------------------------


def sample_bernoulli(m: int, n: int, p: float, seed: int) -> IncidenceMatrix:
    """Draw each entry 1 independently with probability p.

    Identical (m, n, p, seed) always yields a bit-identical matrix,
    regardless of platform or thread count.
    """
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    bits = (stream(seed).random((m, n)) < p).astype(np.int8)
    return IncidenceMatrix(bits, GenMeta(p=float(p), seed=int(seed), generator="bernoulli"))


def sample_semirandom(P: DistributionMatrix, seed: int) -> IncidenceMatrix:
    """Draw entry (i, j) with probability P[i][j], independently per entry."""
    bits = (stream(seed).random((P.m, P.n)) < P.probs).astype(np.int8)
    return IncidenceMatrix(bits, GenMeta(p=None, seed=int(seed), generator="semirandom"))


# -- exact integer operations --------------------------------------------------


def _signs_of(x) -> np.ndarray:
    signs = x.signs if isinstance(x, Coloring) else np.asarray(x)
    if not np.isin(signs, (-1, 1)).all():
        raise ValueError("coloring entries must be -1 or +1")
    return signs


def signed_discrepancy(A: IncidenceMatrix, x) -> np.ndarray:
    """The integer vector A x; component i is the imbalance of set i."""
    signs = _signs_of(x)
    if signs.shape != (A.n,):
        raise ValueError(f"coloring has length {signs.size}, matrix has n={A.n}")
    return A.bits.astype(np.int64) @ signs.astype(np.int64)


def disc_of_coloring(A: IncidenceMatrix, x) -> int:
    """max_i |(A x)_i|, the discrepancy of the coloring."""
    return int(np.abs(signed_discrepancy(A, x)).max())


def covariance_empirical(A: IncidenceMatrix) -> np.ndarray:
    """A A^T: entry (i, i') counts the elements shared by sets i and i'."""
    b = A.bits.astype(np.int64)
    return b @ b.T


def covariance_expected(m: int, n: int, p: float) -> np.ndarray:
    """Expected A A^T under entrywise Bernoulli(p): np on the diagonal, np^2 off it."""
    out = np.full((m, m), n * p * p, dtype=np.float64)
    np.fill_diagonal(out, n * p)
    return out


def max_column_frequency(A: IncidenceMatrix) -> int:
    """Largest number of sets any single element belongs to."""
    return int(A.col_sums.max())
