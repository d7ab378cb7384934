"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are packed into Python integers with bit j
holding coordinate j (LSB = column 0).  All objects are immutable and
safe to share between workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitVector",
    "BitMatrix",
    "mat_vec_mul",
    "hamming_weight",
    "column_select",
    "is_systematic_prefix",
]


def _pack(seq: Iterable[int]) -> tuple[int, int]:
    """(mask, length) of a 0/1 sequence; entry j becomes bit j."""
    mask = 0
    n = 0
    for b in seq:
        if b not in (0, 1):
            raise ValueError(f"entry {b!r} is not a GF(2) element")
        mask |= b << n
        n += 1
    return mask, n


@dataclass(frozen=True)
class BitVector:
    """Length-n vector over GF(2), packed into an int mask."""

    bits: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.n:
            raise ValueError("mask has bits outside the declared length")

    @classmethod
    def from_bits(cls, seq: Iterable[int]) -> "BitVector":
        return cls(*_pack(seq))

    def to_list(self) -> list[int]:
        return [(self.bits >> j) & 1 for j in range(self.n)]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, j: int) -> int:
        if not 0 <= j < self.n:
            raise IndexError(j)
        return (self.bits >> j) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.bits ^ other.bits, self.n)

    def __and__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise ValueError(f"length mismatch: {self.n} vs {other.n}")
        return BitVector(self.bits & other.bits, self.n)

    def weight(self) -> int:
        return self.bits.bit_count()


@dataclass(frozen=True)
class BitMatrix:
    """k x n matrix over GF(2); each row packed into an int mask."""

    row_masks: tuple[int, ...]
    rows: int
    cols: int

    def __post_init__(self):
        if len(self.row_masks) != self.rows:
            raise ValueError("row count mismatch")
        for m in self.row_masks:
            if m < 0 or (self.cols < m.bit_length()):
                raise ValueError("row mask has bits outside the column range")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: int | None = None) -> "BitMatrix":
        if cols is None:
            if not rows:
                raise ValueError("cannot infer column count from an empty matrix")
            cols = len(rows[0])
        masks = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            masks.append(_pack(r)[0])
        return cls(tuple(masks), len(rows), cols)

    @classmethod
    def from_row_masks(cls, masks: Sequence[int], cols: int) -> "BitMatrix":
        return cls(tuple(masks), len(masks), cols)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(tuple(1 << i for i in range(n)), n, n)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.row_masks[i] >> j) & 1

    def row(self, i: int) -> BitVector:
        return BitVector(self.row_masks[i], self.cols)

    def column_mask(self, j: int) -> int:
        """Column j packed over row indices (bit i = entry [i][j])."""
        m = 0
        for i in range(self.rows):
            m |= ((self.row_masks[i] >> j) & 1) << i
        return m

    def to_lists(self) -> list[list[int]]:
        return [self.row(i).to_list() for i in range(self.rows)]

    def to_array(self) -> np.ndarray:
        """Dense (rows, cols) uint8 array."""
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for i, m in enumerate(self.row_masks):
            for j in range(self.cols):
                out[i, j] = (m >> j) & 1
        return out


def mat_vec_mul(u: BitVector, G: BitMatrix) -> BitVector:
    """c = uG over GF(2)."""
    if u.n != G.rows:
        raise ValueError(f"dimension mismatch: vector length {u.n}, matrix rows {G.rows}")
    acc = 0
    bits = u.bits
    for m in G.row_masks:
        if bits & 1:
            acc ^= m
        bits >>= 1
    return BitVector(acc, G.cols)


def hamming_weight(v: BitVector) -> int:
    """Number of nonzero entries."""
    return v.bits.bit_count()


def column_select(G: BitMatrix, keep: Sequence[int]) -> BitMatrix:
    """New matrix with only the columns in `keep`, order preserved."""
    seen = set()
    for j in keep:
        if not 0 <= j < G.cols:
            raise ValueError(f"column index {j} out of range")
        if j in seen:
            raise ValueError(f"duplicate column index {j}")
        seen.add(j)
    masks = []
    for m in G.row_masks:
        packed = 0
        for pos, j in enumerate(keep):
            packed |= ((m >> j) & 1) << pos
        masks.append(packed)
    return BitMatrix(tuple(masks), G.rows, len(keep))


def is_systematic_prefix(G: BitMatrix) -> bool:
    """True iff the first k columns form the k x k identity."""
    if G.cols < G.rows:
        return False
    prefix = (1 << G.rows) - 1
    return all((m & prefix) == (1 << i) for i, m in enumerate(G.row_masks))
