"""Bit-packed matrices over GF(2).

Matrix rows are packed into Python integers with bit j holding column
j (LSB = column 0).  Matrices are immutable and safe to share between
workers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "BitMatrix",
    "is_systematic_prefix",
]


def _pack(seq: Iterable[int]) -> int:
    """Mask of a 0/1 sequence; entry j becomes bit j."""
    mask = 0
    for j, b in enumerate(seq):
        if b not in (0, 1):
            raise ValueError(f"entry {b!r} is not a GF(2) element")
        mask |= b << j
    return mask


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
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        if not rows:
            raise ValueError("cannot infer column count from an empty matrix")
        cols = len(rows[0])
        masks = []
        for r in rows:
            if len(r) != cols:
                raise ValueError("ragged rows")
            masks.append(_pack(r))
        return cls(tuple(masks), len(rows), cols)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return (self.row_masks[i] >> j) & 1

    def to_lists(self) -> list[list[int]]:
        return [[(m >> j) & 1 for j in range(self.cols)] for m in self.row_masks]

    def to_array(self) -> np.ndarray:
        """Dense (rows, cols) uint8 array."""
        return np.array(self.to_lists(), dtype=np.uint8).reshape(self.rows, self.cols)


def is_systematic_prefix(G: BitMatrix) -> bool:
    """True iff the first k columns form the k x k identity."""
    if G.cols < G.rows:
        return False
    prefix = (1 << G.rows) - 1
    return all((m & prefix) == (1 << i) for i, m in enumerate(G.row_masks))
