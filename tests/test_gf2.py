import numpy as np
import pytest

from netcode.gf2 import BitMatrix, is_systematic_prefix


def test_bitmatrix_constructors_agree():
    rows = [[1, 0, 1], [0, 1, 1]]
    A = BitMatrix.from_rows(rows)
    B = BitMatrix((0b101, 0b110), 2, 3)  # entry j is bit j
    assert A == B
    assert A.to_lists() == rows
    assert A.rows == 2 and A.cols == 3


def test_bitmatrix_entry_row_column():
    A = BitMatrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 1], [0, 0, 1, 0]])
    assert A.entry(0, 3) == 1
    assert A.entry(2, 3) == 0
    assert A.to_lists()[1] == [0, 1, 0, 1]
    assert [row[3] for row in A.to_lists()] == [1, 1, 0]
    with pytest.raises(IndexError):
        A.entry(3, 0)


def test_bitmatrix_to_array():
    A = BitMatrix.from_rows([[1, 1, 0], [0, 0, 1]])
    arr = A.to_array()
    assert arr.dtype == np.uint8
    assert arr.tolist() == [[1, 1, 0], [0, 0, 1]]
    assert BitMatrix((), 0, 3).to_array().shape == (0, 3)


def test_bitmatrix_validation():
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[1, 0], [1, 0, 1]])  # ragged
    with pytest.raises(ValueError):
        BitMatrix.from_rows([[0, 2, 1]])  # not a GF(2) element
    with pytest.raises(ValueError):
        BitMatrix.from_rows([])  # no row to take the column count from
    with pytest.raises(ValueError):
        BitMatrix((0b100,), 1, 2)  # mask outside columns
    with pytest.raises(ValueError, match="row count mismatch"):
        BitMatrix((0b1,), 2, 2)


def test_is_systematic_prefix():
    assert is_systematic_prefix(
        BitMatrix.from_rows([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 0]]))
    assert not is_systematic_prefix(
        BitMatrix.from_rows([[0, 1, 0, 1], [1, 0, 0, 1], [0, 0, 1, 0]]))
    assert not is_systematic_prefix(BitMatrix.from_rows([[1, 1], [0, 1], [0, 0]]))
