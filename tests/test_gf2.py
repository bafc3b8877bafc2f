"""Bit-packed GF(2) reduced row echelon form."""

import pytest

from magicscope.gf2 import F2Matrix, rref
from magicscope.pauli import MeasurementSet
from magicscope.polytope import _symplectic_column_matrix


class TestRref:
    def test_identity(self):
        m = F2Matrix.from_lists([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        _, rank, pivots = rref(m)
        assert rank == 3 and pivots == [0, 1, 2]

    def test_duplicate_rows(self):
        m = F2Matrix.from_lists([[1, 1, 0], [1, 1, 0]])
        _, rank, _ = rref(m)
        assert rank == 1

    def test_symplectic_matrix_of_xx_yy_zz(self):
        ms = MeasurementSet.from_strings(["XX", "YY", "ZZ"])
        red, rank, pivots = rref(_symplectic_column_matrix(ms, (0, 1, 2)))
        assert rank == 2 and pivots == [0, 1]
        # ZZ's column marks both pivot rows: ZZ is proportional to XX.YY
        assert [row[2] for row in red.to_lists()[:rank]] == [1, 1]

    def test_row_too_wide_rejected(self):
        with pytest.raises(ValueError):
            F2Matrix((0b100,), 2)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            F2Matrix.from_lists([[1, 0], [1]])
