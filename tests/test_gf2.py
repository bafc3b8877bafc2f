"""Bit-packed GF(2) reduced row echelon form."""

from magicscope.gf2 import rref
from magicscope.pauli import MeasurementSet
from magicscope.polytope import _symplectic_column_matrix


class TestRref:
    def test_identity(self):
        _, rank, pivots = rref([0b001, 0b010, 0b100], 3)
        assert rank == 3 and pivots == [0, 1, 2]

    def test_duplicate_rows(self):
        _, rank, _ = rref([0b011, 0b011], 3)
        assert rank == 1

    def test_symplectic_matrix_of_xx_yy_zz(self):
        ms = MeasurementSet.from_strings(["XX", "YY", "ZZ"])
        red, rank, pivots = rref(_symplectic_column_matrix(ms, (0, 1, 2)), 3)
        assert rank == 2 and pivots == [0, 1]
        # ZZ's column marks both pivot rows: ZZ is proportional to XX.YY
        assert [(row >> 2) & 1 for row in red[:rank]] == [1, 1]
