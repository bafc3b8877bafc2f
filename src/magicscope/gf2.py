"""Reduced row echelon form over GF(2) with bit-packed rows.

Rows are Python ints; bit ``j`` of a row is column ``j``.  Pivoting is
deterministic (lowest column, first available row), so the pivot
columns are the lexicographically first independent columns and every
other column is expressed in them by the RREF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

__all__ = ["F2Matrix", "rref"]


@dataclass(frozen=True)
class F2Matrix:
    rows: Tuple[int, ...]
    cols: int

    def __post_init__(self):
        mask = (1 << self.cols) - 1
        for r in self.rows:
            if r & ~mask:
                raise ValueError("row wider than column count")

    @classmethod
    def from_lists(cls, rows: List[List[int]]) -> "F2Matrix":
        cols = len(rows[0]) if rows else 0
        packed = []
        for row in rows:
            if len(row) != cols:
                raise ValueError("ragged rows")
            packed.append(sum((b & 1) << j for j, b in enumerate(row)))
        return cls(tuple(packed), cols)

    def to_lists(self) -> List[List[int]]:
        return [[(r >> j) & 1 for j in range(self.cols)] for r in self.rows]


def rref(m: F2Matrix) -> Tuple[F2Matrix, int, List[int]]:
    """Reduced row echelon form, rank and pivot columns."""
    work = list(m.rows)
    pivots: List[int] = []
    rank = 0
    for col in range(m.cols):
        sel = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                sel = r
                break
        if sel is None:
            continue
        work[rank], work[sel] = work[sel], work[rank]
        for r in range(len(work)):
            if r != rank and (work[r] >> col) & 1:
                work[r] ^= work[rank]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return F2Matrix(tuple(work), m.cols), rank, pivots
