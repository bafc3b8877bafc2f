"""Reduced row echelon form over GF(2) with bit-packed rows.

Rows are Python ints; bit ``j`` of a row is column ``j``.  Pivoting is
deterministic (lowest column, first available row), so the pivot
columns are the lexicographically first independent columns and every
other column is expressed in them by the RREF.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["rref"]


def rref(rows: Sequence[int], cols: int) -> Tuple[List[int], int, List[int]]:
    """Reduced row echelon form of bit-packed rows over ``cols`` columns: rows, rank, pivots."""
    work = list(rows)
    pivots: List[int] = []
    rank = 0
    for col in range(cols):
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
    return work, rank, pivots
