"""V-representation of the reduced stabilizer polytope.

Each maximal commuting subset S of the measurement set, together with
an admissible sign assignment f (no signed subset product equal to -1),
contributes one vertex with entries f on S and 0 elsewhere.  Admissible
assignments are found by a GF(2) coset solve: the kernel of the
symplectic column matrix of S encodes the subset products proportional
to the identity, and the sign vector of those products pins the parity
constraints on f.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .fgraph import build_frustration_graph, enumerate_maximal_independent_sets
from .pauli import MeasurementSet, commutes, format_pauli, identity, identity_sign, multiply

__all__ = [
    "VertexSet",
    "admissible_signs",
    "v_representation",
    "size_bound",
]


@dataclass(frozen=True, eq=False)
class VertexSet:
    """The vertices as rows of one read-only N x m float array (entries -1, 0, 1).

    Rows come in context order: one maximal commuting subset after
    another, each with its admissible sign assignments in sorted order.
    A row's support is its context and its non-zero entries its signs.
    """

    m: int
    vertices: np.ndarray
    measurements: Optional[MeasurementSet] = None

    def contexts(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """(support, signs on the support) of every row, in row order."""
        rows, cols = np.nonzero(self.vertices)
        signs = self.vertices[rows, cols].astype(np.int8).tolist()
        bounds = np.searchsorted(rows, np.arange(len(self.vertices) + 1)).tolist()
        cols = cols.tolist()
        return [
            (tuple(cols[a:b]), tuple(signs[a:b])) for a, b in zip(bounds[:-1], bounds[1:])
        ]

    def to_json(self) -> str:
        payload = {
            "m": self.m,
            "measurements": [format_pauli(p) for p in self.measurements]
            if self.measurements is not None
            else None,
            "vertices": self.vertices.astype(np.int8).tolist(),
            "contexts": [{"set": s, "signs": f} for s, f in self.contexts()],
        }
        return json.dumps(payload, indent=1)

    def to_txt(self) -> str:
        rows = self.vertices.astype(np.int8).tolist()
        return "\n".join(" ".join(str(c) for c in row) for row in rows) + "\n"


def _symplectic_column_matrix(measurements: MeasurementSet, subset: Sequence[int]) -> gf2.F2Matrix:
    n = measurements.n
    rows = []
    for i in range(n):
        row = 0
        for j, idx in enumerate(subset):
            row |= ((measurements[idx].xbits >> i) & 1) << j
        rows.append(row)
    for i in range(n):
        row = 0
        for j, idx in enumerate(subset):
            row |= ((measurements[idx].zbits >> i) & 1) << j
        rows.append(row)
    return gf2.F2Matrix(tuple(rows), len(subset))


def admissible_signs(
    measurements: MeasurementSet, subset: Sequence[int]
) -> List[Tuple[int, ...]]:
    """All sign assignments over the commuting subset with no -1 product.

    Returns tuples of +-1 aligned with ``subset`` (ascending index
    order), sorted so that repeated runs emit identical lists.  The
    parity constraints come from a kernel basis, which has full row
    rank, so they always have a solution (``+Z, -Z`` gives the two
    assignments (-1, 1) and (1, -1)); the empty list, returned if the
    solve ever finds none, marks an inconsistent context.
    """
    subset = tuple(sorted(subset))
    for a in range(len(subset)):
        for b in range(a):
            if not commutes(measurements[subset[a]], measurements[subset[b]]):
                raise ValueError("subset contains an anticommuting pair")
    m_s = _symplectic_column_matrix(measurements, subset)
    kernel = gf2.kernel_basis(m_s)
    sigma = 0
    for i, c in enumerate(kernel.rows):
        prod = identity(measurements.n)
        for j in range(len(subset)):
            if (c >> j) & 1:
                prod = multiply(prod, measurements[subset[j]])
        sign = identity_sign(prod)
        assert sign is not None, "kernel row product must be proportional to identity"
        if sign == -1:
            sigma |= 1 << i
    particular = gf2.solve(kernel, sigma)
    if particular is None:
        return []
    coset_basis = gf2.kernel_basis(kernel).rows
    xs = {particular}
    for vec in coset_basis:
        xs |= {x ^ vec for x in xs}
    assignments = sorted(
        tuple(-1 if (x >> j) & 1 else 1 for j in range(len(subset))) for x in xs
    )
    return assignments


def v_representation(measurements: MeasurementSet) -> VertexSet:
    """Enumerate every (maximal commuting subset, admissible signs) vertex."""
    m = len(measurements)
    blocks = []
    for subset in enumerate_maximal_independent_sets(build_frustration_graph(measurements)):
        signs = np.array(admissible_signs(measurements, subset), dtype=np.int8)
        block = np.zeros((len(signs), m), dtype=np.int8)
        block[:, list(subset)] = signs.reshape(-1, len(subset))
        blocks.append(block)
    packed = np.concatenate(blocks)
    rows = packed.view(np.dtype((np.void, m))).ravel()
    assert len(np.unique(rows)) == len(rows), "duplicate vertices from distinct contexts"
    vertices = packed.astype(float)
    vertices.setflags(write=False)
    return VertexSet(m, vertices, measurements)


def _isotropic_subspace_count(n: int) -> int:
    # maximal isotropic subspaces of F_2^{2n}: prod_{k=1..n} (2^k + 1)
    count = 1
    for k in range(1, n + 1):
        count *= 2**k + 1
    return count


def size_bound(n: int, m: int) -> int:
    """Computable envelope on the vertex count for any set with these n, m."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if n <= 4:
        independent_sets = min(3 ** (m // 3 + 1), _isotropic_subspace_count(n))
    else:
        independent_sets = 3 ** (m // 3 + 1)
    return 2 ** min(n, m) * independent_sets


def vertex_set_from_json(text: str) -> VertexSet:
    """Read a vertex file written by ``to_json``; its contexts follow from the rows."""
    payload = json.loads(text)
    m = payload["m"]
    rows = payload["vertices"]
    if any(not isinstance(row, list) or len(row) != m for row in rows):
        raise ValueError(f"vertex rows must have m = {m} entries")
    vertices = np.array(rows, dtype=float).reshape(len(rows), m)
    if not np.isin(vertices, (-1.0, 0.0, 1.0)).all():
        raise ValueError("vertex entries must be -1, 0 or 1")
    vertices.setflags(write=False)
    measurements = None
    if payload.get("measurements"):
        measurements = MeasurementSet.from_strings(payload["measurements"])
    return VertexSet(m, vertices, measurements)
