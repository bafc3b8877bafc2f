"""V-representation of the reduced stabilizer polytope.

Each maximal commuting subset S of the measurement set, together with
an admissible sign assignment f (no signed subset product equal to -1),
contributes one vertex with entries f on S and 0 elsewhere.  The
admissible assignments come from one GF(2) elimination over the
members' symplectic vectors, in subset order: a member independent of
those before it is a pivot whose sign is free, 2^rank assignments in
all, and every other member is +-1 times the product of the pivots it
reduces against, which fixes its sign.

The qubit cyclic shifts and reflections that map the signed measurement
set onto itself permute the measurements and the vertices.  Their
orbit-sum reduction (``VertexSet.symmetry``) holds each distinct
vector of the vertices' orbit sums once.  It is built lazily, at the
first robustness query that asks for it, and cached on the vertex set.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence, TextIO, Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .fgraph import build_frustration_graph, enumerate_maximal_independent_sets
from .pauli import MeasurementSet, PauliString, commutes, format_pauli, identity_sign, multiply

__all__ = [
    "VertexSet",
    "OrbitReduction",
    "qubit_symmetries",
    "admissible_signs",
    "v_representation",
    "size_bound",
]


# Rows per block that the writers format and write, the LP prices and the orbit
# reduction sums at once.
_BLOCK_ROWS = 4096
# Most orbits whose points get a convex hull: qhull took 13 ms at 5 orbits, 52 ms
# at 6, 0.49 s at 7 and over a minute at 8 (projections of the XXZ n=12 window).
_HULL_MAX_ORBITS = 6
# Seeded directions whose extreme points stand in for the hull above that cap, and
# the points projected onto them a block at a time: directions @ block.T, row by
# row, took 40 ms over the 84,699 points of open ANNNI n=10, against 110 ms for
# block @ directions.T reduced along its columns, and a block's projections take
# 1 MB here, against 8 MB at 4,096 rows.
_PROBE_DIRECTIONS = 256
_PROBE_ROWS = 512


def _json_list(items: Sequence[str], depth: int) -> str:
    """The JSON list of encoded items as ``json.dumps(indent=1)`` lays it out at this depth."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


def _token_rows(block: np.ndarray, heads: Tuple[str, str], entry: str, last: str) -> str:
    """The text of a block of int8 rows with entries -1, 0 and 1, joined from a token table.

    A row is its head (``heads[0]`` for the block's first row, ``heads[1]``
    for the others), then ``entry % v`` for each of its entries but the
    last and ``last % v`` for the last.
    """
    rows, width = block.shape
    values = (-1, 0, 1)
    table = np.array(
        [entry % v for v in values] + [last % v for v in values] + list(heads), dtype=object
    )
    codes = np.empty((rows, width + 1), dtype=np.intp)
    codes[:, 0] = 7
    codes[:1, 0] = 6
    codes[:, 1:] = block
    codes[:, 1:] += 1
    codes[:, -1] += 3
    return "".join(table[codes].ravel().tolist())


@dataclass(frozen=True, eq=False)
class VertexSet:
    """The vertices as rows of one read-only N x m int8 array (entries -1, 0, 1).

    Rows come in context order: one maximal commuting subset after
    another, each with its admissible sign assignments in sorted order.
    A row's support is its context and its non-zero entries its signs;
    ``starts`` holds the first row of each subset's block.  Only
    ``v_representation`` builds a set, so it has its measurements and
    every block has at least one row, none of them zero.

    ``write_json`` and ``write_txt`` stream the vertex file to an open
    text file, byte for byte the text of ``json.dumps(indent=1)`` of
    {m, measurements, vertices, contexts} and of one space-separated
    line per row.  They format the rows a block of a few thousand at a
    time: each entry becomes a code (its value, whether it ends its row,
    and a head for the first row and one for later rows) that indexes a
    small table of tokens, and the joined block goes to the file.  The
    contexts come one maximal commuting subset at a time, with its
    ``"set"`` text formatted once; only the sign tokens change from row
    to row.  So the whole text and the nested lists never exist at once.
    """

    measurements: MeasurementSet
    vertices: np.ndarray
    starts: Tuple[int, ...]

    def _blocks(self):
        """(first row, end row, support) of each maximal commuting subset's block."""
        starts = self.starts
        for a, b in zip(starts, starts[1:] + (len(self.vertices),)):
            yield a, b, np.flatnonzero(self.vertices[a])

    def contexts(self) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """(support, signs on the support) of every row, in row order."""
        found = []
        for a, b, support in self._blocks():
            s = tuple(support.tolist())
            signs = self.vertices[a:b, support].tolist()
            found.extend((s, tuple(f)) for f in signs)
        return found

    def write_json(self, fh: TextIO) -> None:
        """Write the JSON vertex file (see the class docstring) to ``fh``."""
        ms = self.measurements
        measurements = _json_list([json.dumps(format_pauli(p)) for p in ms], 1)
        fh.write(f'{{\n "m": {ms.m},\n "measurements": {measurements},\n "vertices": [')
        for a in range(0, len(self.vertices), _BLOCK_ROWS):
            block = self.vertices[a:a + _BLOCK_ROWS]
            heads = ("\n  [" if a == 0 else ",\n  [", ",\n  [")
            fh.write(_token_rows(block, heads, "\n   %d,", "\n   %d\n  ]"))
        fh.write('\n ],\n "contexts": [')
        for a, b, support in self._blocks():
            s = _json_list([str(c) for c in support.tolist()], 3)
            head = f'\n  {{\n   "set": {s},\n   "signs": ['
            heads = (head if a == 0 else "," + head, "," + head)
            signs = self.vertices[a:b, support]
            fh.write(_token_rows(signs, heads, "\n    %d,", "\n    %d\n   ]\n  }"))
        fh.write("\n ]\n}")

    def write_txt(self, fh: TextIO) -> None:
        """Write one line of space-separated entries per row to ``fh``."""
        for a in range(0, len(self.vertices), _BLOCK_ROWS):
            block = self.vertices[a:a + _BLOCK_ROWS]
            fh.write(_token_rows(block, ("", ""), "%d ", "%d\n"))

    def to_json(self) -> str:
        """The JSON vertex file as one string."""
        out = io.StringIO()
        self.write_json(out)
        return out.getvalue()

    def to_txt(self) -> str:
        """The txt vertex file as one string."""
        out = io.StringIO()
        self.write_txt(out)
        return out.getvalue()

    @cached_property
    def symmetry(self) -> Optional["OrbitReduction"]:
        """The orbit-sum reduction, or None if the qubit symmetry group is trivial.

        Computed at the first access and cached; ``v_representation`` does
        not touch it.
        """
        return _orbit_reduction(self.measurements, self.vertices)


def _move_qubits(p: PauliString, target: List[int]) -> PauliString:
    """p with qubit q sent to qubit target[q]."""

    def move(bits: int) -> int:
        return sum(((bits >> q) & 1) << t for q, t in enumerate(target))

    return PauliString(p.n, p.phase_k, move(p.xbits), move(p.zbits))


def qubit_symmetries(measurements: MeasurementSet) -> np.ndarray:
    """Measurement permutations of the qubit shifts and reflections that fix the signed set.

    Of the 2n maps q -> q + k and q -> k - q (mod n), those that send
    every signed measurement to a member of the set; row g holds the
    index of g(P_i) for each i, the identity first, one row per distinct
    permutation.  They form a group.
    """
    n = measurements.n
    index = {p: i for i, p in enumerate(measurements)}
    perms: List[List[int]] = []
    for k in range(n):
        for target in ([(q + k) % n for q in range(n)], [(k - q) % n for q in range(n)]):
            images = [index.get(_move_qubits(p, target)) for p in measurements]
            if None not in images and images not in perms:
                perms.append(images)
    return np.array(perms, dtype=np.intp)


@dataclass(frozen=True, eq=False)
class OrbitReduction:
    """Distinct orbit-sum points of the vertices under a non-trivial qubit symmetry group.

    ``orbits`` labels each measurement with its orbit; a vertex projects
    to its orbit sums, and ``points`` holds each distinct projection
    once, in lexicographic order with the last orbit the primary key.
    The group maps each point's fibre, every vertex that projects to it,
    onto itself, so the fibre's mean is constant on each orbit.

    ``hull`` holds the ascending indices of the points' convex hull
    vertices, or None above _HULL_MAX_ORBITS (6) orbits or when qhull
    refuses the points (one orbit, a flat set): the TFIM, ANNNI and
    XXZ n=9 all-terms sets (2-4 orbits) have one, the XXZ n=12 window (13) not.
    Where there is no hull, ``probes`` holds the ascending indices of the
    points that maximise or minimise points @ d along _PROBE_DIRECTIONS
    (256) seeded directions d, all of them hull vertices (163 of the
    window's 3,505 points); otherwise it is None.  Either set depends on the
    points alone, not on the expectations a query brings.
    """

    perms: np.ndarray
    orbits: np.ndarray
    points: np.ndarray
    hull: Optional[np.ndarray]
    probes: Optional[np.ndarray]


def _orbit_reduction(
    measurements: MeasurementSet, vertices: np.ndarray
) -> Optional[OrbitReduction]:
    """The distinct orbit sums of the vertices; None if the group is trivial."""
    perms = qubit_symmetries(measurements)
    if len(perms) == 1:
        return None
    # a group orbit's smallest member labels it
    _, orbits = np.unique(perms.min(axis=0), return_inverse=True)
    groups = [orbits == o for o in range(orbits.max() + 1)]
    # A block's distinct sums, then the distinct rows of all of them: only one
    # block of sums and the rows kept so far are ever in memory.
    kept = []
    for a in range(0, len(vertices), _BLOCK_ROWS):
        block = vertices[a:a + _BLOCK_ROWS]
        # exact: an orbit sum is at most m in magnitude
        sums = np.stack([block[:, g].sum(axis=1, dtype=np.int16) for g in groups], axis=1)
        kept.append(_distinct_rows(sums))
    kept = np.concatenate(kept)  # drops the blocks' arrays before the last sort
    points = _distinct_rows(kept).astype(float)
    hull = _hull_vertices(points)
    return OrbitReduction(
        perms, orbits, points, hull, _extreme_points(points) if hull is None else None
    )


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """Each distinct row once, in lexicographic order with the last column the primary key."""
    # a lexsort: np.unique(axis=0) is an order of magnitude slower on these rows
    ordered = rows[np.lexsort(rows.T)]
    first = np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)])
    return ordered[first]


def _hull_vertices(points: np.ndarray) -> Optional[np.ndarray]:
    """``OrbitReduction.hull`` of these points."""
    if points.shape[1] > _HULL_MAX_ORBITS:
        return None
    try:
        return np.sort(ConvexHull(points).vertices)
    except (QhullError, ValueError):  # one dimension, or a flat set
        return None


def _extreme_points(points: np.ndarray) -> np.ndarray:
    """``OrbitReduction.probes`` of these points.

    The directions come from a fixed seed and a tie goes to the first
    point, so every build, in any thread, finds the same indices.
    """
    directions = np.random.default_rng(0).standard_normal((_PROBE_DIRECTIONS, points.shape[1]))
    rows = np.arange(_PROBE_DIRECTIONS)
    # row 0 keeps the highest value along each d, row 1 the lowest, negated
    sides = np.array([[1.0], [-1.0]])
    best = np.full((2, _PROBE_DIRECTIONS), -np.inf)
    found = np.zeros((2, _PROBE_DIRECTIONS), dtype=np.intp)
    for a in range(0, len(points), _PROBE_ROWS):
        projected = directions @ points[a:a + _PROBE_ROWS].T
        pick = np.stack([projected.argmax(axis=1), projected.argmin(axis=1)])
        values = sides * projected[rows, pick]
        gain = values > best
        best[gain] = values[gain]
        found[gain] = pick[gain] + a
    return np.unique(found)


_Elimination = Tuple[List[int], List[Tuple[int, List[int], int]]]


def _eliminate(measurements: MeasurementSet, subset: Tuple[int, ...]) -> _Elimination:
    """The pivots of a sorted commuting subset, and each dependent's (member, marked pivots, lam).

    Members are positions in ``subset``.  Each member's symplectic vector
    ``xbits | zbits << n`` is reduced against an XOR basis keyed by
    leading bit, remembering which members every basis vector is the
    product of.  A member that survives is a pivot, independent of the
    members before it; one that reduces to zero is lam = +-1 times the
    product of the pivots it marked.
    """
    n = measurements.n
    basis = {}  # leading bit -> (vector, bit mask of the members it is the product of)
    pivots: List[int] = []
    dependents = []
    for c, index in enumerate(subset):
        p = measurements[index]
        vector, members = p.xbits | p.zbits << n, 1 << c
        while vector and vector.bit_length() - 1 in basis:
            reducer, marks = basis[vector.bit_length() - 1]
            vector ^= reducer
            members ^= marks
        if vector:
            basis[vector.bit_length() - 1] = (vector, members)
            pivots.append(c)
        else:
            marked = [j for j in pivots if (members >> j) & 1]
            # P_c = lam * prod(P_marked), and the product is Hermitian, so P_c * prod = lam * 1
            product = p
            for j in marked:
                product = multiply(product, measurements[subset[j]])
            dependents.append((c, marked, identity_sign(product)))
    return pivots, dependents


def _write_signs(out: np.ndarray, columns: np.ndarray, elimination: _Elimination) -> None:
    """Write a subset's admissible signs into the 2^rank rows of ``out``, member c's in columns[c].

    Row k gives pivot i the sign of bit rank-1-i of k (0 -> -1), so the
    pivots, the lexicographically first independent members, ascend
    lexicographically.  A dependent member is fixed by pivots to its
    left, so the whole rows are in sorted() order as well.
    """
    pivots, dependents = elimination
    rank = len(pivots)
    k = np.arange(1 << rank)[:, None]
    out[:, columns[pivots]] = 2 * ((k >> np.arange(rank - 1, -1, -1)) & 1) - 1
    for c, marked, lam in dependents:
        out[:, columns[c]] = lam * np.prod(out[:, columns[marked]], axis=1)


def _sign_block(measurements: MeasurementSet, subset: Tuple[int, ...]) -> np.ndarray:
    """Admissible signs of a sorted commuting subset: one int8 row each, in sorted order."""
    elimination = _eliminate(measurements, subset)
    block = np.empty((1 << len(elimination[0]), len(subset)), dtype=np.int8)
    _write_signs(block, np.arange(len(subset)), elimination)
    return block


def admissible_signs(
    measurements: MeasurementSet, subset: Sequence[int]
) -> List[Tuple[int, ...]]:
    """All sign assignments over the commuting subset with no -1 product.

    Returns tuples of +-1 aligned with ``subset`` (ascending index
    order), in sorted order.  Eliminating the members' symplectic
    vectors in that order picks the pivots: the members independent of
    those before them, whose 2^rank signs are free.  Each other member
    P_c equals lam_c times the product of the pivots it reduces against,
    and its sign is lam_c times their signs.  The signed pivots generate
    a group without -1 that holds every signed member, so there are
    always 2^rank assignments (``+Z, -Z`` gives (-1, 1) and (1, -1)).
    """
    subset = tuple(sorted(subset))
    for a in range(len(subset)):
        for b in range(a):
            if not commutes(measurements[subset[a]], measurements[subset[b]]):
                raise ValueError("subset contains an anticommuting pair")
    return [tuple(row) for row in _sign_block(measurements, subset).tolist()]


def v_representation(measurements: MeasurementSet) -> VertexSet:
    """Enumerate every (maximal commuting subset, admissible signs) vertex."""
    m = len(measurements)
    subsets = enumerate_maximal_independent_sets(build_frustration_graph(measurements))
    # A row's support is its whole subset (every sign is +-1) and the rows of one
    # block differ on its pivots, so a vertex repeats only if a subset does.
    if any(a >= b for a, b in zip(subsets, subsets[1:])):
        raise AssertionError("duplicate vertices from distinct contexts")
    eliminations = [_eliminate(measurements, subset) for subset in subsets]
    # the first row of each block, then the row count
    starts = np.cumsum([0] + [1 << len(pivots) for pivots, _ in eliminations])
    # each block's signs go straight into its rows of the one array
    vertices = np.zeros((starts[-1], m), dtype=np.int8)
    for subset, elimination, a, b in zip(subsets, eliminations, starts, starts[1:]):
        _write_signs(vertices[a:b], np.array(subset), elimination)
    vertices.setflags(write=False)
    return VertexSet(measurements, vertices, tuple(starts[:-1].tolist()))


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
