"""V-representation of the reduced stabilizer polytope.

Each maximal commuting subset S of the measurement set, together with
an admissible sign assignment f (no signed subset product equal to -1),
contributes one vertex with entries f on S and 0 elsewhere.  The
admissible assignments come from one GF(2) elimination over the
members' symplectic vectors, in subset order, that carries each
product's phase: a member independent of those before it is a pivot
whose sign is free, 2^rank assignments in all, and every other member is
+-1 times the product of the pivots it reduces against, so its sign is
+-1 times a parity of the row's pivot bits.  Subsets with one elimination
share their signs, and the distinct eliminations of one rank are
expanded together, a parity column per member, once per build.

The qubit cyclic shifts and reflections that map the signed measurement
set onto itself permute the measurements and the vertices.  Their
orbit-sum reduction (``VertexSet.symmetry``) holds each distinct
vector of the vertices' orbit sums once.  It is built lazily, at the
first robustness query that asks for it, and cached on the vertex set.
"""

from __future__ import annotations

import io
import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, Optional, Sequence, TextIO, Tuple

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .fgraph import build_frustration_graph, enumerate_maximal_independent_sets
from .pauli import MeasurementSet, PauliError, PauliString, commutes, format_pauli

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
# Entries whose text the writers take as one token, and the base-3 digit weights
# that number a group (in int16, exact for groups of up to ten entries).
_GROUP = 5
_DIGITS = 3 ** np.arange(_GROUP - 1, -1, -1, dtype=np.int16)
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
# Most signs the build computes at once, which bounds its temporaries (k & M_c
# and the parity) at a few hundred kB next to the vertex array.
_CHUNK_ENTRIES = 1 << 16


def _json_list(items: Sequence[str], depth: int) -> str:
    """The non-empty list of encoded items as ``json.dumps(indent=1)`` lays it out at this depth."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


@lru_cache(maxsize=None)  # keyed by the writers' few formats and the tail sizes 1.._GROUP
def _group_tokens(entry: str, last: str, tail: int) -> np.ndarray:
    """The text of every group of _GROUP entries, then of every tail group of ``tail`` entries.

    A group's text is ``entry % v`` for each of its entries, a tail
    group's the same but ``last % v`` for its last entry, and a group of
    entries v_0, v_1, ... sits at its base-3 number sum_k (v_k + 1) 3^(size-1-k)
    among the groups of its size.  Read-only, since the cache shares it.
    """

    def texts(size: int, end: str) -> List[str]:
        return [
            "".join([entry % v for v in values[:-1]] + [end % values[-1]])
            for values in itertools.product((-1, 0, 1), repeat=size)
        ]

    tokens = np.array(texts(_GROUP, entry) + texts(tail, last), dtype=object)
    tokens.setflags(write=False)
    return tokens


def _token_rows(block: np.ndarray, heads: Tuple[str, str], entry: str, last: str) -> str:
    """The text of a block of int8 rows with entries -1, 0 and 1, joined from a token table.

    A row is its head (``heads[0]`` for the block's first row, ``heads[1]``
    for the others), then ``entry % v`` for each of its entries but the
    last and ``last % v`` for the last.  One token holds the text of
    _GROUP consecutive entries, so a row of m entries is its head, its
    (m - 1) // _GROUP full groups and a tail group of the 1.._GROUP
    entries left, each group found in ``_group_tokens`` by its base-3
    number: the product of its int8 entries with the digit weights,
    shifted by the weights' sum so that a group of -1s is number 0.
    """
    rows, width = block.shape
    groups, tail = divmod(width - 1, _GROUP)
    tail += 1
    table = np.concatenate([_group_tokens(entry, last, tail), np.array(heads, dtype=object)])
    codes = np.empty((rows, groups + 2), dtype=np.intp)
    codes[:, 0] = len(table) - 1
    codes[:1, 0] = len(table) - 2
    full = block[:, :groups * _GROUP].reshape(rows, groups, _GROUP)
    np.matmul(full, _DIGITS, out=codes[:, 1:-1])
    np.matmul(block[:, groups * _GROUP:], _DIGITS[_GROUP - tail:], out=codes[:, -1])
    codes[:, 1:-1] += (3**_GROUP - 1) // 2
    codes[:, -1] += 3**_GROUP + (3**tail - 1) // 2
    return "".join(np.take(table, codes).ravel().tolist())


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
    time: each group of _GROUP (5) consecutive entries of a row becomes one
    code (its values, and whether it ends the row), as does the row's
    head (one for the block's first row, one for later rows), and the
    codes index a cached table of tokens, whose join goes to the file.  The
    contexts come one maximal commuting subset at a time, with its
    ``"set"`` text formatted once; only the sign tokens change from row
    to row.  So the whole text and the nested lists never exist at once.
    """

    measurements: MeasurementSet
    vertices: np.ndarray
    starts: Tuple[int, ...]

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
        starts = self.starts
        for a, b in zip(starts, starts[1:] + (len(self.vertices),)):
            support = np.flatnonzero(self.vertices[a])
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
    point, so every build finds the same indices.
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


_Elimination = Tuple[Tuple[int, ...], Tuple[Tuple[int, Tuple[int, ...], int], ...]]


def _eliminate(measurements: MeasurementSet, subset: Tuple[int, ...]) -> _Elimination:
    """The pivots of a sorted commuting subset, and each dependent's (member, marked pivots, lam).

    Members are positions in ``subset``.  Each member's symplectic vector
    ``xbits | zbits << n`` is reduced against an XOR basis keyed by
    leading bit; a basis vector carries the members it is the product of
    and that product's phase exponent, and each step multiplies by it with
    ``multiply``'s rule.  A member that survives is a pivot, independent of
    the members before it; one that reduces to zero is lam = +-1 times the
    product of the pivots it marked.  Hashable: it fixes the signs alone.
    """
    n = measurements.n
    basis = {}  # leading bit -> (vector, phase exponent, mask of the members it is the product of)
    pivots: List[int] = []
    dependents = []
    for c, index in enumerate(subset):
        p = measurements[index]
        vector, k, members = p.xbits | p.zbits << n, p.phase_k, 1 << c
        lead = vector.bit_length() - 1  # -1 once the vector is zero
        while lead in basis:
            reducer, phase, marks = basis[lead]
            k += phase + 2 * ((vector >> n) & reducer).bit_count()  # z against the reducer's x
            vector ^= reducer
            members ^= marks
            lead = vector.bit_length() - 1
        if vector:
            basis[lead] = (vector, k, members)
            pivots.append(c)
        elif k % 2:
            raise PauliError("imaginary multiple of the identity")
        else:
            marked = tuple(j for j in pivots if (members >> j) & 1)
            dependents.append((c, marked, 1 if k % 4 == 0 else -1))
    return tuple(pivots), tuple(dependents)


def _sign_blocks(rank: int, eliminations: Sequence[_Elimination], start: int = 0,
                 stop: Optional[int] = None) -> List[np.ndarray]:
    """Each elimination's admissible signs: rows start to stop (all 2^rank by default)
    of int8, member c's in column c.

    Row k gives pivot i the sign of bit rank-1-i of k (0 -> -1), so the
    pivots, the lexicographically first independent members, ascend
    lexicographically; a dependent member is fixed by pivots to its left,
    so the whole rows are in sorted() order as well.  One expression gives
    every column c as s_c (1 - 2 parity(k & M_c)): a pivot's M_c is its own
    bit and s_c is -1, a dependent's M_c its marked pivots' bits and s_c lam (-1)^|marked|.
    """
    code, ends = [], []  # each column's (M_c, s_c), and where each elimination's columns end
    for pivots, dependents in eliminations:
        bits = {c: 1 << (rank - 1 - i) for i, c in enumerate(pivots)}
        columns = {c: (bit, -1) for c, bit in bits.items()}
        for c, marked, lam in dependents:
            columns[c] = (sum(bits[j] for j in marked), lam * (-1) ** len(marked))
        code += [columns[c] for c in range(len(columns))]
        ends.append(len(code))
    masks, signs = zip(*code)
    dtype = np.min_scalar_type((1 << rank) - 1)  # narrow k & M_c
    k = np.arange(start, (1 << rank) if stop is None else stop, dtype=dtype)[:, None]
    parity = (np.bitwise_count(k & np.array(masks, k.dtype)) & 1).view(np.int8)
    return np.split(np.array(signs, dtype=np.int8) * (1 - 2 * parity), ends[:-1], axis=1)


def _sign_block(measurements: MeasurementSet, subset: Tuple[int, ...]) -> np.ndarray:
    """Admissible signs of a sorted commuting subset: one int8 row each, in sorted order."""
    elimination = _eliminate(measurements, subset)
    return _sign_blocks(len(elimination[0]), [elimination])[0]


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
    """Every (maximal commuting subset, admissible signs) vertex, one block per elimination."""
    m = len(measurements)
    subsets = enumerate_maximal_independent_sets(build_frustration_graph(measurements))
    # A row's support is its whole subset (every sign is +-1) and the rows of one
    # block differ on its pivots, so a vertex repeats only if a subset does.
    if any(a >= b for a, b in zip(subsets, subsets[1:])):
        raise AssertionError("duplicate vertices from distinct contexts")
    starts = [0]  # the first row of each block, then the row count
    groups = {}  # elimination -> (first row, subset) of each subset that has it
    for subset in subsets:
        elimination = _eliminate(measurements, subset)
        groups.setdefault(elimination, []).append((starts[-1], subset))
        starts.append(starts[-1] + (1 << len(elimination[0])))
    ranks = {}  # rank -> its distinct eliminations
    for elimination in groups:
        ranks.setdefault(len(elimination[0]), []).append(elimination)
    vertices = np.zeros((starts[-1], m), dtype=np.int8)
    for rank, eliminations in ranks.items():
        # a chunk is whole blocks, or rows of one elimination wider than a chunk
        # (an elimination has at most m columns)
        height = min(1 << rank, max(1, _CHUNK_ENTRIES // m))
        step = max(1, _CHUNK_ENTRIES // (m * height))
        for i in range(0, len(eliminations), step):
            chunk = eliminations[i:i + step]
            for r in range(0, 1 << rank, height):
                blocks = _sign_blocks(rank, chunk, r, min(r + height, 1 << rank))
                for elimination, rows in zip(chunk, blocks):
                    for a, subset in groups[elimination]:
                        vertices[a + r:a + r + len(rows), subset] = rows
    vertices.setflags(write=False)
    return VertexSet(measurements, vertices, tuple(starts[:-1]))


def _isotropic_subspace_count(n: int) -> int:
    # maximal isotropic subspaces of F_2^{2n}: prod_{k=1..n} (2^k + 1)
    count = 1
    for k in range(1, n + 1):
        count *= 2**k + 1
    return count


def size_bound(n: int, m: int) -> int:
    """Computable envelope on the vertex count for any set with these n, m.

    A subset has at most 2^min(n, m) sign assignments.  The maximal
    commuting subsets number at most 3^(m//3 + 1), and at most the count
    of maximal isotropic subspaces: each lies in one, and two in the same
    one would commute with each other, against their maximality.
    """
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    return 2 ** min(n, m) * min(3 ** (m // 3 + 1), _isotropic_subspace_count(n))
