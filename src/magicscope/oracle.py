"""Brute-force ground truth at small qubit counts.

Enumerates every maximal-rank stabilizer group (n <= 4), evaluates
Pauli expectations group-theoretically, projects all pure stabilizer
states onto a measurement set, and computes the full robustness LP over
the complete stabilizer polytope.  Everything here is test support: the
costs are exponential and deliberately unoptimized beyond feasibility.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np
from scipy.optimize import linprog

from .pauli import MeasurementSet, PauliString, hermitian, identity, multiply, pauli_expectations
from .polytope import _isotropic_subspace_count
from .rom import DECISION_TOLERANCE, LP_TOLERANCE

__all__ = [
    "StabilizerGroup",
    "enumerate_stabilizer_groups",
    "stabilizer_group_count",
    "stabilizer_expectation",
    "topdown_vertices",
    "full_rom",
    "hull_equal",
    "hull_contains",
    "pauli_basis",
    "full_pauli_table",
    "random_pure_state",
    "ORACLE_MAX_QUBITS",
    "ORACLE_PROJECTION_MAX_QUBITS",
]

ORACLE_MAX_QUBITS = 4
# cap of topdown_vertices and full_rom, which project every stabilizer state;
# the CLI's oracle checks other than counts take it too
ORACLE_PROJECTION_MAX_QUBITS = 3


@dataclass(frozen=True)
class StabilizerGroup:
    n: int
    generators: Tuple[PauliString, ...]
    elements: Tuple[PauliString, ...]

    @functools.cached_property
    def _lookup(self) -> Dict[Tuple[int, int], int]:
        return {(p.xbits, p.zbits): p.phase_k for p in self.elements}


def _symplectic_product(e1: int, e2: int, n: int) -> int:
    mask = (1 << n) - 1
    x1, z1 = e1 >> n, e1 & mask
    x2, z2 = e2 >> n, e2 & mask
    return ((x1 & z2).bit_count() + (x2 & z1).bit_count()) % 2


def _isotropic_subspaces(n: int) -> List[Tuple[int, ...]]:
    """Canonical generator tuples of all maximal isotropic subspaces, one per subspace."""
    results: List[Tuple[int, ...]] = []

    def extend(gens: List[int], span: Set[int]) -> None:
        if len(gens) == n:
            results.append(tuple(gens))
            return
        start = gens[-1] + 1 if gens else 1
        for e in range(start, 1 << (2 * n)):
            if e in span:
                continue
            if any(_symplectic_product(e, g, n) for g in gens):
                continue
            # only the greedy-minimal basis survives: e must be the
            # smallest of the elements it newly adds to the span
            if any((e ^ s) < e for s in span if s):
                continue
            extend(gens + [e], span | {e ^ s for s in span})

    extend([], {0})
    return results


def _pauli_from_encoding(e: int, n: int, negate: bool) -> PauliString:
    return hermitian(n, e >> n, e & ((1 << n) - 1), negate)


@functools.lru_cache(maxsize=None)
def enumerate_stabilizer_groups(n: int) -> Tuple[StabilizerGroup, ...]:
    """All 2^n prod_k (2^k + 1) maximal stabilizer groups, deduplicated."""
    if not 1 <= n <= ORACLE_MAX_QUBITS:
        raise ValueError(f"oracle enumeration capped at n <= {ORACLE_MAX_QUBITS}")
    groups: List[StabilizerGroup] = []
    for gens_enc in _isotropic_subspaces(n):
        for sign_bits in range(1 << n):
            gens = tuple(
                _pauli_from_encoding(e, n, bool((sign_bits >> i) & 1))
                for i, e in enumerate(gens_enc)
            )
            elements = []
            for subset in range(1 << n):
                prod = identity(n)
                for i in range(n):
                    if (subset >> i) & 1:
                        prod = multiply(prod, gens[i])
                elements.append(prod)
            groups.append(StabilizerGroup(n, gens, tuple(elements)))
    return tuple(groups)


def stabilizer_group_count(n: int) -> int:
    return 2**n * _isotropic_subspace_count(n)


def stabilizer_expectation(group: StabilizerGroup, p: PauliString) -> int:
    """<P> on the stabilizer state: 1[P in S] - 1[-P in S]."""
    if p.n != group.n:
        raise ValueError("qubit counts differ")
    stored = group._lookup.get((p.xbits, p.zbits))
    if stored is None:
        return 0
    return 1 if stored == p.phase_k else -1


def topdown_vertices(measurements: MeasurementSet) -> Set[Tuple[int, ...]]:
    """Project every pure stabilizer state onto the measurement set (n <= 3)."""
    n = measurements.n
    if n > ORACLE_PROJECTION_MAX_QUBITS:
        raise ValueError(f"top-down projection capped at n <= {ORACLE_PROJECTION_MAX_QUBITS}")
    vectors = set()
    for group in enumerate_stabilizer_groups(n):
        vectors.add(tuple(stabilizer_expectation(group, p) for p in measurements))
    return vectors


@functools.lru_cache(maxsize=None)
def pauli_basis(n: int) -> Tuple[PauliString, ...]:
    """Canonical Hermitian representatives of all 4^n unsigned Paulis.

    Ordered by (xbits, zbits) lexicographically; index 0 is the identity.
    """
    return tuple(hermitian(n, x, z) for x in range(1 << n) for z in range(1 << n))


def full_pauli_table(state: np.ndarray) -> np.ndarray:
    """All 4^n Pauli expectations of a pure state, canonical order."""
    n = int(math.log2(state.size))
    if 2**n != state.size:
        raise ValueError("state length is not a power of two")
    return np.array(pauli_expectations(state, pauli_basis(n)))


@functools.lru_cache(maxsize=None)
def _full_lp_matrix(n: int) -> np.ndarray:
    groups = enumerate_stabilizer_groups(n)
    basis = pauli_basis(n)
    a = np.empty((len(basis), len(groups)))
    for j, group in enumerate(groups):
        for i, p in enumerate(basis):
            a[i, j] = stabilizer_expectation(group, p)
    return a


def full_rom(pauli_table: Sequence[float], n: int) -> float:
    """Robustness over the complete stabilizer polytope (Eq.-4-style LP)."""
    if n > ORACLE_PROJECTION_MAX_QUBITS:
        raise ValueError(f"full robustness oracle capped at n <= {ORACLE_PROJECTION_MAX_QUBITS}")
    b = np.asarray(pauli_table, dtype=float)
    if b.size != 4**n:
        raise ValueError("expectation table must have length 4^n")
    a = _full_lp_matrix(n)
    n_groups = a.shape[1]
    a_eq = np.hstack([a, -a])
    cost = np.ones(2 * n_groups)
    res = linprog(
        cost,
        A_eq=a_eq,
        b_eq=b,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": LP_TOLERANCE},
    )
    if res.status == 2:
        raise ValueError("expectation table is not consistent with any state")
    if res.status != 0:
        raise RuntimeError(f"full robustness LP failed with status {res.status}: {res.message}")
    return float(res.fun)


def hull_contains(
    points: Iterable[Sequence[float]], hull_points: Sequence[Sequence[float]]
) -> bool:
    """Every point within DECISION_TOLERANCE (inf-norm) of the convex hull of hull_points.

    One dense LP over every hull point per point, solved at ``LP_TOLERANCE``
    and decided at the tolerance of ``RomResult.member``; a failed LP raises
    a RuntimeError, not a verdict.
    """
    hull = np.asarray(list(hull_points), dtype=float)
    n_vert, dim = hull.shape
    cost = np.zeros(n_vert + 1)
    cost[-1] = 1.0
    a_eq = np.zeros((1, n_vert + 1))
    a_eq[0, :n_vert] = 1.0
    a_ub = np.zeros((2 * dim, n_vert + 1))
    a_ub[:dim, :n_vert] = hull.T
    a_ub[dim:, :n_vert] = -hull.T
    a_ub[:, -1] = -1.0
    for point in points:
        b = np.asarray(point, dtype=float)
        res = linprog(
            cost,
            A_ub=a_ub,
            b_ub=np.concatenate([b, -b]),
            A_eq=a_eq,
            b_eq=[1.0],
            bounds=(0, None),
            method="highs",
            options={"primal_feasibility_tolerance": LP_TOLERANCE},
        )
        if res.status != 0:
            raise RuntimeError(f"hull membership LP failed with status {res.status}: {res.message}")
        if float(res.fun) > DECISION_TOLERANCE:
            return False
    return True


def hull_equal(a: Iterable[Sequence[float]], b: Iterable[Sequence[float]]) -> bool:
    a = [tuple(p) for p in a]
    b = [tuple(p) for p in b]
    return hull_contains(a, b) and hull_contains(b, a)


def measurement_expectations(
    pauli_table: Sequence[float], measurements: MeasurementSet
) -> List[float]:
    """Slice a full canonical-order table down to a measurement set."""
    n = measurements.n
    table = np.asarray(pauli_table, dtype=float)
    out = []
    for p in measurements:
        sign = 1.0 if p == hermitian(n, p.xbits, p.zbits) else -1.0
        out.append(sign * float(table[(p.xbits << n) | p.zbits]))
    return out


def random_pure_state(n: int, rng: np.random.Generator) -> np.ndarray:
    vec = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return vec / np.linalg.norm(vec)
