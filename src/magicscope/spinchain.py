"""Spin-chain Hamiltonians, ground states, and parameter sweeps.

Hamiltonians are kept as weighted Pauli-string term lists and turned
into one sparse CSR matrix, real for all three chain models.  Seeded
Lanczos (``eigsh``) runs on that matrix give the ground state at every
chain size, then one deflation loop gives the gap and the ground space;
a diagonal H (every term a Z-string) has its ground space read off its
diagonal.

The expectations are those of the T -> 0 Gibbs state, tr(P Pi)/d over
the d-dimensional ground space: the ground state's own at d = 1, and at
a degenerate point an average that, unlike any one eigenvector, does not
depend on the Lanczos seed and commutes with every qubit symmetry of H.
The sweep driver reuses a single reduced-polytope V-representation
across a parameter grid and reports one record per grid point.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .pauli import MeasurementSet, PauliString, hermitian, pauli_expectation, z_signs
from .polytope import VertexSet
from .rom import LP_TOLERANCE, ExpectationVector, reduced_rom

__all__ = [
    "SpinChainSpec",
    "GroundStateResult",
    "SweepRecord",
    "build_hamiltonian",
    "hamiltonian_matrix",
    "ground_state",
    "hamiltonian_measurement_set",
    "sweep",
    "EIG_TOLERANCE",
    "DEGENERACY_THRESHOLD",
    "GROUND_SPACE_CAP",
]

EIG_TOLERANCE = 1e-10
DEGENERACY_THRESHOLD = 1e-8
# the largest ground space a non-diagonal H deflates out, one Lanczos solve
# per level: it holds the XXZ ferromagnetic multiplet at delta = -1, h = 0,
# d = n + 1 = 15 at n = 14 (1.6 s); the test and benchmark grids reach d = 4
GROUND_SPACE_CAP = 16
COUPLINGS = {"tfim": ("g",), "annni": ("k", "g"), "xxz": ("delta", "h")}

TermList = List[Tuple[float, PauliString]]


@dataclass(frozen=True)
class SpinChainSpec:
    model: str
    n: int
    params: Dict[str, float] = field(default_factory=dict)
    boundary: str = "periodic"

    def __post_init__(self):
        if self.model not in COUPLINGS:
            raise ValueError(f"unknown model {self.model!r}")
        if not 3 <= self.n <= 14:
            raise ValueError("qubit count must be in [3, 14]")
        if self.boundary not in ("periodic", "open"):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        for key, val in self.params.items():
            if key not in COUPLINGS[self.model]:
                allowed = ", ".join(COUPLINGS[self.model])
                raise ValueError(f"{self.model} has no coupling {key!r} (takes {allowed})")
            if not math.isfinite(val):
                raise ValueError(f"coupling {key}={val} is not finite")
        if self.model == "annni" and self.boundary == "periodic" and self.n == 3:
            raise ValueError(
                "periodic annni needs n >= 4: at n = 3 the next-nearest bonds"
                " coincide with the nearest ones"
            )

    def with_params(self, params: Dict[str, float]) -> "SpinChainSpec":
        return SpinChainSpec(self.model, self.n, dict(params), self.boundary)


@dataclass(frozen=True)
class GroundStateResult:
    """The lowest level of H and its ground space.

    ``state`` is one unit eigenvector.  ``ground_space`` spans every level
    within DEGENERACY_THRESHOLD of ``energy``: orthonormal columns
    (``state[:, None]`` when d = 1) or, for a diagonal H, the indices of
    its basis states.
    """

    energy: float
    state: np.ndarray
    gap_estimate: float
    ground_space: np.ndarray

    @property
    def dimension(self) -> int:
        """d, the dimension of the ground space."""
        return self.ground_space.shape[-1]

    @property
    def degenerate_flag(self) -> bool:
        return self.dimension > 1

    def expectation(self, p: PauliString) -> float:
        """tr(P Pi)/d over the ground space; ``pauli_expectation(state, p)`` at d = 1."""
        space = self.ground_space
        if space.ndim == 2:
            # -0.0 is the start that leaves a lone column's value, sign of zero included
            return sum((pauli_expectation(v, p) for v in space.T), -0.0) / self.dimension
        if not p.is_hermitian:
            raise ValueError("expectation requires a Hermitian Pauli")
        if self.state.size != 2**p.n:
            raise ValueError("state length does not match qubit count")
        if p.xbits:  # maps every basis state off the ground space
            return 0.0
        return float((1j**p.phase_k).real * z_signs(space, p.zbits).mean())


def _on(n: int, kind: str, *qubits: int) -> PauliString:
    """The Hermitian Pauli with ``kind`` ("x", "y" or "z") on each of ``qubits``."""
    bits = 0
    for q in qubits:
        bits |= 1 << q
    return hermitian(n, bits if kind in "xy" else 0, bits if kind in "yz" else 0)


def _structural_terms(spec: SpinChainSpec) -> TermList:
    """Every term of the model with its weight (weights may be zero)."""
    n = spec.n
    periodic = spec.boundary == "periodic"
    terms: TermList = []
    if spec.model in ("tfim", "annni"):
        k = float(spec.params.get("k", 0.0))
        g = float(spec.params.get("g", 0.0))
        for i in range(n if periodic else n - 1):
            terms.append((-1.0, _on(n, "z", i, (i + 1) % n)))
        if spec.model == "annni":
            for i in range(n if periodic else n - 2):
                terms.append((k, _on(n, "z", i, (i + 2) % n)))
        for i in range(n):
            terms.append((-g, _on(n, "x", i)))
    else:  # xxz
        delta = float(spec.params.get("delta", 0.0))
        h = float(spec.params.get("h", 0.0))
        for i in range(n if periodic else n - 1):
            j = (i + 1) % n
            terms.append((0.25, _on(n, "x", i, j)))
            terms.append((0.25, _on(n, "y", i, j)))
            terms.append((0.25 * delta, _on(n, "z", i, j)))
        for i in range(n):
            terms.append((-0.5 * h, _on(n, "x", i)))
    return terms


def build_hamiltonian(spec: SpinChainSpec) -> TermList:
    """Weighted term list; duplicate Paulis merged, zero weights dropped."""
    merged: Dict[PauliString, float] = {}
    for weight, p in _structural_terms(spec):
        merged[p] = merged.get(p, 0.0) + weight
    return [(w, p) for p, w in merged.items() if w != 0.0]


def hamiltonian_matrix(terms: TermList, n: int) -> sp.csr_matrix:
    """H = sum_j w_j P_j as a CSR matrix in the computational basis.

    Terms sharing an X-part share a sparsity pattern (column c feeds row
    c ^ xbits), so each row holds one entry per distinct X-part.  The
    matrix is real whenever every term has an even phase exponent (all
    three chain models), complex otherwise.
    """
    real = all(p.phase_k % 2 == 0 for _, p in terms)
    xparts = sorted({p.xbits for _, p in terms})
    # cols[r, g] = r ^ xparts[g]: the one column of row r that X-part g fills
    cols = np.arange(2**n, dtype=np.int64)[:, None] ^ np.array(xparts, dtype=np.int64)
    data = np.zeros(cols.shape, dtype=float if real else complex)
    for weight, p in terms:
        g = xparts.index(p.xbits)
        phase = 1j**p.phase_k
        data[:, g] += weight * (phase.real if real else phase) * z_signs(cols[:, g], p.zbits)
    indptr = np.arange(0, cols.size + 1, len(xparts))
    h = sp.csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(2**n, 2**n))
    h.eliminate_zeros()
    return h


def _lowest(op, v0: np.ndarray) -> Tuple[float, np.ndarray]:
    evals, evecs = spla.eigsh(op, k=1, which="SA", tol=EIG_TOLERANCE, v0=v0, maxiter=5000)
    return float(evals[0]), evecs[:, 0]


def _diagonal_ground_state(diagonal: np.ndarray) -> GroundStateResult:
    """Ground space of a diagonal H: basis states within DEGENERACY_THRESHOLD of its minimum."""
    e0 = float(diagonal.min())
    state = np.zeros(diagonal.size)
    state[np.argmin(diagonal)] = 1.0
    gap = float(np.partition(diagonal, 1)[1]) - e0
    return GroundStateResult(e0, state, gap, np.flatnonzero(diagonal < e0 + DEGENERACY_THRESHOLD))


def ground_state(terms: TermList, seed: int = 1234) -> GroundStateResult:
    """Lowest level, gap estimate and ground space of a Pauli-term H.

    A diagonal H (every term a Z-string) takes its ground space exactly,
    as the basis states whose diagonal entry lies within
    DEGENERACY_THRESHOLD of the minimum, with no eigensolver.  Any other
    H takes seeded Lanczos runs at every chain size: one for the ground
    state psi0 of H, then one per round of a deflation loop.  Each round
    solves H + sigma Q, where Q projects onto the levels found so far, so
    that sigma lifts them above the spectrum.  The first round's level
    gives the gap, and an exactly degenerate partner of psi0 shows up as
    a zero gap.  The loop stops at the first level that clears the
    threshold; a ground space larger than GROUND_SPACE_CAP raises a
    ValueError that names d.
    """
    if not terms:
        raise ValueError("empty term list")
    n = terms[0][1].n
    if n > 14:
        raise ValueError("exact diagonalization capped at 14 qubits")
    h = hamiltonian_matrix(terms, n)
    if all(p.xbits == 0 for _, p in terms):
        return _diagonal_ground_state(h.diagonal())
    rng = np.random.default_rng(seed)
    e0, psi0 = _lowest(h, rng.normal(size=h.shape[0]))
    state = psi0 / np.linalg.norm(psi0)
    # sigma exceeds the spectral width: E_max <= sum |w| and E0 >= -sum |w|
    sigma = sum(abs(w) for w, _ in terms) - e0 + 1.0
    found, basis = [state], [psi0]  # the first round lifts psi0 as Lanczos returned it
    while len(found) <= GROUND_SPACE_CAP:
        def deflated(v):
            out = h @ np.ravel(v)
            for f in basis:  # rank-1 terms: a block matmul costs more per matvec at d = 1
                out += (sigma * np.vdot(f, v)) * f
            return out

        op = spla.LinearOperator(h.shape, matvec=deflated, dtype=h.dtype)
        # a fresh start each round: Lanczos from the first one only reaches
        # psi0 inside the ground space, so it would miss a degenerate partner
        level, vec = _lowest(op, rng.normal(size=h.shape[0]))
        if len(found) == 1:
            gap = max(0.0, level - e0)
        if level - e0 >= DEGENERACY_THRESHOLD:
            space = state[:, None] if len(found) == 1 else basis.T
            return GroundStateResult(e0, state, gap, space)
        found.append(vec)
        basis = np.linalg.qr(np.column_stack(found))[0].T
    raise ValueError(f"ground space of dimension d >= {len(found)} exceeds {GROUND_SPACE_CAP}")


def hamiltonian_measurement_set(spec: SpinChainSpec, scope: str = "all-terms") -> MeasurementSet:
    """Measurements matching the Hamiltonian's term structure.

    "first-cell" keeps one representative per term type on the lowest
    indices; "all-terms" keeps every distinct Pauli in the term list.
    Signs are stripped (weights live in the Hamiltonian).
    """
    n = spec.n
    if scope == "first-cell":
        if spec.model == "tfim":
            paulis = [_on(n, "z", 0, 1), _on(n, "x", 0)]
        elif spec.model == "annni":
            paulis = [_on(n, "z", 0, 1), _on(n, "z", 0, 2), _on(n, "x", 0)]
        else:
            paulis = [_on(n, "x", 0, 1), _on(n, "y", 0, 1), _on(n, "z", 0, 1), _on(n, "x", 0)]
        return MeasurementSet(tuple(paulis))
    if scope != "all-terms":
        raise ValueError(f"unknown scope {scope!r}")
    # dict.fromkeys keeps the first occurrence of each, in term order
    stripped = (hermitian(n, p.xbits, p.zbits) for _, p in _structural_terms(spec))
    return MeasurementSet(tuple(dict.fromkeys(stripped)))


@dataclass(frozen=True)
class SweepRecord:
    params: Dict[str, float]
    energy: Optional[float]
    gap_estimate: Optional[float]
    expectations: Optional[Tuple[float, ...]]
    rom: Optional[float]
    degenerate_flag: Optional[bool]
    solver_status: str
    cause: str = ""  # why the LP solver failed (RomResult.cause); not a CSV column


def sweep(
    spec: SpinChainSpec,
    grid: Sequence[Dict[str, float]],
    measurements: MeasurementSet,
    vset: VertexSet,
    threads: int = 1,
    lp_tolerance: float = LP_TOLERANCE,
) -> List[SweepRecord]:
    """One record per grid point; eigensolver failures are recorded, not raised.

    Each expectation is ``GroundStateResult.expectation``: the ground
    state's at a non-degenerate point, the ground-space average tr(P Pi)/d
    at a flagged one.  A ground space above GROUND_SPACE_CAP gives an
    error record.
    """

    def run(point: Dict[str, float]) -> SweepRecord:
        try:
            terms = build_hamiltonian(spec.with_params(point))
            gs = ground_state(terms)
            expectations = tuple(gs.expectation(p) for p in measurements)
            result = reduced_rom(
                vset, ExpectationVector.of(expectations), lp_tolerance=lp_tolerance
            )
            return SweepRecord(
                dict(point),
                gs.energy,
                gs.gap_estimate,
                expectations,
                result.rom,
                gs.degenerate_flag,
                result.status,
                result.cause,
            )
        except Exception as exc:  # per-point failures must not kill the sweep
            return SweepRecord(dict(point), None, None, None, None, None, f"error: {exc}")

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(run, grid))
    # in the caller: a pool worker's own glibc malloc arena raised the peak RSS
    # of a one-thread ANNNI n=10 sweep from 195 to 215 MB (Linux, 2 vCPUs)
    return [run(point) for point in grid]
