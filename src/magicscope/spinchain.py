"""Spin-chain Hamiltonians, ground states, and parameter sweeps.

Hamiltonians are kept as weighted Pauli-string term lists.  All three
chain models commute with the spin flip X^n, so H splits into two real
CSR blocks of size 2^(n-1), one per flip sector, whose index pattern
(``SectorPattern``) a sweep builds once; each point only sums its terms'
fixed entry arrays.  Seeded Lanczos (``eigsh``) runs on the blocks give
the ground state at every chain size, then one deflation loop gives the
gap and the ground space, lifted back to 2^n; a diagonal H (every term a
Z-string) has its ground space read off its diagonal.  Every ``eigsh``
run sees one operator, ``_SectorOperator``, whose product calls scipy's
CSR kernel on the block's arrays directly and adds the deflation's
rank-1 terms.

The expectations are those of the T -> 0 Gibbs state, tr(P Pi)/d over
the d-dimensional ground space: the ground state's own at d = 1, and at
a degenerate point an average that, unlike any one eigenvector, does not
depend on the Lanczos seed and commutes with every qubit symmetry of H.
``GroundStateResult.expectations`` takes a point's whole measurement set
in one ``pauli.pauli_expectations`` pass.
The sweep driver reuses a single reduced-polytope V-representation
across a parameter grid and reports one record per grid point.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csr_matvec

from .pauli import MeasurementSet, PauliString, hermitian, pauli_expectations, z_signs
from .pauli import pauli_expectation  # re-exported: perfbench imports it from this module
from .polytope import VertexSet
from .rom import LP_TOLERANCE, ExpectationVector, reduced_rom

__all__ = [
    "SpinChainSpec",
    "GroundStateResult",
    "SweepRecord",
    "build_hamiltonian",
    "SectorPattern",
    "ground_state",
    "hamiltonian_measurement_set",
    "sweep",
    "sweep_records",
    "EIG_TOLERANCE",
    "DEGENERACY_THRESHOLD",
    "GROUND_SPACE_CAP",
]

EIG_TOLERANCE = 1e-10
_SEED = 1234  # of the Lanczos starts, in ground_state and sweep
DEGENERACY_THRESHOLD = 1e-8
# the largest ground space a non-diagonal H deflates out, one Lanczos solve
# per level: it holds the XXZ ferromagnetic multiplet at delta = -1, h = 0,
# d = n + 1 = 15 at n = 14 (0.7 s, 8 levels in one flip sector and 7 in the
# other); the test and benchmark grids reach d = 4
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

    def expectations(self, paulis: Iterable[PauliString]) -> Tuple[float, ...]:
        """tr(P Pi)/d over the ground space for each P; ``pauli_expectation(state, P)`` at d = 1."""
        space = self.ground_space
        if space.ndim == 2:
            return pauli_expectations(self.state if self.dimension == 1 else space, paulis)
        values = []
        for p in paulis:
            if not p.is_hermitian:
                raise ValueError("expectation requires a Hermitian Pauli")
            if self.state.size != 2**p.n:
                raise ValueError("state length does not match qubit count")
            if p.xbits:  # maps every basis state off the ground space
                values.append(0.0)
            else:
                values.append(float((1j**p.phase_k).real * z_signs(space, p.zbits).mean()))
        return tuple(values)


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


class SectorPattern:
    """The CSR index pattern of H = sum_j w_j P_j over fixed Paulis P_j, split by spin-flip parity.

    When every P_j commutes with the spin flip F = X^n (an even count of
    Y and Z factors, as XX, YY, ZZ and X), H has one block per F sector
    s = +1, -1, of size 2^(n-1), in the basis (|r> + s|~r>)/sqrt(2) over
    r < 2^(n-1), ~r flipping every qubit.  P_j, X-part x_j, takes the
    state of c to a signed one of c ^ x_j, or of its partner, at the price
    of a factor s, when x_j flips the top qubit.  An H with a term odd
    under F is one block, H itself.  Terms that share an X-part share an
    entry of every row, so the Paulis fix the pattern, and a point's
    entries are sum_j w_j D_j over fixed per-term arrays D_j.
    """

    def __init__(self, paulis: Iterable[PauliString]):
        self.slot = {p: j for j, p in enumerate(dict.fromkeys(paulis))}
        n = next(iter(self.slot)).n
        if n > 14:
            raise ValueError("exact diagonalization capped at 14 qubits")
        even = all(p.zbits.bit_count() % 2 == 0 for p in self.slot)
        self.signs = (1.0, -1.0) if even else (1.0,)
        top = 1 << (n - 1) if even else 0
        self.xparts = sorted({p.xbits for p in self.slot})
        # cols[r, g]: the column X-part g fills in row r
        folded = [x ^ (2 * top - 1) if x & top else x for x in self.xparts]
        self.cols = np.arange(2**n >> even, dtype=np.int32)[:, None] ^ np.array(folded, np.int32)
        # flips[i, g]: the factor sector signs[i] puts on X-part g
        self.flips = np.array([[s if x & top else 1.0 for x in self.xparts] for s in self.signs])
        real = all(p.phase_k % 2 == 0 for p in self.slot)
        self.group = [self.xparts.index(p.xbits) for p in self.slot]
        # per_term[j]: D_j, one entry per row, in column group[j]
        self.per_term = np.array([
            ((1j**p.phase_k).real if real else 1j**p.phase_k) * z_signs(self.cols[:, g], p.zbits)
            for p, g in zip(self.slot, self.group)
        ])

    def _entries(self, terms: TermList) -> np.ndarray:
        """sum_j w_j D_j as a rows x width array, one column per X-part."""
        entries = np.zeros(self.cols.shape[::-1], self.per_term.dtype)
        for weight, p in terms:
            j = self.slot[p]
            entries[self.group[j]] += weight * self.per_term[j]
        return np.ascontiguousarray(entries.T)  # row by row, as CSR keeps them

    def blocks(self, terms: TermList) -> List[sp.csr_matrix]:
        """One CSR block of H per sector, in the order of ``signs``."""
        entries = self._entries(terms)
        rows, width = entries.shape
        # drop the exact cancellations (XX + YY), a fifth of the
        # matrix-vector cost at XXZ n = 12, and the terms absent at this point
        keep = np.flatnonzero(entries != 0)
        cols = self.cols.take(keep)
        indptr = np.searchsorted(keep, np.arange(0, entries.size + 1, width)).astype(np.int32)
        return [
            sp.csr_matrix(((entries * flip).take(keep), cols, indptr), shape=(rows, rows))
            for flip in self.flips
        ]

    def diagonal(self, terms: TermList) -> np.ndarray:
        """The computational-basis diagonal of an H of Z-strings."""
        d = self._entries(terms)[:, self.xparts.index(0)].real
        # ~r = 2^n - 1 - r has the diagonal entry of r
        return np.concatenate([d, d[::-1]]) if len(self.signs) == 2 else d

    def lift(self, vecs: np.ndarray, sign: float) -> np.ndarray:
        """Vectors (along axis 0) of the block of sector ``sign`` as 2^n vectors."""
        if len(self.signs) == 1:
            return vecs
        return np.concatenate([vecs, sign * vecs[::-1]]) / math.sqrt(2.0)


class _SectorOperator(spla.LinearOperator):
    """B + sigma Q on a CSR block B, Q projecting onto the orthonormal rows of ``basis``.

    ARPACK asks for one product per Lanczos iteration.  This one calls
    ``csr_matvec`` on B's arrays, as ``B @ v`` does behind scipy's sparse
    dispatch, which ``eigsh`` on a bare CSR block also pays: about half of
    a 512-row product.  The arithmetic is that of ``B @ v``, so the
    eigenpairs are bit for bit those of ``eigsh`` on B.
    """

    def __init__(self, block: sp.csr_matrix, basis: Sequence[np.ndarray] = (), sigma: float = 0.0):
        super().__init__(block.dtype, block.shape)
        self.block = block
        self.basis = basis
        self.sigma = sigma

    def _matvec(self, v):
        v = v.ravel()
        rows, cols = self.shape
        h = self.block
        out = np.zeros(rows, np.result_type(self.dtype, v.dtype))
        csr_matvec(rows, cols, h.indptr, h.indices, h.data, v, out)
        for f in self.basis:  # rank-1 terms: a block matmul costs more per matvec at d = 1
            out += (self.sigma * np.vdot(f, v)) * f
        return out


def _lowest(op: _SectorOperator, v0: np.ndarray) -> Tuple[float, np.ndarray]:
    evals, evecs = spla.eigsh(op, k=1, which="SA", tol=EIG_TOLERANCE, v0=v0, maxiter=5000)
    return float(evals[0]), evecs[:, 0]


def _diagonal_ground_state(diagonal: np.ndarray) -> GroundStateResult:
    """Ground space of a diagonal H: basis states within DEGENERACY_THRESHOLD of its minimum."""
    e0 = float(diagonal.min())
    state = np.zeros(diagonal.size)
    state[np.argmin(diagonal)] = 1.0
    gap = float(np.partition(diagonal, 1)[1]) - e0
    return GroundStateResult(e0, state, gap, np.flatnonzero(diagonal < e0 + DEGENERACY_THRESHOLD))


def _ground_state(pattern: SectorPattern, terms: TermList, seed: int) -> GroundStateResult:
    if all(p.xbits == 0 for _, p in terms):
        return _diagonal_ground_state(pattern.diagonal(terms))
    rng = np.random.default_rng(seed)
    blocks = pattern.blocks(terms)
    lowest = [_lowest(_SectorOperator(h), rng.normal(size=h.shape[0])) for h in blocks]
    levels = [level for level, _ in lowest]
    e0 = min(levels)
    # sigma exceeds the spectral width: E_max <= sum |w| and E0 >= -sum |w|
    sigma = sum(abs(w) for w, _ in terms) - e0 + 1.0
    # found[i]: block i's ground-space vectors; live while its last level was one
    found = [[vec] if level - e0 < DEGENERACY_THRESHOLD else [] for level, vec in lowest]
    live = [bool(f) for f in found]
    while any(live):
        d = sum(map(len, found))
        if d > GROUND_SPACE_CAP:
            raise ValueError(f"ground space of dimension d >= {d} exceeds {GROUND_SPACE_CAP}")
        for i, h in enumerate(blocks):
            if not live[i]:
                continue
            basis = np.linalg.qr(np.column_stack(found[i]))[0].T
            # a fresh start each round: Lanczos from the first one only reaches
            # psi0 inside the ground space, so it would miss a degenerate partner
            level, vec = _lowest(_SectorOperator(h, basis, sigma), rng.normal(size=h.shape[0]))
            levels.append(level)
            live[i] = level - e0 < DEGENERACY_THRESHOLD
            if live[i]:
                found[i].append(vec)
    # levels holds every level within the threshold and each block's first above it
    gap = max(0.0, sorted(levels)[1] - e0)
    first = levels.index(e0)
    psi0 = lowest[first][1]
    state = pattern.lift(psi0 / np.linalg.norm(psi0), pattern.signs[first])
    if sum(map(len, found)) == 1:
        return GroundStateResult(e0, state, gap, state[:, None])
    space = [pattern.lift(np.linalg.qr(np.column_stack(f))[0], sign)
             for f, sign in zip(found, pattern.signs) if f]
    return GroundStateResult(e0, state, gap, np.hstack(space))


def ground_state(terms: TermList, seed: int = _SEED) -> GroundStateResult:
    """Lowest level, gap estimate and ground space of a Pauli-term H.

    A diagonal H (every term a Z-string) takes its ground space exactly,
    as the basis states whose diagonal entry lies within
    DEGENERACY_THRESHOLD of the minimum, with no eigensolver.  Any other
    H is split into its spin-flip sector blocks (``SectorPattern``; one
    block when a term is odd under the flip) and takes seeded Lanczos
    runs on them at every chain size: one for each block's lowest level,
    E0 the lower of the two, then one deflation loop over the blocks
    whose lowest level lies within DEGENERACY_THRESHOLD of E0.  Each
    round solves such a block's B + sigma Q, where Q projects onto the
    levels it has given so far, so that sigma lifts them above the
    spectrum; a block leaves the loop at its first level that clears the
    threshold.  The gap is the next level above E0 across the blocks, so
    a degeneracy between the sectors is found from the two minima alone.
    The ground-space columns are the blocks' vectors lifted back to 2^n;
    one larger than GROUND_SPACE_CAP raises a ValueError that names d.
    """
    if not terms:
        raise ValueError("empty term list")
    return _ground_state(SectorPattern(p for _, p in terms), terms, seed)


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


def sweep_records(
    spec: SpinChainSpec,
    grid: Sequence[Dict[str, float]],
    measurements: MeasurementSet,
    vset: VertexSet,
    threads: int = 1,
    lp_tolerance: float = LP_TOLERANCE,
) -> Iterator[SweepRecord]:
    """One record per grid point, yielded in grid order as each finishes;
    eigensolver failures are recorded, not raised.

    A point's expectations come from one ``GroundStateResult.expectations``
    pass: the ground state's at a non-degenerate point, the ground-space
    average tr(P Pi)/d at a flagged one.  A ground space above
    GROUND_SPACE_CAP gives an error record.
    """

    # every point's H fills the pattern of the model's structural terms
    pattern = SectorPattern(p for _, p in _structural_terms(spec))

    def run(point: Dict[str, float]) -> SweepRecord:
        try:
            terms = build_hamiltonian(spec.with_params(point))
            gs = _ground_state(pattern, terms, _SEED)
            expectations = gs.expectations(measurements)
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
            yield from pool.map(run, grid)  # in grid order
    else:
        # in the caller: a pool worker's own glibc malloc arena raised the peak RSS
        # of a one-thread ANNNI n=10 sweep from 195 to 215 MB (Linux, 2 vCPUs)
        yield from map(run, grid)


def sweep(
    spec: SpinChainSpec,
    grid: Sequence[Dict[str, float]],
    measurements: MeasurementSet,
    vset: VertexSet,
    threads: int = 1,
    lp_tolerance: float = LP_TOLERANCE,
) -> List[SweepRecord]:
    """``sweep_records`` as a list."""
    return list(sweep_records(spec, grid, measurements, vset, threads, lp_tolerance))
