"""Spin-chain Hamiltonians, ground states, and parameter sweeps.

Hamiltonians are kept as weighted Pauli-string term lists.  All three
chain models commute with the spin flip X^n, so H splits into two real
CSR blocks of size 2^(n-1), one per flip sector, whose index pattern
(``SectorPattern``) a sweep builds once; each point only sums its terms'
fixed entry arrays.  One loop of seeded Lanczos rounds on the blocks, the
first undeflated, gives the ground state, the gap and the ground space,
lifted back to 2^n; a diagonal H (every term a Z-string) has its ground
space read off its diagonal.  A run (``_lowest``) is the plain three-term
recurrence on scipy's CSR kernel, with no restart or reorthogonalisation;
ARPACK's rule stops it, one more product checks it.

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
import mmap
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import get_blas_funcs  # in place: a numpy update costs 2-6 times more
from scipy.linalg.lapack import dstemr
from scipy.sparse._sparsetools import csr_matvec

from .pauli import MeasurementSet, PauliString, hermitian, pauli_expectations, z_signs
from .pauli import pauli_expectation  # re-exported: perfbench imports it from this module
from .polytope import VertexSet
from .rom import ExpectationVector, reduced_rom

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
_SEED = 1234  # of every Lanczos start
_MAX_QUBITS = 14  # of a chain, and of an H that ground_state diagonalizes
DEGENERACY_THRESHOLD = 1e-8
# the largest ground space a non-diagonal H deflates out, one Lanczos solve
# per level: it holds the XXZ ferromagnetic multiplet at delta = -1, h = 0,
# d = n + 1 = 15 at n = 14 (0.25 s, 8 levels in one flip sector and 7 in the
# other); the test and benchmark grids reach d = 4
GROUND_SPACE_CAP = 16
# _lowest tests its Ritz pair every _CHECK_EVERY steps: a test took 0.37 j us at step j, a
# step 17-50 us, and 6 to 16 steps ran within 5% on both benchmark grids (4: 10% slower)
_CHECK_EVERY = 8
_KRYLOV_CAP = 1000  # its steps: no run on both grids or at five n = 14 points took over 168
_RESIDUAL_SLACK = 10.0  # over the stop rule's bound: residuals read at most 1.00 x on both grids
# Each model once, as bond groups of (qubit offsets, terms): a term is a Pauli
# kind on every offset, the coupling that scales it (None: none; an absent one
# is 0.0) and a scale.  Group by group, site by site, each site's terms: the
# term order, and so the all-terms measurement order.
MODELS = {
    "tfim": (((0, 1), (("z", None, -1.0),)), ((0,), (("x", "g", -1.0),))),
    "annni": (((0, 1), (("z", None, -1.0),)), ((0, 2), (("z", "k", 1.0),)),
              ((0,), (("x", "g", -1.0),))),
    "xxz": (((0, 1), (("x", None, 0.25), ("y", None, 0.25), ("z", "delta", 0.25))),
            ((0,), (("x", "h", -0.5),))),
}
COUPLINGS = {model: tuple(c for _, terms in groups for _, c, _ in terms if c)
             for model, groups in MODELS.items()}

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
        if not 3 <= self.n <= _MAX_QUBITS:
            raise ValueError(f"qubit count must be in [3, {_MAX_QUBITS}]")
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
            return pauli_expectations(space, paulis)
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
    """Every term of the model with its weight (weights may be zero), in ``MODELS`` order."""
    n = spec.n
    # an open chain keeps the bonds that do not wrap
    return [
        (scale if c is None else scale * float(spec.params.get(c, 0.0)),
         _on(n, kind, *[(i + o) % n for o in offsets]))
        for offsets, group in MODELS[spec.model]
        for i in range(n if spec.boundary == "periodic" else n - max(offsets))
        for kind, c, scale in group
    ]


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
        if n > _MAX_QUBITS:
            raise ValueError(f"exact diagonalization capped at {_MAX_QUBITS} qubits")
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

    @cached_property
    def krylov(self) -> np.ndarray:
        """The Lanczos rows of every run on the blocks, in an anonymous mapping whose
        4 KB pages cost memory once a run writes them (numpy would ask for 2 MB pages)."""
        rows, dtype = len(self.cols), self.per_term.dtype
        size = (min(rows, _KRYLOV_CAP) + 1) * rows * dtype.itemsize
        return np.frombuffer(mmap.mmap(-1, size), dtype).reshape(-1, rows)

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


def _lowest(block: sp.csr_matrix, v0: np.ndarray, basis: np.ndarray,
            deflation: Sequence[np.ndarray] = (), sigma: float = 0.0) -> Tuple[float, np.ndarray]:
    """Lowest eigenpair (theta, unit x) of B + sigma Q, Q projecting onto the orthonormal
    ``deflation`` rows, by Lanczos from v0 (module docstring) in the rows of ``basis``."""
    rows = block.shape[0]
    axpy, dotc, nrm2, scal = get_blas_funcs(("axpy", "dotc", "nrm2", "scal"), (block.data,))

    def product(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        out.fill(0)  # csr_matvec adds to out
        csr_matvec(rows, rows, block.indptr, block.indices, block.data, v, out)
        for f in deflation:  # rank-1 terms: a block matmul costs more per step at d = 1
            axpy(f, out, a=sigma * dotc(f, v))
        return out

    q, previous, alphas, betas, scale = basis[0], None, [], [], 0.0
    q[:] = v0 / np.linalg.norm(v0)  # every row read below is written first
    for j in range(min(rows, len(basis) - 1)):
        w = product(q, basis[j + 1])
        if j:
            axpy(previous, w, a=-betas[-1])
        alphas.append(dotc(q, w).real)
        axpy(q, w, a=-alphas[-1])
        betas.append(nrm2(w))
        scale = max(scale, abs(alphas[-1]), betas[-1])
        stop = j + 1 == rows or betas[-1] <= EIG_TOLERANCE * scale  # the end, or a breakdown
        if stop or (j + 1) % _CHECK_EVERY == 0:  # dstemr ignores the last beta
            _, theta, s, _ = dstemr(np.array(alphas), np.array(betas), 2, 0.0, 0.0, 1, 1)
            theta, s = float(theta[0]), s[:, 0]
            if stop or betas[-1] * abs(s[-1]) <= EIG_TOLERANCE * abs(theta):  # ARPACK's rule
                break
        scal(1.0 / betas[-1], w)
        q, previous = w, q
    else:
        raise ValueError(f"Lanczos found no eigenpair within its cap of {len(basis) - 1} steps")
    x = s @ basis[:len(s)]
    x /= np.linalg.norm(x)
    residual = np.linalg.norm(product(x, np.empty_like(x)) - theta * x)
    limit = _RESIDUAL_SLACK * max(EIG_TOLERANCE * abs(theta), np.finfo(float).eps * scale)
    if not residual <= limit:  # NaN fails; rounding passes where theta ~ 0
        raise ValueError(f"Lanczos eigen-residual {residual:.3g} exceeds {limit:.3g}")
    return theta, x


def _diagonal_ground_state(diagonal: np.ndarray) -> GroundStateResult:
    """Ground space of a diagonal H: basis states within DEGENERACY_THRESHOLD of its minimum."""
    e0 = float(diagonal.min())
    state = np.zeros(diagonal.size)
    state[np.argmin(diagonal)] = 1.0
    gap = float(np.partition(diagonal, 1)[1]) - e0
    return GroundStateResult(e0, state, gap, np.flatnonzero(diagonal < e0 + DEGENERACY_THRESHOLD))


def _ground_state(pattern: SectorPattern, terms: TermList) -> GroundStateResult:
    if all(p.xbits == 0 for _, p in terms):
        return _diagonal_ground_state(pattern.diagonal(terms))
    rng = np.random.default_rng(_SEED)
    blocks = pattern.blocks(terms)
    # found[i]: block i's ground-space vectors and rows[i] their orthonormal rows; round 0
    # solves every block, each later round those whose last level was within the threshold
    found, rows = [[] for _ in blocks], [()] * len(blocks)
    levels, live, sigma = [], range(len(blocks)), 0.0
    while live:
        d = sum(map(len, found))
        if d > GROUND_SPACE_CAP:
            raise ValueError(f"ground space of dimension d >= {d} exceeds {GROUND_SPACE_CAP}")
        # a fresh start each round: Lanczos from the first one only reaches
        # psi0 inside the ground space, so it would miss a degenerate partner
        solved = {i: _lowest(blocks[i], rng.normal(size=blocks[i].shape[0]), pattern.krylov,
                             rows[i], sigma) for i in live}
        levels += [level for level, _ in solved.values()]
        if not d:  # round 0: E0 is the least block minimum
            e0 = min(levels)
            # sigma exceeds the spectral width: E_max <= sum |w| and E0 >= -sum |w|
            sigma = sum(abs(w) for w, _ in terms) - e0 + 1.0
        live = [i for i, (level, _) in solved.items() if level - e0 < DEGENERACY_THRESHOLD]
        for i in live:
            found[i].append(solved[i][1])
            rows[i] = np.linalg.qr(np.column_stack(found[i]))[0].T.copy()  # rows for BLAS
    # levels holds every level within the threshold and each block's first above it
    gap = max(0.0, sorted(levels)[1] - e0)
    first = levels.index(e0)  # a round-0 level: its block's first vector is the state
    state = pattern.lift(found[first][0], pattern.signs[first])
    if d == 1:  # the last round found no vector, so d counts them all
        return GroundStateResult(e0, state, gap, state[:, None])
    space = [pattern.lift(r.T, sign) for r, sign in zip(rows, pattern.signs) if len(r)]
    return GroundStateResult(e0, state, gap, np.hstack(space))


def ground_state(terms: TermList) -> GroundStateResult:
    """Lowest level, gap estimate and ground space of a Pauli-term H.

    A diagonal H (every term a Z-string) takes its ground space exactly,
    as the basis states whose diagonal entry lies within
    DEGENERACY_THRESHOLD of the minimum, with no eigensolver.  Any other
    H is split into its spin-flip sector blocks (``SectorPattern``; one
    block when a term is odd under the flip) and takes one loop of seeded
    Lanczos runs (``_lowest``) on them.  Round 0 solves each block B, E0
    the least of those levels; each later round solves B + sigma Q for the
    blocks whose last level lay within DEGENERACY_THRESHOLD of E0, where
    Q projects onto the orthonormal rows of the vectors the block has
    given so far, so that sigma lifts them above the spectrum.  A block
    leaves the loop at its first level that clears the threshold.  The
    gap is the next level above E0 across the blocks, so a degeneracy
    between the sectors is found in round 0.  The ground-space columns
    are the blocks' last deflation rows lifted back to 2^n; a ValueError
    names d above GROUND_SPACE_CAP, or a run's residual or cap.
    """
    if not terms:
        raise ValueError("empty term list")
    return _ground_state(SectorPattern(p for _, p in terms), terms)


def hamiltonian_measurement_set(spec: SpinChainSpec, scope: str = "all-terms") -> MeasurementSet:
    """Measurements matching the Hamiltonian's term structure.

    "first-cell" keeps each bond group's terms at site 0, the first cell
    of "all-terms", which keeps every distinct Pauli in the term list.
    The Paulis carry no sign (weights live in the Hamiltonian).
    """
    if scope == "first-cell":
        groups = MODELS[spec.model]
        return MeasurementSet(tuple(_on(spec.n, kind, *offsets)
                                    for offsets, group in groups for kind, _, _ in group))
    if scope != "all-terms":
        raise ValueError(f"unknown scope {scope!r}")
    # dict.fromkeys keeps the first occurrence of each, in term order
    return MeasurementSet(tuple(dict.fromkeys(p for _, p in _structural_terms(spec))))


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
    vset: VertexSet,
) -> Iterator[SweepRecord]:
    """One record per grid point, yielded in grid order as each finishes, on
    the caller's thread; eigensolver failures are recorded, not raised.

    A point's expectations are those of ``vset.measurements``, the set
    whose polytope the LP solves over, from one
    ``GroundStateResult.expectations`` pass: the ground state's at a
    non-degenerate point, the ground-space average tr(P Pi)/d at a flagged
    one.  A ground space above GROUND_SPACE_CAP gives an error record.
    """

    # every point's H fills the pattern of the model's structural terms
    pattern = SectorPattern(p for _, p in _structural_terms(spec))

    def run(point: Dict[str, float]) -> SweepRecord:
        try:
            terms = build_hamiltonian(spec.with_params(point))
            gs = _ground_state(pattern, terms)
            expectations = gs.expectations(vset.measurements)
            result = reduced_rom(vset, ExpectationVector.of(expectations))
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

    # one thread: a point's CSR products and Lanczos steps mostly hold the
    # GIL, and a second thread slowed ANNNI n = 10 sweeps (README)
    yield from map(run, grid)


def sweep(
    spec: SpinChainSpec,
    grid: Sequence[Dict[str, float]],
    measurements: MeasurementSet,
    vset: VertexSet,
    threads: int = 1,
) -> List[SweepRecord]:
    """``sweep_records`` as a list; ``measurements`` must be ``vset.measurements``
    and ``threads`` 1, the one thread every sweep runs on."""
    if measurements != vset.measurements:
        raise ValueError("measurements differ from the vertex set's")
    if threads != 1:
        raise ValueError(f"a sweep runs on one thread, not {threads!r}")
    return list(sweep_records(spec, grid, vset))
