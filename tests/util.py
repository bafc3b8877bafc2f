"""Shared test helpers: dense matrices, a dense LP, an injected or loosened LP,
Clifford circuits and hypothesis strategies.

The dense constructions here are deliberately independent of the
package's own bit tricks so that tests compare two different codepaths.
"""

import json
import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st
from scipy.optimize import linprog

from magicscope.pauli import MeasurementSet, PauliString, format_pauli
from magicscope.rom import LP_TOLERANCE

_SINGLE = {
    (0, 0): np.eye(2, dtype=complex),
    (1, 0): np.array([[0, 1], [1, 0]], dtype=complex),
    (0, 1): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1], [1, 0]], dtype=complex),  # XZ
}


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of i^k X^a Z^b via per-qubit Kronecker products."""
    full = np.eye(1, dtype=complex)
    # basis-index bit i addresses qubit i+1, so qubit n is the most
    # significant factor and goes leftmost in the chain of krons
    for i in reversed(range(p.n)):
        x = (p.xbits >> i) & 1
        z = (p.zbits >> i) & 1
        full = np.kron(full, _SINGLE[(x, z)])
    return (1j**p.phase_k) * full


def dense_hamiltonian(terms) -> np.ndarray:
    """Dense sum of weighted Pauli-term matrices built from Kronecker factors."""
    return sum(weight * pauli_matrix(p) for weight, p in terms)


def sparse_pauli_matrix(p: PauliString) -> sp.csr_matrix:
    """``pauli_matrix`` as a sparse matrix, from the same Kronecker factors."""
    full = sp.identity(1, dtype=complex, format="csr")
    for i in reversed(range(p.n)):
        full = sp.kron(full, _SINGLE[((p.xbits >> i) & 1, (p.zbits >> i) & 1)], format="csr")
    return (1j**p.phase_k) * full


def solve_l1_dense(vmat: np.ndarray, b_eq: np.ndarray):
    """Full p - q split LP over every vertex; returns (fun, coefficients, status).

    The reference for the package's column-generation solver: one dense
    LP with all 2N columns, the primal read straight from its solution.
    """
    n_vert, m = vmat.shape
    a_eq = np.empty((m + 1, 2 * n_vert))
    a_eq[:m, :n_vert] = vmat.T
    a_eq[:m, n_vert:] = -vmat.T
    a_eq[m, :n_vert] = 1.0
    a_eq[m, n_vert:] = -1.0
    res = linprog(
        np.ones(2 * n_vert),
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=(0, None),
        method="highs",
        options={"primal_feasibility_tolerance": LP_TOLERANCE},
    )
    if res.status != 0:
        return math.nan, None, res.status
    return float(res.fun), res.x[:n_vert] - res.x[n_vert:], 0


def fail_highs(monkeypatch, module, status: int) -> None:
    """Patch ``module.linprog`` so that every solve reports HiGHS status ``status``."""
    solve = module.linprog

    def failing(*args, **kwargs):
        res = solve(*args, **kwargs)
        res.status, res.message = status, "injected"
        return res

    monkeypatch.setattr(module, "linprog", failing)


def loosen_highs(monkeypatch, module, tolerance: float) -> None:
    """Patch ``module.linprog`` so that every solve runs at primal and dual
    feasibility tolerance ``tolerance``; a loose one can leave a duality gap."""
    solve = module.linprog

    def loosened(*args, options, **kwargs):
        loose = {"primal_feasibility_tolerance": tolerance, "dual_feasibility_tolerance": tolerance}
        return solve(*args, options={**options, **loose}, **kwargs)

    monkeypatch.setattr(module, "linprog", loosened)


def span_rank(paulis) -> int:
    """GF(2) rank of the Paulis' symplectic vectors: log2 of the size of their span.

    Enumerates all 2^len subset XORs, so it is for a handful of Paulis only.
    """
    span = set()
    for bits in range(1 << len(paulis)):
        x = z = 0
        for j, p in enumerate(paulis):
            if (bits >> j) & 1:
                x ^= p.xbits
                z ^= p.zbits
        span.add((x, z))
    return len(span).bit_length() - 1


def vertex_json(vset) -> str:
    """The JSON vertex file from nested lists and one ``json.dumps`` call.

    The reference for ``VertexSet.write_json``: each row's context is read
    off the row itself (its non-zero columns and their values).
    """
    rows = vset.vertices.tolist()
    payload = {
        "m": vset.measurements.m,
        "measurements": [format_pauli(p) for p in vset.measurements],
        "vertices": rows,
        "contexts": [
            {"set": [j for j, v in enumerate(row) if v], "signs": [v for v in row if v]}
            for row in rows
        ],
    }
    return json.dumps(payload, indent=1)


def vertex_txt(vset) -> str:
    """The txt vertex file from nested lists: the reference for ``VertexSet.write_txt``."""
    rows = vset.vertices.tolist()
    return "\n".join(" ".join(str(c) for c in row) for row in rows) + "\n"


def fibres(vset) -> List[np.ndarray]:
    """Row indices of the vertices that project to each of ``vset.symmetry.points``.

    Each row's orbit sums come from an indicator matmul and are looked up
    in a dict of the points, so a row whose sums are no point raises
    KeyError.
    """
    reduction = vset.symmetry
    # int8 @ int16 sums in int16, exact: an orbit sum is at most m in magnitude
    indicator = np.eye(reduction.points.shape[1], dtype=np.int16)[reduction.orbits]
    sums = (vset.vertices @ indicator).tolist()
    index = {tuple(point): p for p, point in enumerate(reduction.points.astype(int).tolist())}
    rows: List[List[int]] = [[] for _ in reduction.points]
    for row, point in enumerate(sums):
        rows[index[tuple(point)]].append(row)
    return [np.array(r, dtype=np.intp) for r in rows]


def lift(vset, weights: np.ndarray) -> np.ndarray:
    """Vertex coefficients that spread each point's weight evenly over its fibre.

    The reference lift of symmetric-path ``RomResult.coefficients``,
    which are weights over ``vset.symmetry.points``.
    """
    coefficients = np.zeros(len(vset.vertices))
    for weight, rows in zip(weights, fibres(vset)):
        coefficients[rows] = weight / len(rows)
    return coefficients


# --- Clifford conjugation (symplectic update rules per gate) ---------------

_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_PHASE = np.array([[1, 0], [0, 1j]], dtype=complex)


@dataclass(frozen=True)
class CliffordCircuit:
    """A word in {H, S, CNOT}, applied left to right."""

    n: int
    gates: Tuple[Tuple, ...]  # ("h", q) | ("s", q) | ("cx", c, t)

    def conjugate(self, p: PauliString) -> PauliString:
        """C P C-dagger, staying in the symplectic representation."""
        if p.n != self.n:
            raise ValueError("qubit counts differ")
        k, x, z = p.phase_k, p.xbits, p.zbits
        for gate in self.gates:
            if gate[0] == "h":
                q = 1 << gate[1]
                if x & z & q:
                    k = (k + 2) % 4
                xq, zq = x & q, z & q
                x, z = (x & ~q) | zq, (z & ~q) | xq
            elif gate[0] == "s":
                q = 1 << gate[1]
                if x & q:
                    k = (k + 1) % 4
                    z ^= q
            else:
                c, t = 1 << gate[1], 1 << gate[2]
                if x & c:
                    x ^= t
                if z & t:
                    z ^= c
        return PauliString(self.n, k, x, z)

    def conjugate_set(self, measurements: MeasurementSet) -> MeasurementSet:
        return MeasurementSet(tuple(self.conjugate(p) for p in measurements))

    def inverse(self) -> "CliffordCircuit":
        inv: List[Tuple] = []
        for gate in reversed(self.gates):
            if gate[0] == "s":
                # S^-1 = S S S
                inv.extend([gate, gate, gate])
            else:
                inv.append(gate)
        return CliffordCircuit(self.n, tuple(inv))

    def unitary(self) -> np.ndarray:
        dim = 2**self.n
        u = np.eye(dim, dtype=complex)
        for gate in self.gates:
            u = self._gate_matrix(gate) @ u
        return u

    def apply(self, state: np.ndarray) -> np.ndarray:
        return self.unitary() @ state

    def _gate_matrix(self, gate: Tuple) -> np.ndarray:
        dim = 2**self.n
        if gate[0] in ("h", "s"):
            q = gate[1]
            single = _HADAMARD if gate[0] == "h" else _PHASE
            mats = [np.eye(2, dtype=complex)] * self.n
            mats[q] = single
            # qubit 0 is the least-significant bit of the basis index
            full = mats[-1]
            for m in reversed(mats[:-1]):
                full = np.kron(full, m)
            return full
        c, t = gate[1], gate[2]
        u = np.zeros((dim, dim), dtype=complex)
        for basis in range(dim):
            target = basis ^ (1 << t) if (basis >> c) & 1 else basis
            u[target, basis] = 1.0
        return u


def random_clifford(n: int, rng: np.random.Generator) -> CliffordCircuit:
    gates: List[Tuple] = []
    for _ in range(4 * n + 4):
        kind = rng.integers(0, 3 if n > 1 else 2)
        if kind == 0:
            gates.append(("h", int(rng.integers(0, n))))
        elif kind == 1:
            gates.append(("s", int(rng.integers(0, n))))
        else:
            c = int(rng.integers(0, n))
            t = int(rng.integers(0, n - 1))
            if t >= c:
                t += 1
            gates.append(("cx", c, t))
    return CliffordCircuit(n, tuple(gates))


def pauli_strings(max_n: int = 3, hermitian: bool = False):
    """Strategy producing random PauliString values."""

    def build(draw_tuple):
        n, x, z, k2, sign = draw_tuple
        mask = (1 << n) - 1
        x &= mask
        z &= mask
        if hermitian:
            k = ((x & z).bit_count() + 2 * sign) % 4
        else:
            k = (k2 + 2 * sign) % 4
        return PauliString(n, k, x, z)

    return st.tuples(
        st.integers(1, max_n),
        st.integers(0, (1 << max_n) - 1),
        st.integers(0, (1 << max_n) - 1),
        st.integers(0, 3),
        st.integers(0, 1),
    ).map(build)


def pauli_pairs(max_n: int = 3, hermitian: bool = False):
    """Two PauliStrings guaranteed to share the same qubit count."""

    def build(draw_tuple):
        n, raw = draw_tuple
        mask = (1 << n) - 1
        out = []
        for x, z, k2, sign in raw:
            x &= mask
            z &= mask
            if hermitian:
                k = ((x & z).bit_count() + 2 * sign) % 4
            else:
                k = (k2 + 2 * sign) % 4
            out.append(PauliString(n, k, x, z))
        return tuple(out)

    single = st.tuples(
        st.integers(0, (1 << max_n) - 1),
        st.integers(0, (1 << max_n) - 1),
        st.integers(0, 3),
        st.integers(0, 1),
    )
    return st.tuples(st.integers(1, max_n), st.tuples(single, single)).map(build)
