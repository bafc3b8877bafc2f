"""Shared test helpers: dense matrices, a dense LP and hypothesis strategies.

The dense constructions here are deliberately independent of the
package's own bit tricks so that tests compare two different codepaths.
"""

import json
import math

import numpy as np
from hypothesis import strategies as st
from scipy.optimize import linprog

from magicscope.pauli import PauliString, format_pauli

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


def solve_l1_dense(vmat: np.ndarray, b_eq: np.ndarray, lp_tolerance: float = 1e-9):
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
        options={"primal_feasibility_tolerance": lp_tolerance},
    )
    if res.status != 0:
        return math.nan, None, res.status
    return float(res.fun), res.x[:n_vert] - res.x[n_vert:], 0


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
        "m": vset.m,
        "measurements": [format_pauli(p) for p in vset.measurements]
        if vset.measurements is not None
        else None,
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
