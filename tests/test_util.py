"""Clifford circuits in tests/util.py: the symplectic update against dense unitaries."""

import numpy as np

from magicscope.pauli import PauliString
from util import pauli_matrix, random_clifford


class TestClifford:
    def test_conjugation_matches_dense(self):
        rng = np.random.default_rng(6)
        for n in (1, 2, 3):
            for _ in range(10):
                circuit = random_clifford(n, rng)
                u = circuit.unitary()
                for _ in range(4):
                    x = int(rng.integers(0, 1 << n))
                    z = int(rng.integers(0, 1 << n))
                    k = ((x & z).bit_count() + 2 * int(rng.integers(0, 2))) % 4
                    p = PauliString(n, k, x, z)
                    expected = u @ pauli_matrix(p) @ u.conj().T
                    assert np.allclose(pauli_matrix(circuit.conjugate(p)), expected)

    def test_inverse(self):
        rng = np.random.default_rng(8)
        circuit = random_clifford(2, rng)
        u = circuit.unitary() @ circuit.inverse().unitary()
        phase = u[0, 0]
        assert abs(abs(phase) - 1) < 1e-12
        assert np.allclose(u, phase * np.eye(4))

    def test_unitarity(self):
        rng = np.random.default_rng(10)
        circuit = random_clifford(2, rng)
        u = circuit.unitary()
        assert np.allclose(u @ u.conj().T, np.eye(4))
