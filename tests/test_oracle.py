"""Brute-force stabilizer oracle: enumeration, expectations, full robustness."""

import itertools
import math

import numpy as np
import pytest

from magicscope import oracle
from magicscope.pauli import (
    MeasurementSet,
    PauliString,
    commutes,
    identity_sign,
    multiply,
    parse_pauli,
)
from util import fail_highs, pauli_matrix


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(1, 6), (2, 60), (3, 1080)])
    def test_group_counts(self, n, count):
        groups = oracle.enumerate_stabilizer_groups(n)
        assert len(groups) == count == oracle.stabilizer_group_count(n)

    def test_n1_groups_are_axes(self):
        groups = oracle.enumerate_stabilizer_groups(1)
        generators = sorted(str(g.generators[0]) for g in groups)
        assert generators == ["+X", "+Y", "+Z", "-X", "-Y", "-Z"]

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            oracle.enumerate_stabilizer_groups(5)
        with pytest.raises(ValueError):
            oracle.enumerate_stabilizer_groups(0)

    def test_group_invariants(self):
        for group in oracle.enumerate_stabilizer_groups(2):
            assert len(group.elements) == 4
            for p in group.elements:
                assert p.is_hermitian
                assert identity_sign(multiply(p, p)) == 1
            for p, q in itertools.combinations(group.elements, 2):
                assert commutes(p, q)
            # -1 absent: no element is the negated identity
            for p in group.elements:
                if p.xbits == 0 and p.zbits == 0:
                    assert p.phase_k == 0

    def test_groups_distinct(self):
        groups = oracle.enumerate_stabilizer_groups(2)
        fingerprints = {
            frozenset((p.phase_k, p.xbits, p.zbits) for p in g.elements)
            for g in groups
        }
        assert len(fingerprints) == len(groups)


class TestStabilizerExpectation:
    def _group(self, texts):
        gens = tuple(parse_pauli(t) for t in texts)
        n = gens[0].n
        elements = []
        for bits in range(1 << len(gens)):
            prod = PauliString(n, 0, 0, 0)
            for i, g in enumerate(gens):
                if (bits >> i) & 1:
                    prod = multiply(prod, g)
            elements.append(prod)
        return oracle.StabilizerGroup(n, gens, tuple(elements))

    def test_z_eigenstate(self):
        group = self._group(["Z"])
        assert oracle.stabilizer_expectation(group, parse_pauli("Z")) == 1
        assert oracle.stabilizer_expectation(group, parse_pauli("X")) == 0
        assert oracle.stabilizer_expectation(group, parse_pauli("-Z")) == -1

    def test_bell_state(self):
        group = self._group(["XX", "ZZ"])
        assert oracle.stabilizer_expectation(group, parse_pauli("YY")) == -1

    def test_rejects_another_qubit_count(self):
        with pytest.raises(ValueError, match="qubit counts differ"):
            oracle.stabilizer_expectation(self._group(["Z"]), parse_pauli("ZZ"))

    def test_matches_dense_projector(self):
        # projector onto the stabilizer state = average of group elements
        for group in oracle.enumerate_stabilizer_groups(2)[:20]:
            projector = sum(pauli_matrix(p) for p in group.elements) / 4
            for p in oracle.pauli_basis(2):
                dense = np.trace(projector @ pauli_matrix(p)).real
                assert abs(dense - oracle.stabilizer_expectation(group, p)) < 1e-12


class TestTopDown:
    def test_octahedron(self):
        ms = MeasurementSet.from_strings(["X", "Y", "Z"])
        vectors = oracle.topdown_vertices(ms)
        expected = {
            tuple(s if i == axis else 0 for i in range(3))
            for axis in range(3)
            for s in (-1, 1)
        }
        assert vectors == expected

    def test_single_z_includes_interior_point(self):
        ms = MeasurementSet.from_strings(["Z"])
        assert oracle.topdown_vertices(ms) == {(1,), (-1,), (0,)}

    def test_diamond_extremal_points(self):
        ms = MeasurementSet.from_strings(["ZZ", "XI"])
        vectors = oracle.topdown_vertices(ms)
        extremal = {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert extremal <= vectors
        assert oracle.hull_equal(vectors, extremal)


class TestFullRom:
    def test_stabilizer_state_is_one(self):
        state = np.zeros(2, dtype=complex)
        state[0] = 1.0
        assert abs(oracle.full_rom(oracle.full_pauli_table(state), 1) - 1.0) < 1e-9

    def test_h_state(self):
        theta = math.pi / 8
        state = np.array([math.cos(theta), math.sin(theta)], dtype=complex)
        rom = oracle.full_rom(oracle.full_pauli_table(state), 1)
        assert abs(rom - math.sqrt(2)) < 1e-6

    def test_t_state(self):
        # Bloch vector (1,1,1)/sqrt(3)
        z = 1 / math.sqrt(3)
        state = np.array(
            [math.sqrt((1 + z) / 2), (z + 1j * z) / math.sqrt(2 * (1 + z))],
            dtype=complex,
        )
        rom = oracle.full_rom(oracle.full_pauli_table(state), 1)
        assert abs(rom - math.sqrt(3)) < 1e-6

    def test_matches_cross_polytope_formula_n1(self):
        rng = np.random.default_rng(2)
        for _ in range(15):
            state = oracle.random_pure_state(1, rng)
            table = oracle.full_pauli_table(state)
            bloch = table[1:]  # X, Z? canonical order: (x,z) = (0,1),(1,0),(1,1)
            rom = oracle.full_rom(table, 1)
            assert abs(rom - max(1.0, np.abs(bloch).sum())) < 1e-7

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError):
            oracle.full_rom([1.0, 0.0], 1)

    # a stabilizer table spans the whole Pauli space, so only an injected
    # HiGHS status reaches the infeasible and failed branches
    def test_an_infeasible_lp_raises_value_error(self, monkeypatch):
        fail_highs(monkeypatch, oracle, 2)
        with pytest.raises(ValueError, match="not consistent with any state"):
            oracle.full_rom([1.0, 0.0, 0.0, 1.0], 1)

    def test_a_failed_lp_raises(self, monkeypatch):
        fail_highs(monkeypatch, oracle, 4)
        with pytest.raises(RuntimeError, match="failed with status 4"):
            oracle.full_rom([1.0, 0.0, 0.0, 1.0], 1)


class TestHulls:
    OCT = [tuple(s if i == a else 0 for i in range(3)) for a in range(3) for s in (1, -1)]

    def test_equal_sets(self):
        assert oracle.hull_equal(self.OCT, self.OCT)

    def test_interior_point_ignored(self):
        assert oracle.hull_equal(self.OCT, self.OCT + [(0, 0, 0)])

    def test_strict_inclusion_detected(self):
        diamond = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        square = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        assert not oracle.hull_equal(diamond, square)
        assert oracle.hull_contains(diamond, square)
        assert not oracle.hull_contains(square, diamond)

    def test_a_failed_lp_raises(self, monkeypatch):
        fail_highs(monkeypatch, oracle, 4)
        with pytest.raises(RuntimeError, match="status 4: injected"):
            oracle.hull_contains([(0, 0, 0)], self.OCT)


def test_projection_cap():
    cap = oracle.ORACLE_PROJECTION_MAX_QUBITS
    assert cap == 3
    wide = MeasurementSet((PauliString(cap + 1, 0, 0, 1),))
    with pytest.raises(ValueError, match=f"capped at n <= {cap}"):
        oracle.topdown_vertices(wide)
    with pytest.raises(ValueError, match=f"capped at n <= {cap}"):
        oracle.full_rom([1.0] + [0.0] * (4 ** (cap + 1) - 1), cap + 1)


class TestPauliTable:
    def test_purity_sum(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            state = oracle.random_pure_state(n, rng)
            table = oracle.full_pauli_table(state)
            assert table[0] == pytest.approx(1.0)
            assert np.all(np.abs(table) <= 1 + 1e-12)
            # purity: sum of squared Pauli expectations is 2^n for pure states
            assert np.sum(table**2) == pytest.approx(2**n)

    def test_rejects_a_length_not_a_power_of_two(self):
        with pytest.raises(ValueError, match="not a power of two"):
            oracle.full_pauli_table(np.ones(3, dtype=complex) / math.sqrt(3))

    def test_measurement_expectations_signs(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        table = oracle.full_pauli_table(bell)
        ms = MeasurementSet.from_strings(["XX", "ZZ", "YY", "-YY"])
        values = oracle.measurement_expectations(table, ms)
        assert values == pytest.approx([1.0, 1.0, -1.0, 1.0])
