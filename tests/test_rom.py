"""Robustness LP, membership verdict, and resource-monotone properties."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from magicscope import cli, oracle, polytope, rom
from magicscope.pauli import MeasurementSet, PauliString, pauli_expectation, read_measurement_file
from magicscope.polytope import _BLOCK_ROWS, VertexSet, qubit_symmetries, v_representation
from magicscope.rom import (
    DECISION_TOLERANCE,
    SYMMETRY_TOLERANCE,
    ExpectationVector,
    _solve_l1_column_generation,
    reduced_rom,
    sample_complexity,
)
from magicscope.spinchain import (
    SpinChainSpec,
    build_hamiltonian,
    ground_state,
    hamiltonian_measurement_set,
)
from util import fail_highs, fibres, lift, loosen_highs, random_clifford, solve_l1_dense

XXZ12_WINDOW = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "xxz12_window.txt"

OCTAHEDRON = MeasurementSet.from_strings(["X", "Y", "Z"])
DIAMOND = MeasurementSet.from_strings(["ZZ", "XI"])
T_BLOCH = (1 / math.sqrt(3),) * 3
H_BLOCH = (1 / math.sqrt(2), 0.0, 1 / math.sqrt(2))
# sets holding both P and -P, so [V 1] is rank-deficient
RANK_DEFICIENT = (["-XX", "+XX", "+ZI"], ["X", "-X", "Z"], ["XX", "YY", "ZZ", "-ZZ"])


def mirror_pairs():
    """23 mirror pairs of Z-strings on 12 qubits: 46 measurements in 23 orbits of the reflection."""
    n = 12
    shapes = [(0, 2), (0, 4), (0, 6), (0, 8), (0, 1, 3)]
    supports = {tuple(q + s for s in shape) for shape in shapes for q in range(n - shape[-1])}
    supports |= {tuple(sorted(n - 1 - q for q in s)) for s in supports}
    return MeasurementSet.from_strings(
        ["".join("Z" if q in s else "I" for q in range(n)) for s in sorted(supports)]
    )


def marginal_texts(n):
    """The 3n single-qubit Paulis on n qubits."""
    return [
        "".join(ch if i == q else "I" for i in range(n))
        for q in range(n)
        for ch in "XYZ"
    ]


class TestExpectationVector:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            ExpectationVector.of([1.1])
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ExpectationVector.of([0.0, bad])
        ExpectationVector.of([1.0000005])  # inside input tolerance

    def test_of_coerces(self):
        assert ExpectationVector.of([1, 0]).values == (1.0, 0.0)


class TestReducedRom:
    def test_maximally_mixed(self):
        vset = v_representation(OCTAHEDRON)
        result = reduced_rom(vset, ExpectationVector.of([0, 0, 0]))
        assert result.status == "optimal"
        assert abs(result.rom - 1.0) < 1e-9
        assert result.member

    def test_t_state(self):
        vset = v_representation(OCTAHEDRON)
        result = reduced_rom(vset, ExpectationVector.of(T_BLOCH))
        assert abs(result.rom - math.sqrt(3)) < 1e-6
        assert not result.member

    def test_h_state(self):
        vset = v_representation(OCTAHEDRON)
        result = reduced_rom(vset, ExpectationVector.of(H_BLOCH))
        assert abs(result.rom - math.sqrt(2)) < 1e-6

    def test_diamond(self):
        vset = v_representation(DIAMOND)
        result = reduced_rom(vset, ExpectationVector.of([0.8, 0.8]))
        assert abs(result.rom - 1.6) < 1e-9

    def test_rom_is_optimal_near_a_vertex(self):
        # the dual objective is rom: at HiGHS's default 1e-7 dual tolerance it read
        # 0.99999994 here, with coefficients of 1-norm 1.00000012
        b = (0.0, 1.0, -5.960464477539063e-08)
        result = reduced_rom(v_representation(OCTAHEDRON), ExpectationVector.of(b))
        assert abs(result.rom - (1.0 + 5.960464477539063e-08)) < 1e-9
        assert abs(np.abs(result.coefficients).sum() - result.rom) < 1e-9

    def test_decomposition_reproduces_input(self):
        vset = v_representation(OCTAHEDRON)
        b = ExpectationVector.of(T_BLOCH)
        result = reduced_rom(vset, b)
        vmat = vset.vertices
        assert abs(result.coefficients.sum() - 1.0) < 1e-8
        assert np.max(np.abs(vmat.T @ result.coefficients - b.values)) < 1e-8
        assert abs(np.abs(result.coefficients).sum() - result.rom) < 1e-8

    def test_infeasible(self):
        vset = v_representation(MeasurementSet.from_strings(["+Z", "-Z"]))
        result = reduced_rom(vset, ExpectationVector.of([1.0, 1.0]))
        assert result.status == "infeasible"
        assert not result.member

    def test_failures_carry_no_coefficients(self, monkeypatch):
        infeasible = reduced_rom(
            v_representation(MeasurementSet.from_strings(["+Z", "-Z"])),
            ExpectationVector.of([1.0, 1.0]),
        )
        loosen_highs(monkeypatch, rom, 0.9)  # a duality gap, as in test_duality_gap_is_a_failure
        failed = reduced_rom(v_representation(OCTAHEDRON), ExpectationVector.of([0.5, 0.5, 0.5]))
        assert infeasible.status == "infeasible"
        assert failed.status == "numerically-degenerate"
        assert infeasible.coefficients.size == failed.coefficients.size == 0

    def test_dimension_mismatch(self):
        vset = v_representation(OCTAHEDRON)
        with pytest.raises(ValueError):
            reduced_rom(vset, ExpectationVector.of([0.0, 0.0]))

    @given(st.tuples(*(st.floats(-1, 1) for _ in range(3))))
    @settings(max_examples=80, deadline=None)
    def test_octahedron_matches_cross_polytope_formula(self, b):
        vset = v_representation(OCTAHEDRON)
        result = reduced_rom(vset, ExpectationVector.of(b))
        assert abs(result.rom - max(1.0, sum(abs(v) for v in b))) < 1e-7

    @given(st.tuples(*(st.floats(-1, 1) for _ in range(3))))
    @settings(max_examples=60, deadline=None)
    def test_rom_at_least_one(self, b):
        vset = v_representation(OCTAHEDRON)
        result = reduced_rom(vset, ExpectationVector.of(b))
        assert result.rom >= 1.0 - 1e-9

    @given(
        st.tuples(*(st.floats(-0.577, 0.577) for _ in range(3))),
        st.tuples(*(st.floats(-0.577, 0.577) for _ in range(3))),
        st.floats(0, 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_convexity(self, b1, b2, p):
        vset = v_representation(OCTAHEDRON)
        mix = tuple(p * x + (1 - p) * y for x, y in zip(b1, b2))
        lhs = reduced_rom(vset, ExpectationVector.of(mix)).rom
        rhs = (
            p * reduced_rom(vset, ExpectationVector.of(b1)).rom
            + (1 - p) * reduced_rom(vset, ExpectationVector.of(b2)).rom
        )
        assert lhs <= rhs + 1e-6


class TestColumnGeneration:
    def test_agrees_with_dense(self):
        # n=3 (216 vertices) and n=4 (1296) marginal polytopes and the
        # rank-deficient sets, on random-state expectations followed by
        # random convex mixtures of vertices
        rng = np.random.default_rng(11)
        cases = [(marginal_texts(3), 12)]
        cases += [(texts, 6) for texts in RANK_DEFICIENT]
        cases += [(marginal_texts(4), 4)]
        for texts, states in cases:
            ms = MeasurementSet.from_strings(texts)
            vmat = v_representation(ms).vertices
            targets = []
            for _ in range(states):
                table = oracle.full_pauli_table(oracle.random_pure_state(ms.n, rng))
                targets.append(np.array(oracle.measurement_expectations(table, ms)))
            for _ in range(3):
                picked = rng.choice(len(vmat), size=min(50, len(vmat)), replace=False)
                targets.append(rng.dirichlet(np.ones(picked.size)) @ vmat[picked])
            for b in targets:
                b_eq = np.concatenate([b, [1.0]])
                f_dense, x_dense, s_dense = solve_l1_dense(vmat, b_eq)
                f_cg, x_cg, s_cg, _ = _solve_l1_column_generation(vmat, b_eq)
                assert s_dense == 0 and s_cg == "optimal", texts
                assert abs(f_dense - f_cg) < 1e-7, texts
                assert np.max(np.abs(vmat.T @ x_cg - b)) < 1e-8, texts
                assert abs(x_cg.sum() - 1.0) < 1e-8, texts
                assert abs(np.abs(x_cg).sum() - f_cg) < 1e-8, texts

    def test_duality_gap_is_a_failure(self, monkeypatch):
        # at feasibility tolerance 0.9 the last dual solve reads 1.0 while its
        # marginals, which reproduce b, have the true rom 1.5 as their 1-norm
        vset = v_representation(OCTAHEDRON)
        b = ExpectationVector.of([0.5, 0.5, 0.5])
        with monkeypatch.context() as patch:
            loosen_highs(patch, rom, 0.9)
            result = reduced_rom(vset, b)
        assert result.status == "numerically-degenerate" and not result.member
        assert result.cause.startswith("duality gap 0.5")
        for tol in (1e-9, 1e-4, 0.5):
            with monkeypatch.context() as patch:
                loosen_highs(patch, rom, tol)
                result = reduced_rom(vset, b)
            assert result.status == "optimal" and result.cause == ""
            assert abs(result.rom - 1.5) < 1e-9

    def test_int8_vertices_give_the_float_result(self):
        # the full LP priced block by block over more rows than one block
        ms, b, _ = all_terms_ground_state("annni", 8, {"k": 0.3, "g": 0.8})
        vset = v_representation(ms)
        assert len(vset.vertices) > _BLOCK_ROWS
        wide = VertexSet(vset.measurements, vset.vertices.astype(float), vset.starts)
        rng = np.random.default_rng(4)
        for _ in range(2):
            # off the orbit averages, so the symmetric path is refused
            values = np.clip(np.array(b.values) + 1e-3 * rng.standard_normal(b.m), -1, 1)
            compact = reduced_rom(vset, ExpectationVector.of(values))
            reference = reduced_rom(wide, ExpectationVector.of(values))
            assert compact.path == reference.path == "full"
            assert compact.status == reference.status == "optimal"
            assert compact.rom == reference.rom
            assert np.max(np.abs(compact.coefficients - reference.coefficients)) <= 1e-12

    def test_aligned_rows_are_the_ends_of_a_stable_sort(self):
        # the warm set as a stable argsort of the row products picks it, on
        # int8 rows whose products tie heavily at both cuts
        def by_sort(vmat, b_eq):
            m = vmat.shape[1]
            order = np.argsort(vmat.astype(float) @ b_eq[:m], kind="stable")
            seed = 2 * (m + 1)
            return np.unique(np.concatenate([order[:seed], order[-seed:]]))

        rng = np.random.default_rng(5)
        m = 3
        seed = 2 * (m + 1)
        # below one end's size, at it, at both ends' size, and past them
        for rows in (1, seed - 1, seed, seed + 1, 2 * seed, 2 * seed + 1, 40, 3000):
            for _ in range(20):
                vmat = rng.integers(-1, 2, size=(rows, m)).astype(np.int8)
                b_eq = np.append(rng.integers(-1, 2, size=m).astype(float), 1.0)
                expected = by_sort(vmat, b_eq)
                got = rom._aligned_rows(vmat, b_eq)
                assert got.dtype == expected.dtype and np.array_equal(got, expected), rows

    def test_detects_infeasibility(self):
        vmat = np.array([[-1.0, 1.0], [1.0, -1.0]])
        fun, coeffs, status, _ = _solve_l1_column_generation(
            vmat, np.array([1.0, 1.0, 1.0])
        )
        assert status == "infeasible" and coeffs.size == 0 and fun == math.inf


class TestClosedForms:
    """Sets past n = 3 whose reduced robustness has a closed form, on both paths."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_majorana_strings_give_the_cross_polytope(self, n):
        # the 2n Jordan-Wigner Majoranas Z..Z X_k, Z..Z Y_k and their parity Z..Z
        # pairwise anticommute, so their polytope is the cross-polytope
        texts = ["Z" * k + ch + "I" * (n - k - 1) for k in range(n) for ch in "XY"]
        vset = v_representation(MeasurementSet.from_strings(texts + ["Z" * n]))
        rng = np.random.default_rng(n)
        for scale in (0.05, 0.2, 0.6, 1.0):  # inside the polytope and out
            b = rng.uniform(-1, 1, 2 * n + 1) * scale
            result = reduced_rom(vset, ExpectationVector.of(b))
            assert result.status == "optimal" and result.path == "full"
            assert abs(result.rom - max(1.0, np.abs(b).sum())) < 1e-9

    @pytest.mark.parametrize("n", range(2, 7))
    def test_single_qubit_paulis_give_the_worst_qubit(self, n):
        # X, Y and Z on each qubit: a product of octahedra, whose rom is the worst qubit's
        vset = v_representation(MeasurementSet.from_strings(marginal_texts(n)))
        rng = np.random.default_rng(n)
        for scale in (0.3, 1.0):
            bloch = rng.uniform(-1, 1, 3) * scale
            same = reduced_rom(vset, ExpectationVector.of(np.tile(bloch, n)))
            assert same.status == "optimal" and same.path == "symmetric"
            assert abs(same.rom - max(1.0, np.abs(bloch).sum())) < 1e-9
            per_qubit = rng.uniform(-1, 1, (n, 3)) * scale
            each = reduced_rom(vset, ExpectationVector.of(per_qubit.ravel()))
            assert each.status == "optimal" and each.path == "full"
            assert abs(each.rom - max(1.0, np.abs(per_qubit).sum(axis=1).max())) < 1e-9

    @pytest.mark.parametrize("n", range(4, 11))
    def test_tfim_all_terms_at_the_free_fermion_expectations(self, n):
        # The periodic TFIM ground state's <Z_i Z_i+1> and <X_i>, in closed form
        # over k = pi (2j + 1) / n (Pfeuty, Ann. Phys. 57, 79, 1970).  The
        # anticommuting pair {Z1Z2, X1} gives rom max(1, |<ZZ>| + |<X>|), and so
        # does the whole set: a projection bounds it below, and the all-ZZ and
        # all-X contexts' orbit sums (n, 0) and (0, +-n) bound it above.
        ms = hamiltonian_measurement_set(SpinChainSpec("tfim", n, {}), "all-terms")
        vset = v_representation(ms)
        k = np.pi * (2 * np.arange(n) + 1) / n
        for g in (0.2, 0.5, 1.0, 2.0, 10.0):
            energies = np.sqrt(1 + g * g - 2 * g * np.cos(k))
            zz = np.mean((1 - g * np.cos(k)) / energies)
            x = np.mean((g - np.cos(k)) / energies)
            result = reduced_rom(vset, ExpectationVector.of([x if p.xbits else zz for p in ms]))
            assert result.status == "optimal" and result.path == "symmetric"
            assert abs(result.rom - max(1.0, abs(zz) + abs(x))) < 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_a_set_split_over_disjoint_qubits_gives_its_worse_part(self, seed):
        # the vertices are the product of the parts' vertices, so the rom is
        # the larger of the parts' roms
        rng = np.random.default_rng(seed)
        parts, roms, b = [], [], []
        for _ in range(2):
            n = int(rng.integers(1, 3))
            part = cli._random_measurement_set(n, int(rng.integers(1, 7)), rng)
            table = oracle.full_pauli_table(oracle.random_pure_state(n, rng))
            b_part = oracle.measurement_expectations(table, part)
            result = reduced_rom(v_representation(part), ExpectationVector.of(b_part))
            assert result.status == "optimal"
            parts.append(part)
            roms.append(result.rom)
            b += b_part
        low, high = parts
        n = low.n + high.n
        union = MeasurementSet(
            tuple(PauliString(n, p.phase_k, p.xbits, p.zbits) for p in low)
            + tuple(PauliString(n, p.phase_k, p.xbits << low.n, p.zbits << low.n) for p in high)
        )
        result = reduced_rom(v_representation(union), ExpectationVector.of(b))
        assert result.status == "optimal"
        assert abs(result.rom - max(roms)) < 1e-8


class TestSolverFailures:
    @pytest.mark.parametrize("status", [2, 4])
    def test_a_highs_failure_is_not_a_verdict(self, monkeypatch, status):
        # the dual is feasible at y = 0, so even HiGHS's "infeasible" (2) is a failure
        fail_highs(monkeypatch, rom, status)
        result = reduced_rom(v_representation(OCTAHEDRON), ExpectationVector.of(T_BLOCH))
        assert result.status == "numerically-degenerate"
        assert math.isnan(result.rom) and not result.member
        assert result.coefficients.size == 0
        assert result.cause == f"HiGHS status {status}: injected"

    def test_a_failed_symmetric_solve_fails_on_the_full_path(self, monkeypatch):
        ms, b, _ = all_terms_ground_state("annni", 6, {"k": 0.3, "g": 0.9})
        vset = v_representation(ms)
        assert reduced_rom(vset, b).path == "symmetric"
        fail_highs(monkeypatch, rom, 2)
        result = reduced_rom(vset, b)
        assert result.path == "full" and result.status == "numerically-degenerate"
        assert result.cause == "HiGHS status 2: injected"

    def test_no_optimum_after_200_rounds(self, monkeypatch):
        # every dual solve returns twice its optimum, which violates a binding vertex
        calls = []

        def overshooting(*args, **kwargs):
            calls.append(None)
            res = linprog(*args, **kwargs)
            res.x = 2.0 * res.x
            return res

        monkeypatch.setattr(rom, "linprog", overshooting)
        result = reduced_rom(v_representation(OCTAHEDRON), ExpectationVector.of(T_BLOCH))
        assert len(calls) == 200
        assert result.status == "numerically-degenerate" and not result.member
        assert math.isnan(result.rom) and result.coefficients.size == 0
        assert result.cause == "no optimum after 200 column-generation rounds"


def all_terms_ground_state(model, n, params):
    """The all-terms measurement set of a periodic chain and its ground-state expectations."""
    spec = SpinChainSpec(model, n, params)
    ms = hamiltonian_measurement_set(spec, "all-terms")
    gs = ground_state(build_hamiltonian(spec))
    return ms, ExpectationVector.of([pauli_expectation(gs.state, p) for p in ms]), gs


def count_linprog(monkeypatch):
    """A list that gains an entry per ``rom.linprog`` call from here on."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(rom, "linprog", counted)
    return calls


class TestSymmetricPath:
    def assert_agrees_with_full(self, vset, b):
        result = reduced_rom(vset, b)
        assert result.path == "symmetric" and result.status == "optimal"
        fun, _, status, _ = _solve_l1_column_generation(vset.vertices, np.append(b.values, 1.0))
        assert status == "optimal"
        assert abs(result.rom - fun) < 1e-7
        assert result.coefficients.shape == (len(vset.symmetry.points),)
        x = lift(vset, result.coefficients)
        assert np.max(np.abs(vset.vertices.T @ x - np.array(b.values))) < 1e-8
        assert abs(x.sum() - 1.0) < 1e-8
        assert abs(np.abs(x).sum() - result.rom) < 1e-8

    @pytest.mark.parametrize("n", [6, 8])
    def test_annni_ground_states(self, n):
        for k, g in ((0.3, 0.9), (0.7, 0.4), (0.5, 1.5)):
            ms, b, gs = all_terms_ground_state("annni", n, {"k": k, "g": g})
            assert not gs.degenerate_flag
            self.assert_agrees_with_full(v_representation(ms), b)

    def test_orbit_averaged_random_b(self):
        vset = v_representation(MeasurementSet.from_strings(marginal_texts(3)))
        perms = vset.symmetry.perms
        assert len(perms) == 6  # the dihedral group of the triangle
        rng = np.random.default_rng(5)
        for _ in range(4):
            table = oracle.full_pauli_table(oracle.random_pure_state(3, rng))
            b = np.array(oracle.measurement_expectations(table, vset.measurements))
            # the mean over g of b o g is constant on orbits and still a valid point
            self.assert_agrees_with_full(vset, ExpectationVector.of(b[perms].mean(axis=0)))

    def test_broken_symmetry_falls_back(self):
        # one vector of a degenerate ground space (d = 4): the Lanczos vector
        # gs.state breaks the shift
        ms, b, gs = all_terms_ground_state("xxz", 9, {"delta": 0.0, "h": 0.0})
        vset = v_representation(ms)
        values = np.array(b.values)
        assert gs.degenerate_flag
        assert np.ptp(values[vset.symmetry.perms], axis=0).max() > SYMMETRY_TOLERANCE
        result = reduced_rom(vset, b)
        assert result.path == "full" and result.status == "optimal"
        assert np.max(np.abs(vset.vertices.T @ result.coefficients - values)) < 1e-8

    def test_ground_space_average_keeps_the_symmetry(self):
        # the same point through the ground-space average tr(P Pi)/d
        ms, _, gs = all_terms_ground_state("xxz", 9, {"delta": 0.0, "h": 0.0})
        vset = v_representation(ms)
        assert gs.degenerate_flag and gs.dimension == 4
        values = np.array(gs.expectations(ms))
        assert np.ptp(values[vset.symmetry.perms], axis=0).max() <= SYMMETRY_TOLERANCE
        b = ExpectationVector.of(values)
        self.assert_agrees_with_full(vset, b)
        assert reduced_rom(vset, b).rom == pytest.approx(1.3321, abs=1e-4)

    def test_asymmetric_sets_take_the_full_path(self, monkeypatch):
        octahedron = v_representation(OCTAHEDRON)
        # perfbench's traced sweep counts the solves through ``rom.linprog`` and
        # refuses an optimal query that made none, on either path
        calls = count_linprog(monkeypatch)
        result = reduced_rom(octahedron, ExpectationVector.of(T_BLOCH))
        assert result.path == "full" and result.status == "optimal"
        assert calls
        vset = v_representation(MeasurementSet.from_strings(marginal_texts(3)))
        b = ExpectationVector.of([0.5, 0.0, 0.0, 0.2] + [0.0] * 5)
        assert reduced_rom(vset, b).path == "full"

    @pytest.mark.parametrize("fault", ["fails", "misses b"])
    def test_a_bad_reduced_solve_falls_back(self, monkeypatch, fault):
        ms, b, _ = all_terms_ground_state("annni", 6, {"k": 0.3, "g": 0.9})
        vset = v_representation(ms)
        assert reduced_rom(vset, b).path == "symmetric"
        points = vset.symmetry.points
        solve = rom._solve_l1_column_generation
        reduced = []

        def faulty(vmat, *args):
            fun, weights, status, cause = solve(vmat, *args)
            if vmat is not points:
                return fun, weights, status, cause
            reduced.append(status)
            if fault == "fails":
                return math.nan, np.empty(0), "numerically-degenerate", "injected"
            weights = weights.copy()
            weights[0] += 1e-6  # the weights' sum is then 1 + 1e-6, not 1
            return fun, weights, status, cause

        monkeypatch.setattr(rom, "_solve_l1_column_generation", faulty)
        result = reduced_rom(vset, b)
        assert reduced == ["optimal"]
        assert result.path == "full" and result.status == "optimal"
        fun, coeffs, status, _ = solve(vset.vertices, np.append(b.values, 1.0))
        assert status == "optimal"
        assert result.rom == fun
        assert np.array_equal(result.coefficients, coeffs)

    def test_orbit_sums_beyond_two_to_the_53(self):
        # each of the 23 orbit sums takes 5 values, so the orbit-sum vectors
        # range over 5^23 > 2^53 values
        vset = v_representation(mirror_pairs())
        reduction = vset.symmetry
        assert len(reduction.perms) == 2 and reduction.points.shape[1] == 23
        assert reduction.hull is None
        rng = np.random.default_rng(1)
        b = vset.vertices.T @ rng.dirichlet(np.full(len(vset.vertices), 0.05))
        b = b[reduction.perms].mean(axis=0)
        # scaled towards a face: outside the polytope, so rom > 1
        b *= 0.9 / np.abs(b).max()
        self.assert_agrees_with_full(vset, ExpectationVector.of(b))
        assert reduced_rom(vset, ExpectationVector.of(b)).rom > 1.0

    @pytest.mark.parametrize(
        "model, n, params, hull",
        [("annni", 8, {"k": 0.3, "g": 0.8}, 9), ("xxz", 9, {"delta": -1.0, "h": 1.0}, 32)],
    )
    def test_hull_warm_set_needs_one_solve(self, monkeypatch, model, n, params, hull):
        ms, b, gs = all_terms_ground_state(model, n, params)
        assert not gs.degenerate_flag
        vset = v_representation(ms)
        reduction = vset.symmetry
        assert len(reduction.hull) == hull
        assert reduction.probes is None
        calls = count_linprog(monkeypatch)
        result = reduced_rom(vset, b)
        assert result.path == "symmetric" and result.status == "optimal"
        assert len(calls) == 1
        # the same points from the warm set of the most and least aligned points
        sums = np.bincount(reduction.orbits, weights=b.values, minlength=reduction.points.shape[1])
        target = np.append(sums, 1.0)
        del calls[:]
        fun, _, status, _ = _solve_l1_column_generation(reduction.points, target)
        assert status == "optimal" and len(calls) > 1
        assert abs(result.rom - fun) <= 1e-9
        # drop one hull vertex at a time: pricing over every point adds back one
        # that binds, so some drops cost a second solve and none moves the rom
        repriced = 0
        for dropped in range(hull):
            del calls[:]
            fun, _, status, _ = _solve_l1_column_generation(
                reduction.points, target, warm=np.delete(reduction.hull, dropped)
            )
            assert status == "optimal" and abs(result.rom - fun) <= 1e-9
            repriced += len(calls) > 1
        assert repriced

    @pytest.mark.parametrize(
        "texts, values",
        [
            # one orbit: the points lie on a line
            (["ZII", "IZI", "IIZ"], [0.4] * 3),
            # two orbits whose sums always cancel: a flat set in the plane
            (["+ZI", "+IZ", "-ZI", "-IZ"], [0.3, 0.3, -0.3, -0.3]),
        ],
    )
    def test_points_without_a_hull_keep_the_aligned_warm_set(self, texts, values):
        vset = v_representation(MeasurementSet.from_strings(texts))
        assert vset.symmetry.hull is None
        # the points lie on a line: the probes are its two ends
        assert len(vset.symmetry.probes) == 2
        b = ExpectationVector.of(values)
        self.assert_agrees_with_full(vset, b)
        assert reduced_rom(vset, b).rom == pytest.approx(1.0, abs=1e-9)

    def test_xxz12_window_is_above_the_hull_cap(self):
        vset = v_representation(read_measurement_file(XXZ12_WINDOW))
        reduction = vset.symmetry
        assert reduction.points.shape[1] == 13 and reduction.hull is None
        rng = np.random.default_rng(2)
        b = vset.vertices.T @ rng.dirichlet(np.full(len(vset.vertices), 0.05))
        self.assert_agrees_with_full(vset, ExpectationVector.of(b[reduction.perms].mean(axis=0)))

    def test_xxz12_window_probes_need_about_one_solve(self, monkeypatch):
        ms = read_measurement_file(XXZ12_WINDOW)
        vset = v_representation(ms)
        reduction = vset.symmetry
        probes = reduction.probes
        # fixed by the points alone, ascending rows of them
        assert np.array_equal(probes, v_representation(ms).symmetry.probes)
        assert np.all(np.diff(probes) > 0)
        assert 0 <= probes[0] and probes[-1] < len(reduction.points)
        # ground states on the 20 x 20 grid of the xxz12-window benchmark
        spec = SpinChainSpec("xxz", 12, {}, "periodic")
        deltas, fields = np.linspace(-2.0, 2.0, 20), np.linspace(0.0, 4.0, 20)
        calls = count_linprog(monkeypatch)
        queries = 0
        for i, j in ((1, 3), (3, 16), (6, 8), (9, 12), (12, 1), (14, 15), (17, 6), (19, 19)):
            gs = ground_state(build_hamiltonian(spec.with_params({"delta": deltas[i], "h": fields[j]})))
            values = gs.expectations(ms)
            result = reduced_rom(vset, ExpectationVector.of(values))
            assert result.path == "symmetric" and result.status == "optimal"
            queries += 1
            counted = len(calls)
            sums = np.bincount(reduction.orbits, weights=values, minlength=reduction.points.shape[1])
            # from the most and least aligned points alone
            fun, _, status, _ = _solve_l1_column_generation(reduction.points, np.append(sums, 1.0))
            assert status == "optimal" and abs(result.rom - fun) <= 1e-9
            del calls[counted:]
        assert len(calls) / queries <= 1.3

    def test_reduction_is_lazy(self):
        vset = v_representation(MeasurementSet.from_strings(marginal_texts(3)))
        assert "symmetry" not in vars(vset)
        reduced_rom(vset, ExpectationVector.of([0.0] * 9))
        assert "symmetry" in vars(vset)


class TestQubitSymmetries:
    def test_annni10_all_terms(self):
        ms = hamiltonian_measurement_set(SpinChainSpec("annni", 10, {}), "all-terms")
        vset = v_representation(ms)
        reduction = vset.symmetry
        assert len(reduction.perms) == 20
        assert reduction.points.shape == (964, 3)
        # the points are distinct, in lexicographic order with the last orbit first
        assert np.array_equal(np.lexsort(reduction.points.T), np.arange(964))
        assert len({tuple(p) for p in reduction.points.tolist()}) == 964
        # the fibres partition the rows, and every vertex of a fibre projects to its point
        found = fibres(vset)
        assert all(len(rows) for rows in found)
        assert np.array_equal(np.sort(np.concatenate(found)), np.arange(len(vset.vertices)))
        indicator = np.eye(3)[reduction.orbits]
        for p, rows in enumerate(found):
            assert np.all(vset.vertices[rows] @ indicator == reduction.points[p])

    def test_reduction_peak_memory_is_one_block(self):
        # the orbit sums of 362,240 rows, their lexsort index and a sorted copy
        # would take 8 MB at once; a block of 4,096 rows and the distinct sums
        # kept from each take a small fraction of one
        ms = hamiltonian_measurement_set(SpinChainSpec("annni", 10, {}), "all-terms")
        vset = v_representation(ms)
        tracemalloc.start()
        try:
            assert vset.symmetry.points.shape == (964, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @pytest.mark.parametrize("block_rows", [polytope._BLOCK_ROWS, 3])
    @pytest.mark.parametrize("name", ["xxz5", "annni8", "xxz12-window", "mirror-pairs"])
    def test_reduction_is_independent_of_the_block_size(self, monkeypatch, name, block_rows):
        ms = {
            "xxz5": lambda: hamiltonian_measurement_set(
                SpinChainSpec("xxz", 5, {"delta": 0.5, "h": 0.0}, "periodic"), "all-terms"
            ),
            "annni8": lambda: hamiltonian_measurement_set(
                SpinChainSpec("annni", 8, {}), "all-terms"
            ),
            "xxz12-window": lambda: read_measurement_file(XXZ12_WINDOW),
            "mirror-pairs": mirror_pairs,
        }[name]()
        vertices = v_representation(ms).vertices
        # the reference: every row's orbit sums at once, each distinct row once,
        # sorted with the last orbit the primary key
        _, orbits = np.unique(qubit_symmetries(ms).min(axis=0), return_inverse=True)
        sums = vertices.astype(np.int64) @ np.eye(orbits.max() + 1, dtype=np.int64)[orbits]
        points = np.unique(sums[:, ::-1], axis=0)[:, ::-1].astype(float)
        hull = polytope._hull_vertices(points)
        probes = polytope._extreme_points(points) if hull is None else None
        monkeypatch.setattr(polytope, "_BLOCK_ROWS", block_rows)
        reduction = polytope._orbit_reduction(ms, vertices)
        assert np.array_equal(reduction.orbits, orbits)
        for found, expected in (
            (reduction.points, points), (reduction.hull, hull), (reduction.probes, probes)
        ):
            if expected is None:
                assert found is None
            else:
                assert found.dtype == expected.dtype and found.tobytes() == expected.tobytes()

    def test_xxz12_window_reflection(self):
        ms = read_measurement_file(XXZ12_WINDOW)
        assert len(qubit_symmetries(ms)) == 2  # the identity and the reflection about the centre
        assert v_representation(ms).symmetry.points.shape == (3505, 13)

    def test_sign_flip_is_excluded(self):
        assert len(qubit_symmetries(MeasurementSet.from_strings(["+ZI", "+IZ"]))) == 2
        # the swap maps +ZI to +IZ, which is not in the set (only -IZ is)
        assert len(qubit_symmetries(MeasurementSet.from_strings(["+ZI", "-IZ"]))) == 1
        # of the six maps of three qubits only the swap of qubits 1 and 2 fixes -IIZ
        assert len(qubit_symmetries(MeasurementSet.from_strings(["+ZII", "+IZI", "-IIZ"]))) == 2
        assert v_representation(MeasurementSet.from_strings(["+ZI", "-IZ"])).symmetry is None

    def test_group_maps_vertices_to_vertices(self):
        vset = v_representation(MeasurementSet.from_strings(["XX", "YY", "ZZ", "XI", "IX"]))
        rows = {tuple(v) for v in vset.vertices.tolist()}
        for perm in vset.symmetry.perms:
            assert {tuple(v) for v in vset.vertices[:, perm].tolist()} == rows


class TestMembership:
    def test_vertex_is_member(self):
        vset = v_representation(DIAMOND)
        assert reduced_rom(vset, ExpectationVector.of([1.0, 0.0])).member

    def test_midpoint_is_member(self):
        vset = v_representation(DIAMOND)
        assert reduced_rom(vset, ExpectationVector.of([0.5, 0.5])).member

    def test_outside_point(self):
        vset = v_representation(DIAMOND)
        assert not reduced_rom(vset, ExpectationVector.of([0.8, 0.8])).member

    @given(st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
    @example((1.0, 1.192092896e-07))  # excess 1.19e-7 over 1, inf-norm deviation 6e-8
    @example((1.0, 5e-8))  # a member only by the decision tolerance
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_rom_threshold(self, b):
        # The diamond is the 1-norm ball, so rom = max(1, 1 + excess) with
        # excess = |b1| + |b2| - 1.  The oracle's least inf-norm deviation d from
        # it obeys excess / 2 <= d <= excess: moving each coordinate by d lowers
        # the 1-norm by at most 2d and by at least d.  So the verdicts agree
        # unless excess / 2 <= 1e-7 < excess; inside that band they differ by
        # definition, and only the rom's closed form is asserted there.
        vset = v_representation(DIAMOND)
        result = reduced_rom(vset, ExpectationVector.of(b))
        excess = abs(b[0]) + abs(b[1]) - 1.0
        assert result.rom == pytest.approx(max(1.0, 1.0 + excess), abs=1e-9)
        margin = 1e-9  # the LP tolerance: closer to a threshold, a verdict may go either way
        if abs(excess - DECISION_TOLERANCE) > margin:
            assert result.member == (excess <= DECISION_TOLERANCE)
        if excess < DECISION_TOLERANCE - margin or excess / 2 > DECISION_TOLERANCE + margin:
            assert oracle.hull_contains([b], vset.vertices) == result.member


class TestWitness:
    """``not reduced_rom(...).member`` is the witness verdict ``magicscope rom`` prints."""

    def test_t_state_witnessed(self):
        result = reduced_rom(v_representation(OCTAHEDRON), ExpectationVector.of(T_BLOCH))
        assert result.status == "optimal" and not result.member

    def test_plus_state_consistent(self):
        result = reduced_rom(v_representation(OCTAHEDRON), ExpectationVector.of([1.0, 0.0, 0.0]))
        assert result.status == "optimal" and result.member

    @given(st.tuples(st.floats(-1, 1), st.floats(-1, 1)))
    @settings(max_examples=40, deadline=None)
    def test_commuting_sets_never_witness(self, b):
        vset = v_representation(MeasurementSet.from_strings(["XI", "IX"]))
        assert reduced_rom(vset, ExpectationVector.of(b)).member


class TestResourceProperties:
    def test_lower_bound_on_full_rom(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            ms = (
                OCTAHEDRON
                if n == 1
                else MeasurementSet.from_strings(["XX", "YY", "ZZ", "XI", "IZ"])
            )
            vset = v_representation(ms)
            for _ in range(10):
                state = oracle.random_pure_state(n, rng)
                table = oracle.full_pauli_table(state)
                full = oracle.full_rom(table, n)
                b = ExpectationVector.of(oracle.measurement_expectations(table, ms))
                assert reduced_rom(vset, b).rom <= full + 1e-6

    def test_clifford_two_sided_invariance(self):
        rng = np.random.default_rng(5)
        ms = MeasurementSet.from_strings(["XX", "ZI", "IZ", "YY"])
        for _ in range(8):
            state = oracle.random_pure_state(2, rng)
            circuit = random_clifford(2, rng)
            rotated = circuit.apply(state)
            # rom over M of C psi C+  ==  rom over C+ M C of psi
            b_rotated = ExpectationVector.of(
                oracle.measurement_expectations(oracle.full_pauli_table(rotated), ms)
            )
            conjugated = circuit.inverse().conjugate_set(ms)
            b_orig = ExpectationVector.of(
                oracle.measurement_expectations(
                    oracle.full_pauli_table(state), conjugated
                )
            )
            lhs = reduced_rom(v_representation(ms), b_rotated).rom
            rhs = reduced_rom(v_representation(conjugated), b_orig).rom
            assert abs(lhs - rhs) < 1e-6

    def test_dephasing_monotonicity(self):
        rng = np.random.default_rng(9)
        ms = MeasurementSet.from_strings(["XX", "YY", "ZZ", "ZI", "IX"])
        vset = v_representation(ms)
        for _ in range(10):
            state = oracle.random_pure_state(2, rng)
            table = oracle.full_pauli_table(state)
            b = oracle.measurement_expectations(table, ms)
            # a full computational-basis dephasing zeroes every
            # expectation with an X component and keeps diagonal ones
            dephased = [
                v if p.xbits == 0 else 0.0 for v, p in zip(b, ms)
            ]
            before = reduced_rom(vset, ExpectationVector.of(b)).rom
            after = reduced_rom(vset, ExpectationVector.of(dephased)).rom
            assert after <= before + 1e-6

    def test_submultiplicativity_padded_interpretation(self):
        # Product of two single-qubit states against the union of the
        # single-qubit sets embedded on disjoint qubits.
        rng = np.random.default_rng(17)
        m1 = ["XI", "YI", "ZI"]
        m2 = ["IX", "IY", "IZ"]
        ms_product = MeasurementSet.from_strings(m1 + m2)
        vset_product = v_representation(ms_product)
        vset_single = v_representation(OCTAHEDRON)
        for _ in range(10):
            psi = oracle.random_pure_state(1, rng)
            phi = oracle.random_pure_state(1, rng)
            # qubit 1 is basis bit 0, so psi (qubit 1) is the fast index
            product = np.kron(phi, psi)
            table = oracle.full_pauli_table(product)
            b = ExpectationVector.of(
                oracle.measurement_expectations(table, ms_product)
            )
            rom_product = reduced_rom(vset_product, b).rom
            rom_psi = reduced_rom(
                vset_single,
                ExpectationVector.of(
                    oracle.measurement_expectations(
                        oracle.full_pauli_table(psi), OCTAHEDRON
                    )
                ),
            ).rom
            rom_phi = reduced_rom(
                vset_single,
                ExpectationVector.of(
                    oracle.measurement_expectations(
                        oracle.full_pauli_table(phi), OCTAHEDRON
                    )
                ),
            ).rom
            assert rom_product <= rom_psi * rom_phi + 1e-6


class TestSampleComplexity:
    def test_examples(self):
        assert sample_complexity(1.0, 0.1, 0.05) == 738
        assert sample_complexity(math.sqrt(2), 0.1, 0.05) == 1476
        assert sample_complexity(1.0, 0.1, 2.0) == 0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sample_complexity(0.5, 0.1, 0.05)
        with pytest.raises(ValueError):
            sample_complexity(1.0, 0.0, 0.05)
        with pytest.raises(ValueError):
            sample_complexity(1.0, 0.1, 3.0)
