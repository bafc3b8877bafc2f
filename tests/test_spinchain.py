"""Spin-chain Hamiltonians, exact diagonalization, and parameter sweeps."""

import hashlib
import math
import os
import pickle

import numpy as np
import pytest

from magicscope import spinchain
from magicscope.cli import EXIT_SOLVER, _parse_grid, main
from magicscope.pauli import (
    MeasurementSet,
    PauliString,
    format_pauli,
    parse_pauli,
    pauli_expectation,
)
from magicscope.polytope import v_representation
from magicscope.rom import ExpectationVector, reduced_rom
from magicscope.spinchain import (
    DEGENERACY_THRESHOLD,
    GroundStateResult,
    SectorPattern,
    SpinChainSpec,
    build_hamiltonian,
    ground_state,
    hamiltonian_measurement_set,
    sweep,
)
from util import dense_hamiltonian, pauli_matrix


def term_dict(terms):
    return {format_pauli(p): w for w, p in terms}


def flip_basis(n, sign):
    """The 2^n x 2^(n-1) isometry onto (|r> + sign |~r>)/sqrt(2), r < 2^(n-1)."""
    half = 2 ** (n - 1)
    r = np.arange(half)
    v = np.zeros((2 * half, half))
    v[r, r] = 1 / math.sqrt(2)
    v[2 * half - 1 - r, r] = sign / math.sqrt(2)
    return v


def flip_signs(space):
    """<v|F|v> for each column v, F = X^n the spin flip (F|r> = |2^n - 1 - r>)."""
    return np.einsum("ij,ij->j", space.conj(), space[::-1]).real


def lone_y_field_terms():
    """An H with a lone Y field on qubit 2: odd under the spin flip, complex, one block."""
    n = 4
    return [
        (0.8, PauliString(n, 1, 0b0010, 0b0010)),  # Y on qubit 2
        (-1.0, PauliString(n, 0, 0, 0b0011)),
        (0.25, PauliString(n, 2, 0b1100, 0b1100)),
        (-0.3, PauliString(n, 0, 0b1000, 0)),
    ]


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpinChainSpec("heisenberg", 4, {})
        with pytest.raises(ValueError):
            SpinChainSpec("tfim", 2, {})
        with pytest.raises(ValueError):
            SpinChainSpec("tfim", 15, {})
        with pytest.raises(ValueError):
            SpinChainSpec("tfim", 4, {}, boundary="twisted")
        with pytest.raises(ValueError):
            SpinChainSpec("tfim", 4, {"g": math.inf})

    def test_tfim_rejects_next_nearest_coupling(self):
        with pytest.raises(ValueError):
            build_hamiltonian(SpinChainSpec("tfim", 4, {"k": 0.5, "g": 1.0}))

    @pytest.mark.parametrize("model, params", [
        ("tfim", {"h": 1.0}),
        ("annni", {"kk": 0.5, "g": 1.0}),
        ("xxz", {"g": 1.0}),
    ])
    def test_rejects_couplings_the_model_does_not_take(self, model, params):
        with pytest.raises(ValueError, match="no coupling"):
            SpinChainSpec(model, 4, params)

    def test_rejects_periodic_annni_at_three_qubits(self):
        with pytest.raises(ValueError, match="next-nearest bonds coincide"):
            SpinChainSpec("annni", 3, {"k": 1.0, "g": 0.0})
        SpinChainSpec("annni", 3, {"k": 1.0, "g": 0.0}, boundary="open")


class TestBuildHamiltonian:
    def test_tfim_periodic(self):
        terms = term_dict(
            build_hamiltonian(SpinChainSpec("tfim", 3, {"g": 1.0}))
        )
        assert terms == {
            "+ZZI": -1.0, "+IZZ": -1.0, "+ZIZ": -1.0,
            "+XII": -1.0, "+IXI": -1.0, "+IIX": -1.0,
        }

    def test_annni_open_no_field(self):
        terms = term_dict(
            build_hamiltonian(
                SpinChainSpec("annni", 4, {"k": 0.5, "g": 0.0}, boundary="open")
            )
        )
        assert terms == {
            "+ZZII": -1.0, "+IZZI": -1.0, "+IIZZ": -1.0,
            "+ZIZI": 0.5, "+IZIZ": 0.5,
        }

    def test_xxz_open_two_qubits(self):
        terms = term_dict(
            build_hamiltonian(
                SpinChainSpec("xxz", 3, {"delta": 1.0, "h": 0.0}, boundary="open")
            )
        )
        assert terms == {
            "+XXI": 0.25, "+YYI": 0.25, "+ZZI": 0.25,
            "+IXX": 0.25, "+IYY": 0.25, "+IZZ": 0.25,
        }

    def test_zero_weights_dropped(self):
        terms = build_hamiltonian(SpinChainSpec("tfim", 3, {"g": 0.0}))
        assert all(w != 0 for w, _ in terms)
        assert len(terms) == 3  # only the ZZ bonds remain


class TestApplyPauli:
    def test_expectation_examples(self):
        zero4 = np.zeros(16, dtype=complex)
        zero4[0] = 1.0
        assert pauli_expectation(zero4, parse_pauli("ZZII")) == pytest.approx(1.0)
        plus4 = np.full(16, 0.25, dtype=complex)
        assert pauli_expectation(plus4, parse_pauli("IIXI")) == pytest.approx(1.0)
        bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
        assert pauli_expectation(bell, parse_pauli("YY")) == pytest.approx(-1.0)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            pauli_expectation(np.array([1.0, 0.0]), PauliString(1, 1, 1, 0))


class TestHamiltonianMatrix:
    @pytest.mark.parametrize("model, params", [
        ("tfim", {"g": 0.7}),
        ("annni", {"k": 0.3, "g": 0.9}),
        ("xxz", {"delta": -0.6, "h": 0.4}),
    ])
    @pytest.mark.parametrize("n", [4, 5])
    def test_matches_kronecker_sum(self, model, params, n):
        for boundary in ("periodic", "open"):
            terms = build_hamiltonian(SpinChainSpec(model, n, params, boundary))
            h = dense_hamiltonian(terms)
            pattern = SectorPattern(p for _, p in terms)
            assert pattern.signs == (1.0, -1.0)
            for sign, block in zip(pattern.signs, pattern.blocks(terms)):
                assert block.dtype == np.float64
                v = flip_basis(n, sign)
                assert np.allclose(block.toarray(), v.T @ h @ v, atol=1e-14)

    def test_pattern_of_absent_terms_gives_the_same_blocks(self):
        # a sweep's pattern holds every term of the model; h = 0 drops the fields
        spec = SpinChainSpec("xxz", 6, {"delta": 0.3, "h": 0.0})
        terms = build_hamiltonian(spec)
        wider = SectorPattern(p for _, p in build_hamiltonian(spec.with_params({"delta": 1, "h": 1})))
        for own, wide in zip(SectorPattern(p for _, p in terms).blocks(terms), wider.blocks(terms)):
            for a, b in ((own.data, wide.data), (own.indices, wide.indices), (own.indptr, wide.indptr)):
                assert np.array_equal(a, b)

    def test_lone_y_field_is_complex(self):
        terms = lone_y_field_terms()
        pattern = SectorPattern(p for _, p in terms)
        (h,) = pattern.blocks(terms)  # odd under the spin flip: one block, H itself
        assert pattern.signs == (1.0,)
        assert np.iscomplexobj(h.toarray())
        assert np.allclose(h.toarray(), dense_hamiltonian(terms), atol=1e-14)


class TestLowest:
    """``spinchain._lowest``, the plain Lanczos recurrence, against dense ``eigh`` of the block."""

    @pytest.mark.parametrize("terms", [
        build_hamiltonian(SpinChainSpec("annni", 8, {"k": 0.3, "g": 0.9})),
        build_hamiltonian(SpinChainSpec("xxz", 9, {"delta": -0.6, "h": 0.4})),
        lone_y_field_terms(),
    ], ids=["annni8", "xxz9", "lone-y"])
    def test_matches_dense(self, terms):
        rng = np.random.default_rng(3)
        pattern = SectorPattern(p for _, p in terms)
        # one set of Lanczos rows for every solve, as in a sweep, and NaN where
        # no solve has written: no row a solve did not write may reach a result
        rows = len(pattern.cols)
        basis = np.full((rows + 1, rows), np.nan, pattern.per_term.dtype)
        for h in pattern.blocks(terms):
            evals, evecs = np.linalg.eigh(h.toarray())
            level, vec = spinchain._lowest(h, rng.normal(size=h.shape[0]), basis)
            assert level == pytest.approx(evals[0], abs=1e-12)
            assert vec.dtype == h.dtype and abs(np.linalg.norm(vec) - 1.0) < 1e-12
            # up to phase, or, where the block's lowest level is degenerate
            # (xxz9, lone-y), inside its eigenspace
            space = evecs[:, evals < evals[0] + DEGENERACY_THRESHOLD]
            assert np.linalg.norm(vec - space @ (space.conj().T @ vec)) < 1e-9
            # B + sigma Q, Q onto the dense lowest vector: the dense second level
            sigma = evals[-1] - evals[0] + 1.0
            deflated, _ = spinchain._lowest(
                h, rng.normal(size=h.shape[0]), basis, evecs[:, :1].T, sigma
            )
            assert deflated == pytest.approx(evals[1], abs=1e-12)

    @pytest.mark.parametrize("g", [
        0.7,
        1.0,  # the deflated level is 0, where only rounding can meet the stop rule
    ])
    def test_four_row_sectors_break_down(self, monkeypatch, g):
        # at n = 3 each 4-row flip sector of the TFIM holds a degenerate pair
        # (momenta +-2pi/3), so the Krylov space closes after 3 steps; a cap
        # of 3 raises unless the breakdown stops the recurrence, and no Ritz
        # test runs before it
        monkeypatch.setattr(spinchain, "_KRYLOV_CAP", 3)
        monkeypatch.setattr(spinchain, "_CHECK_EVERY", 100)
        terms = build_hamiltonian(SpinChainSpec("tfim", 3, {"g": g}))
        pattern = SectorPattern(p for _, p in terms)
        assert [h.shape[0] for h in pattern.blocks(terms)] == [4, 4]
        gs = ground_state(terms)
        evals = np.linalg.eigvalsh(dense_hamiltonian(terms))
        assert gs.energy == pytest.approx(evals[0], abs=1e-12)
        assert gs.dimension == np.count_nonzero(evals < evals[0] + DEGENERACY_THRESHOLD)

    @pytest.mark.parametrize("terms", [
        [(0.82, parse_pauli("X"))],  # two 1-row flip sectors
        [(0.32, parse_pauli("YZ")), (-0.3, parse_pauli("XX")), (-0.63, parse_pauli("IX"))],
    ], ids=["one-qubit", "two-qubit"])
    def test_blocks_of_one_and_two_rows(self, terms):
        # below ARPACK's smallest size, which eigsh refused on an operator
        evals = np.linalg.eigvalsh(dense_hamiltonian(terms))
        gs = ground_state(terms)
        assert gs.energy == pytest.approx(evals[0], abs=1e-12)
        assert gs.gap_estimate == pytest.approx(evals[1] - evals[0], abs=1e-12)

    def test_the_krylov_cap_gives_an_error_record(self, monkeypatch):
        monkeypatch.setattr(spinchain, "_KRYLOV_CAP", 5)
        spec = SpinChainSpec("annni", 6, {})
        ms = hamiltonian_measurement_set(spec, "first-cell")
        (record,) = sweep(spec, [{"k": 0.3, "g": 0.9}], ms, v_representation(ms))
        assert record.solver_status.startswith("error") and "cap of 5 steps" in record.solver_status
        assert record.energy is None and record.rom is None

    @pytest.mark.parametrize("delta, d, count", [
        (-1.1, 2, 4),  # minima of both blocks, then a deflated solve in each
        (-1.0, 7, 9),  # the ferromagnetic multiplet, 4 + 3 levels and each block's first above
    ], ids=["doublet", "multiplet"])
    def test_each_round_solves_the_blocks_still_in_the_ground_space(
        self, monkeypatch, delta, d, count
    ):
        solves = []
        lowest = spinchain._lowest

        def recording(block, *args):
            solves.append(block.shape[0])
            return lowest(block, *args)

        monkeypatch.setattr(spinchain, "_lowest", recording)
        gs = ground_state(build_hamiltonian(SpinChainSpec("xxz", 6, {"delta": delta, "h": 0.0})))
        assert gs.dimension == d
        assert solves == [32] * count


class TestGroundState:
    def test_classical_ising_limit(self):
        spec = SpinChainSpec("tfim", 4, {"g": 0.0})
        gs = ground_state(build_hamiltonian(spec))
        assert gs.energy == pytest.approx(-4.0)
        assert pauli_expectation(gs.state, parse_pauli("ZZII")) == pytest.approx(1.0)
        assert abs(pauli_expectation(gs.state, parse_pauli("XIII"))) < 1e-9
        assert gs.degenerate_flag  # all-up / all-down degeneracy

    def test_strong_field_limit(self):
        spec = SpinChainSpec("tfim", 4, {"g": 50.0})
        gs = ground_state(build_hamiltonian(spec))
        assert pauli_expectation(gs.state, parse_pauli("XIII")) >= 0.999

    def test_xxz_ferromagnet(self):
        spec = SpinChainSpec("xxz", 4, {"delta": -1.5, "h": 0.0})
        gs = ground_state(build_hamiltonian(spec))
        assert pauli_expectation(gs.state, parse_pauli("ZZII")) == pytest.approx(1.0)

    def test_eigenpair_residual_and_norm(self):
        spec = SpinChainSpec("tfim", 5, {"g": 0.7})
        terms = build_hamiltonian(spec)
        gs = ground_state(terms)
        h = dense_hamiltonian(terms)
        assert np.linalg.norm(h @ gs.state - gs.energy * gs.state) < 1e-8
        assert abs(np.linalg.norm(gs.state) - 1.0) < 1e-12
        assert gs.gap_estimate >= 0.0

    def test_krylov_path_matches_dense(self):
        for model, params, min_gap in (
            ("annni", {"k": 0.4, "g": 0.9}, 0.5),
            ("xxz", {"delta": -0.5, "h": 1.5}, 0.3),
        ):
            for n in range(3, 9):
                boundary = "open" if n == 3 else "periodic"  # periodic annni starts at n = 4
                terms = build_hamiltonian(SpinChainSpec(model, n, params, boundary))
                evals, evecs = np.linalg.eigh(dense_hamiltonian(terms))
                assert evals[1] - evals[0] > min_gap  # non-degenerate, so the state is unique
                krylov = ground_state(terms)
                assert krylov.energy == pytest.approx(evals[0], abs=1e-8)
                assert krylov.gap_estimate == pytest.approx(evals[1] - evals[0], abs=1e-6)
                # orthonormal spin-flip eigenvectors, whichever sector holds them
                space = krylov.ground_space
                assert np.allclose(space.T @ space, np.eye(krylov.dimension), atol=1e-12)
                assert np.allclose(np.abs(flip_signs(space)), 1.0, atol=1e-12)
                for p in ("ZZ" + "I" * (n - 2), "X" + "I" * (n - 1)):
                    assert pauli_expectation(krylov.state, parse_pauli(p)) == pytest.approx(
                        pauli_expectation(evecs[:, 0], parse_pauli(p)), abs=1e-6
                    )

    @pytest.mark.parametrize("field", ["z", "y"])
    def test_flip_odd_terms_match_dense(self, field):
        # a field odd under the spin flip leaves one block, H itself: real with
        # a longitudinal Z field, complex with a Y field
        for n in range(3, 8):
            terms = build_hamiltonian(SpinChainSpec("tfim", n, {"g": 0.8}))
            bit = 1 << (n // 2)
            odd = PauliString(n, 0, 0, bit) if field == "z" else PauliString(n, 1, bit, bit)
            terms = terms + [(0.3, odd)]
            assert SectorPattern(p for _, p in terms).signs == (1.0,)
            h = dense_hamiltonian(terms)
            evals = np.linalg.eigvalsh(h)
            gs = ground_state(terms)
            assert gs.energy == pytest.approx(evals[0], abs=1e-10)
            assert gs.gap_estimate == pytest.approx(evals[1] - evals[0], abs=1e-10)
            assert np.iscomplexobj(gs.state) == (field == "y")
            assert abs(np.linalg.norm(gs.state) - 1.0) < 1e-12
            assert np.linalg.norm(h @ gs.state - gs.energy * gs.state) < 1e-8

    @pytest.mark.parametrize("model, params", [
        ("xxz", {"delta": -1.1, "h": 0.0}),
        ("annni", {"k": 0.25, "g": 0.0}),
    ])
    def test_sparse_path_flags_degeneracy(self, model, params):
        for n in (6, 8):  # ferromagnetic doublets
            gs = ground_state(build_hamiltonian(SpinChainSpec(model, n, params)))
            assert gs.degenerate_flag
            assert gs.gap_estimate < 1e-8

    def test_empty_terms_rejected(self):
        with pytest.raises(ValueError):
            ground_state([])

    def test_fifteen_qubits_rejected(self):
        # refused before any 2^15 array is built
        with pytest.raises(ValueError, match="capped at 14 qubits"):
            ground_state([(1.0, PauliString(15, 0, 0, 0b11))])

    def test_diagonal_ground_space_rejects_non_hermitian_paulis(self):
        gs = ground_state(build_hamiltonian(SpinChainSpec("tfim", 4, {"g": 0.0})))
        assert gs.ground_space.ndim == 1  # basis-state indices, not columns
        assert gs.expectations([PauliString(4, 0, 0, 0b11)]) == (1.0,)
        with pytest.raises(ValueError, match="Hermitian"):
            gs.expectations([PauliString(4, 1, 0, 0b1)])  # iZ


class TestSmallChains:
    """Every point of small chains' grids against dense ``eigh`` of the full H.

    Their sector blocks have 4-32 rows, and the Lanczos recurrence runs
    up to the block's dimension or past it.
    """

    GRIDS = {"tfim": "g=0:10:21", "annni": "k=0:1.5:7,g=0:10:11", "xxz": "delta=-2:2:9,h=0:10:11"}

    @pytest.mark.parametrize("model, boundary, n", [
        (model, boundary, n)
        for model in GRIDS for boundary in ("periodic", "open") for n in range(3, 7)
        if (model, boundary, n) != ("annni", "periodic", 3)
    ])
    def test_every_point_matches_dense(self, model, boundary, n):
        spec = SpinChainSpec(model, n, {}, boundary)
        ms = hamiltonian_measurement_set(spec, "all-terms")
        paulis = np.array([pauli_matrix(p) for p in ms])
        for point in _parse_grid(self.GRIDS[model]):
            terms = build_hamiltonian(spec.with_params(point))
            gs = ground_state(terms)
            evals, evecs = np.linalg.eigh(dense_hamiltonian(terms))
            space = evecs[:, evals < evals[0] + DEGENERACY_THRESHOLD]
            # tr(P Pi)/d over the dense ground space
            dense = np.einsum("ia,pij,ja->p", space.conj(), paulis, space).real / space.shape[1]
            assert gs.energy == pytest.approx(evals[0], abs=1e-9), point
            assert gs.dimension == space.shape[1], point
            assert np.allclose(gs.expectations(ms), dense, rtol=0, atol=1e-9), point


class TestGroundSpace:
    @pytest.mark.parametrize("model, n, params, d", [
        ("annni", 6, {"k": 0.75, "g": 0.0}, 18),  # diagonal: basis states
        ("tfim", 5, {"g": 0.0}, 2),
        ("xxz", 7, {"delta": 0.0, "h": 0.0}, 4),  # Lanczos: orthonormal columns
        ("xxz", 6, {"delta": -1.0, "h": 0.0}, 7),  # the ferromagnetic multiplet
    ])
    def test_matches_dense_projector(self, model, n, params, d):
        spec = SpinChainSpec(model, n, params)
        terms = build_hamiltonian(spec)
        evals, evecs = np.linalg.eigh(dense_hamiltonian(terms))
        space = evecs[:, evals < evals[0] + DEGENERACY_THRESHOLD]
        assert space.shape[1] == d
        gs = ground_state(terms)
        assert gs.degenerate_flag and gs.dimension == d
        assert gs.energy == pytest.approx(evals[0], abs=1e-10)
        assert np.linalg.norm(dense_hamiltonian(terms) @ gs.state - gs.energy * gs.state) < 1e-8
        ms = hamiltonian_measurement_set(spec, "all-terms")
        for p, value in zip(ms, gs.expectations(ms)):
            exact = np.trace(space.conj().T @ pauli_matrix(p) @ space).real / d
            assert value == pytest.approx(exact, abs=1e-9)
        # a Pauli on two qubits the chain does not have
        with pytest.raises(ValueError, match="state length does not match qubit count"):
            gs.expectations([PauliString(n + 2, 0, 0, 0b11 << n)])

    @pytest.mark.parametrize("n, delta, d", [
        (6, -1.1, 2),  # the ferromagnetic doublet: one level in each sector
        (8, -1.1, 2),
        (7, 0.0, 4),  # two levels in each sector
        (6, -1.0, 7),  # the ferromagnetic multiplet: four and three
    ])
    def test_columns_are_spin_flip_eigenvectors(self, n, delta, d):
        terms = build_hamiltonian(SpinChainSpec("xxz", n, {"delta": delta, "h": 0.0}))
        evals, evecs = np.linalg.eigh(dense_hamiltonian(terms))
        space = evecs[:, evals < evals[0] + DEGENERACY_THRESHOLD]
        gs = ground_state(terms)
        assert gs.dimension == space.shape[1] == d
        assert gs.energy == pytest.approx(evals[0], abs=1e-8)
        assert gs.gap_estimate == pytest.approx(evals[1] - evals[0], abs=1e-6)
        assert np.allclose(gs.ground_space.T @ gs.ground_space, np.eye(d), atol=1e-12)
        signs = flip_signs(gs.ground_space)
        assert np.allclose(np.abs(signs), 1.0, atol=1e-12)
        # the + sector holds (d + tr(F Pi)) / 2 of the levels
        assert np.sum(signs > 0) == round((d + flip_signs(space).sum()) / 2)

    def test_non_degenerate_expectation_is_the_state_s(self):
        spec = SpinChainSpec("annni", 8, {"k": 0.3, "g": 0.9})
        ms = hamiltonian_measurement_set(spec, "all-terms")
        gs = ground_state(build_hamiltonian(spec))
        assert not gs.degenerate_flag and gs.dimension == 1
        assert gs.ground_space.shape == (2**spec.n, 1)
        (record,) = sweep(spec, [{"k": 0.3, "g": 0.9}], ms, v_representation(ms))
        assert record.expectations == tuple(pauli_expectation(gs.state, p) for p in ms)

    def test_seed_independent(self, monkeypatch):
        terms = build_hamiltonian(SpinChainSpec("xxz", 9, {"delta": 0.0, "h": 0.0}))
        ms = hamiltonian_measurement_set(SpinChainSpec("xxz", 9, {}), "all-terms")
        values = []
        for seed in (1234, 1, 2):
            monkeypatch.setattr(spinchain, "_SEED", seed)
            gs = ground_state(terms)
            assert gs.dimension == 4
            values.append(gs.expectations(ms))
        assert np.ptp(values, axis=0).max() < 1e-9

    @pytest.mark.parametrize("delta, cap, d", [
        (-1.1, 1, 2),  # the ferromagnetic doublet
        (-1.0, 6, 7),  # the ferromagnetic multiplet, d = n + 1
        (-1.0, 7, 7),
    ], ids=["d2-cap1", "d7-cap6", "d7-cap7"])
    def test_ground_space_above_cap_is_an_error_row(self, monkeypatch, delta, cap, d):
        spec = SpinChainSpec("xxz", 6, {})
        ms = hamiltonian_measurement_set(spec, "first-cell")
        point = {"delta": delta, "h": 0.0}
        monkeypatch.setattr(spinchain, "GROUND_SPACE_CAP", cap)
        (record,) = sweep(spec, [point], ms, v_representation(ms))
        if d <= cap:
            assert record.solver_status == "optimal" and record.degenerate_flag
            assert ground_state(build_hamiltonian(spec.with_params(point))).dimension == d
        else:
            assert record.solver_status.startswith("error") and f"d >= {d}" in record.solver_status
            assert record.rom is None and record.expectations is None


class TestZeroFieldAnnni:
    """The g = 0 ANNNI line is diagonal: its ground space is a set of
    basis states, stabilizer states all, so rom is 1 whatever the seed."""

    @pytest.mark.parametrize("n", [8, 10])
    def test_rom_one_for_every_seed(self, monkeypatch, n):
        spec = SpinChainSpec("annni", n, {})
        ms = hamiltonian_measurement_set(spec, "all-terms")
        vset = v_representation(ms)
        for k in (0.0, 0.25, 0.5, 0.75, 1.0):
            terms = build_hamiltonian(spec.with_params({"k": k, "g": 0.0}))
            for seed in (1234, 1, 2):
                monkeypatch.setattr(spinchain, "_SEED", seed)
                gs = ground_state(terms)
                b = ExpectationVector.of(gs.expectations(ms))
                result = reduced_rom(vset, b)
                assert result.path == "symmetric", (k, seed)
                assert abs(result.rom - 1.0) <= 1e-6, (k, seed, result.rom)

    def test_flagged_grid_points_take_the_symmetric_path(self):
        # the two lowest-field columns of the 20x20 n = 10 grid, which hold
        # all its flagged points
        spec = SpinChainSpec("annni", 10, {})
        ms = hamiltonian_measurement_set(spec, "all-terms")
        grid = [{"k": float(k), "g": float(g)}
                for k in np.linspace(0.0, 1.0, 20) for g in np.linspace(0.0, 2.0, 20)[:2]]
        vset = v_representation(ms)
        flagged = 0
        for point in grid:
            gs = ground_state(build_hamiltonian(spec.with_params(point)))
            if gs.degenerate_flag:
                flagged += 1
                b = ExpectationVector.of(gs.expectations(ms))
                result = reduced_rom(vset, b)
                assert result.path == "symmetric" and result.status == "optimal", point
        assert flagged == 26


class TestPhysicalInvariants:
    def test_energy_consistency(self):
        for model, params in (
            ("annni", {"k": 0.3, "g": 0.7}),
            ("xxz", {"delta": -0.5, "h": 0.4}),
        ):
            spec = SpinChainSpec(model, 6, params)
            terms = build_hamiltonian(spec)
            gs = ground_state(terms)
            total = sum(w * pauli_expectation(gs.state, p) for w, p in terms)
            assert abs(total - gs.energy) < 1e-8

    def test_variational_bound(self):
        rng = np.random.default_rng(13)
        spec = SpinChainSpec("tfim", 5, {"g": 1.0})
        terms = build_hamiltonian(spec)
        gs = ground_state(terms)
        h = dense_hamiltonian(terms)
        for _ in range(10):
            # random product state
            phi = np.ones(1, dtype=complex)
            for _ in range(5):
                single = rng.normal(size=2) + 1j * rng.normal(size=2)
                phi = np.kron(single / np.linalg.norm(single), phi)
            assert gs.energy <= np.vdot(phi, h @ phi).real + 1e-10

    def test_translation_covariance(self):
        spec = SpinChainSpec("tfim", 6, {"g": 1.3})
        gs = ground_state(build_hamiltonian(spec))
        assert not gs.degenerate_flag
        a = pauli_expectation(gs.state, parse_pauli("ZZIIII"))
        b = pauli_expectation(gs.state, parse_pauli("IZZIII"))
        assert abs(a - b) < 1e-6

    def test_expectations_in_range(self):
        spec = SpinChainSpec("xxz", 5, {"delta": 0.8, "h": 0.6})
        gs = ground_state(build_hamiltonian(spec))
        for p in hamiltonian_measurement_set(spec, "all-terms"):
            v = pauli_expectation(gs.state, p)
            assert -1.0 <= v <= 1.0

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("n", range(3, 15))
    def test_tfim_ground_state_is_free_fermions(self, n, boundary):
        # H = -sum Z_i Z_i+1 - g sum X_i is free fermions under Jordan-Wigner
        # (Pfeuty, Ann. Phys. 57, 79, 1970): E0 = -sum of the mode energies,
        # and sum <X_i> = -dE0/dg by Hellmann-Feynman.  Periodic: the
        # even-parity modes k = pi (2j + 1) / n.  Open: the singular values
        # of g I - (ones on the superdiagonal), whose derivative in g is u.v.
        spec = SpinChainSpec("tfim", n, {}, boundary)
        ms = hamiltonian_measurement_set(spec, "all-terms")
        k = np.pi * (2 * np.arange(n) + 1) / n
        for g in (0.5, 0.9, 1.0, 1.7, 4.0):
            if boundary == "periodic":
                modes = np.sqrt(1 + g * g - 2 * g * np.cos(k))
                x_sum = np.sum((g - np.cos(k)) / modes)
            else:
                u, modes, vt = np.linalg.svd(g * np.eye(n) - np.eye(n, k=1))
                x_sum = np.sum(u * vt.T)
            gs = ground_state(build_hamiltonian(spec.with_params({"g": g})))
            expectations = gs.expectations(ms)
            assert abs(gs.energy + modes.sum()) < 1e-12
            assert abs(sum(v for v, p in zip(expectations, ms) if p.xbits) - x_sum) < 1e-9


class TestMeasurementSets:
    def test_tfim_first_cell(self):
        ms = hamiltonian_measurement_set(SpinChainSpec("tfim", 4, {"g": 1.0}), "first-cell")
        assert [format_pauli(p) for p in ms] == ["+ZZII", "+XIII"]

    def test_annni_first_cell(self):
        ms = hamiltonian_measurement_set(
            SpinChainSpec("annni", 4, {"k": 0.5, "g": 1.0}), "first-cell"
        )
        assert [format_pauli(p) for p in ms] == ["+ZZII", "+ZIZI", "+XIII"]

    def test_annni_all_terms(self):
        ms = hamiltonian_measurement_set(
            SpinChainSpec("annni", 4, {"k": 0.5, "g": 1.0}), "all-terms"
        )
        assert sorted(format_pauli(p) for p in ms) == sorted([
            "+ZZII", "+IZZI", "+IIZZ", "+ZIIZ", "+ZIZI", "+IZIZ",
            "+XIII", "+IXII", "+IIXI", "+IIIX",
        ])

    def test_xxz_all_terms_open(self):
        ms = hamiltonian_measurement_set(
            SpinChainSpec("xxz", 3, {"delta": 1.0, "h": 0.5}, boundary="open"),
            "all-terms",
        )
        assert sorted(format_pauli(p) for p in ms) == sorted([
            "+XXI", "+YYI", "+ZZI", "+IXX", "+IYY", "+IZZ",
            "+XII", "+IXI", "+IIX",
        ])

    def test_signs_stripped_even_at_zero_weight(self):
        # structural terms keep zero-weight entries for the measurement set
        ms = hamiltonian_measurement_set(
            SpinChainSpec("annni", 4, {"k": 0.0, "g": 0.0}), "all-terms"
        )
        assert any(p.xbits for p in ms)  # X terms present despite g=0

    def test_unknown_scope(self):
        with pytest.raises(ValueError):
            hamiltonian_measurement_set(SpinChainSpec("tfim", 4, {}), "everything")

    @pytest.mark.parametrize("model", sorted(spinchain.COUPLINGS))
    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    def test_first_cell_is_the_first_cell_of_all_terms(self, model, boundary):
        # its Paulis are in all-terms, in the same order
        for n in range(3, 15):
            if (model, n, boundary) == ("annni", 3, "periodic"):
                continue
            spec = SpinChainSpec(model, n, {}, boundary)
            cell = list(hamiltonian_measurement_set(spec, "first-cell"))
            every = list(hamiltonian_measurement_set(spec, "all-terms"))
            assert [p for p in every if p in cell] == cell, (n, boundary)


class TestModelTable:
    """Each model's terms, weights and measurement sets, from its one entry in ``MODELS``."""

    COUPLINGS = {
        "tfim": {"g": 0.7}, "annni": {"k": 0.3, "g": 1.1}, "xxz": {"delta": -0.6, "h": 0.9},
    }

    # sha256 over every n = 3-14 and boundary, with no coupling given (each
    # weight that a coupling scales is then -0.0 or 0.0) and at the couplings
    # above: each weight's float.hex and Pauli in _structural_terms and
    # build_hamiltonian, then both scopes.  The term order fixes the all-terms
    # measurement order, so the scan CSV's columns and the vertex order.
    GOLDEN = {
        "tfim": "bec5a44daf07047477d28854b7e7a62aa1a62d4c56a0208cbed0294afa0b7af6",
        "annni": "2dcc3e59c7f00ee82b46f84d83fbbcc5eff31e371a7354cd7d0ae8b0e8543a0e",
        "xxz": "de4120040eefe70fa7b53c8f5533d06ff613f9b214aa8cee7b913183d638a4de",
    }

    @pytest.mark.parametrize("model", sorted(GOLDEN))
    def test_golden_term_lists(self, model):
        lines = []
        for n in range(3, 15):
            for boundary in ("periodic", "open"):
                if (model, n, boundary) == ("annni", 3, "periodic"):
                    continue
                for point in ({}, self.COUPLINGS[model]):
                    spec = SpinChainSpec(model, n, point, boundary)
                    lines.append(f"{model} {n} {boundary} {sorted(point.items())}")
                    for terms in (spinchain._structural_terms(spec), build_hamiltonian(spec)):
                        lines += [f"{w.hex()} {format_pauli(p)}" for w, p in terms]
                for scope in ("first-cell", "all-terms"):
                    lines.append(scope)
                    lines += [format_pauli(p) for p in hamiltonian_measurement_set(spec, scope)]
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.GOLDEN[model]

    def test_couplings_are_read_off_the_table(self):
        assert spinchain.COUPLINGS == {"tfim": ("g",), "annni": ("k", "g"), "xxz": ("delta", "h")}


class TestSweep:
    def test_tfim_sweep_shape_and_values(self):
        spec = SpinChainSpec("tfim", 6, {})
        ms = hamiltonian_measurement_set(spec, "first-cell")
        vset = v_representation(ms)
        grid = [{"g": 0.0}, {"g": 1.0}, {"g": 10.0}]
        records = sweep(spec, grid, ms, vset)
        assert [r.params for r in records] == grid
        assert all(r.solver_status == "optimal" for r in records)
        assert records[0].rom == pytest.approx(1.0, abs=1e-6)
        assert records[1].rom > 1.0 + 1e-3
        assert records[2].rom < records[1].rom

    @pytest.mark.parametrize("threads", [0, 2])
    def test_sweep_runs_on_one_thread_only(self, threads):
        spec = SpinChainSpec("tfim", 4, {})
        ms = hamiltonian_measurement_set(spec, "first-cell")
        with pytest.raises(ValueError, match="one thread"):
            sweep(spec, [{"g": 1.0}], ms, v_representation(ms), threads=threads)

    def test_expectations_are_those_of_the_vertex_set(self):
        # the same 18 Paulis in reverse order: the LP's polytope decides
        # which expectation goes in which coordinate
        spec = SpinChainSpec("annni", 6, {})
        ms = hamiltonian_measurement_set(spec, "all-terms")
        backwards = MeasurementSet(ms.paulis[::-1])
        point = {"k": 0.3, "g": 0.9}
        with pytest.raises(ValueError, match="vertex set"):
            sweep(spec, [point], ms, v_representation(backwards))
        (forward,) = sweep(spec, [point], ms, v_representation(ms))
        (reverse,) = spinchain.sweep_records(spec, [point], v_representation(backwards))
        assert reverse.expectations == forward.expectations[::-1]
        assert forward.rom == pytest.approx(1.246, abs=1e-3)
        assert reverse.solver_status == "optimal"
        assert reverse.rom == pytest.approx(forward.rom, abs=1e-9)

    def test_a_record_does_not_depend_on_the_lanczos_rows_before_it(self, monkeypatch):
        # a sweep keeps its Lanczos vectors across solves and points, so
        # a point's record must not depend on what they held before; one
        # CPU keeps every point below in one process
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        spec = SpinChainSpec("xxz", 8, {})
        ms = hamiltonian_measurement_set(spec, "all-terms")
        vset = v_representation(ms)
        point = {"delta": 0.3, "h": 0.7}
        (alone,) = spinchain.sweep_records(spec, [point], vset)
        # other chain sizes first
        for other in (SpinChainSpec("annni", 10, {}), SpinChainSpec("tfim", 5, {})):
            others = hamiltonian_measurement_set(other, "first-cell")
            grid = [{"g": 1.2}] if other.model == "tfim" else [{"k": 0.4, "g": 0.8}]
            list(spinchain.sweep_records(other, grid, v_representation(others)))
        # after longer recurrences in the same sweep: the doublet's deflated
        # solves and a point near the critical line
        grid = [{"delta": -1.1, "h": 0.0}, {"delta": 0.9, "h": 0.1}, point]
        *_, after = spinchain.sweep_records(spec, grid, vset)
        assert alone.solver_status == "optimal"
        assert after == alone

    # an XXZ n = 8 all-terms grid with a flagged point (delta = -1.1, h = 0)
    # and an error record (xxz takes no coupling g)
    SPLIT_GRID = [{"delta": 0.3, "h": 0.7}, {"delta": -1.1, "h": 0.0}, {"delta": 0.5, "g": 1.0},
                  {"delta": 0.9, "h": 0.1}, {"delta": -0.4, "h": 1.5}, {"delta": 1.6, "h": 0.0},
                  {"delta": 2.0, "h": 3.0}]

    @staticmethod
    def split_inputs():
        spec = SpinChainSpec("xxz", 8, {})
        return spec, v_representation(hamiltonian_measurement_set(spec, "all-terms"))

    def test_a_split_grid_gives_the_one_process_records_in_grid_order(self, monkeypatch):
        spec, vset = self.split_inputs()
        swept = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            swept[cpus] = list(spinchain.sweep_records(spec, self.SPLIT_GRID, vset))
        alone = swept[1]
        assert [r.params for r in alone] == self.SPLIT_GRID
        assert alone[1].degenerate_flag and alone[1].solver_status == "optimal"
        assert alone[2].solver_status.startswith("error: xxz has no coupling 'g'")
        assert swept[2] == alone
        assert swept[3] == alone

    def test_a_child_that_ends_early_leaves_its_points_to_the_caller(self, monkeypatch):
        spec, vset = self.split_inputs()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = list(spinchain.sweep_records(spec, self.SPLIT_GRID, vset))
        dump = pickle.dump

        def dump_once(record, out):  # each child ends after its first record
            dump(record, out)
            out.flush()
            os._exit(0)

        monkeypatch.setattr(pickle, "dump", dump_once)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert list(spinchain.sweep_records(spec, self.SPLIT_GRID, vset)) == alone

    @pytest.mark.parametrize("cpus, failing_call", [(2, 1), (3, 2)])
    def test_a_failed_fork_leaves_its_points_to_the_running_processes(self, monkeypatch, cpus,
                                                                       failing_call):
        # a fork at a process or memory limit raises; the sweep goes on
        # without that child, and the autouse fixture finds no child or pipe left
        spec = SpinChainSpec("tfim", 6, {})
        vset = v_representation(hamiltonian_measurement_set(spec, "all-terms"))
        grid = [{"g": g} for g in (0.5, 1.0, 1.5, 3.0)]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        alone = list(spinchain.sweep_records(spec, grid, vset))
        fork, calls = os.fork, []

        def fork_until_limit():
            calls.append(None)
            if len(calls) == failing_call:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", fork_until_limit)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        assert list(spinchain.sweep_records(spec, grid, vset)) == alone
        assert len(calls) == failing_call

    def test_closing_a_split_sweep_leaves_no_child(self, monkeypatch):
        spec, vset = self.split_inputs()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        records = spinchain.sweep_records(spec, self.SPLIT_GRID, vset)
        assert next(records).params == self.SPLIT_GRID[0]
        records.close()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_the_lanczos_rows_are_private_to_each_process(self):
        # a sweep forks with the pattern built: a child's rows must not reach the caller's
        terms = build_hamiltonian(SpinChainSpec("tfim", 4, {"g": 1.0}))
        krylov = SectorPattern(p for _, p in terms).krylov
        krylov[0, 0] = 1.0
        pid = os.fork()
        if pid == 0:
            try:
                krylov[0, 0] = 2.0
                os._exit(0)
            finally:
                os._exit(1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert krylov[0, 0] == 1.0

    def test_failures_recorded_not_raised(self):
        spec = SpinChainSpec("tfim", 6, {})
        ms = hamiltonian_measurement_set(spec, "first-cell")
        vset = v_representation(ms)
        grid = [{"g": 1.0, "k": 0.5}]  # tfim has no coupling k
        records = sweep(spec, grid, ms, vset)
        assert records[0].solver_status.startswith("error")
        assert records[0].rom is None

    def test_a_lanczos_residual_error_is_recorded_and_scan_exits_4(self, monkeypatch, tmp_path,
                                                                     capsys):
        # no residual meets a zero slack; g = 0.5:1.5:3 has no diagonal point,
        # so every point's ground state comes from _lowest
        monkeypatch.setattr(spinchain, "_RESIDUAL_SLACK", 0.0)
        spec = SpinChainSpec("tfim", 6, {})
        vset = v_representation(hamiltonian_measurement_set(spec, "first-cell"))
        grid = [{"g": 0.5}, {"g": 1.0}, {"g": 1.5}]
        records = list(spinchain.sweep_records(spec, grid, vset))
        assert [r.params for r in records] == grid
        for r in records:
            assert r.solver_status.startswith("error: Lanczos eigen-residual")
            assert r.rom is None
        out = tmp_path / "scan.csv"
        argv = ["scan", "--model", "tfim", "--n", "6", "--grid", "g=0.5:1.5:3", "--out", str(out)]
        assert main(argv) == EXIT_SOLVER
        err = capsys.readouterr().err
        for g in (0.5, 1.0, 1.5):
            assert f"g={g!r}: error: Lanczos eigen-residual" in err
        assert "3 grid points failed" in err
