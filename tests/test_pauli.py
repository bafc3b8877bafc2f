"""Symplectic Pauli algebra, validated against dense matrices."""

import numpy as np
import pytest
from functools import reduce

from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicscope.pauli import (
    MeasurementSet,
    PauliError,
    PauliString,
    commutes,
    format_pauli,
    hermitian,
    identity,
    identity_sign,
    multiply,
    pad,
    parse_pauli,
    pauli_expectation,
    pauli_expectations,
    read_measurement_file,
)
from util import pauli_matrix, pauli_pairs, pauli_strings


@st.composite
def signed_factors(draw, max_n=3):
    """1-6 signed Hermitian Paulis on one n; if drawn so, the last closes the product to i^k."""
    n = draw(st.integers(1, max_n))
    bits = st.integers(0, (1 << n) - 1)
    raw = draw(st.lists(st.tuples(bits, bits, st.booleans()), min_size=1, max_size=6))
    if draw(st.booleans()):
        x = z = 0
        for rx, rz, _ in raw[:-1]:
            x, z = x ^ rx, z ^ rz
        raw[-1] = (x, z, raw[-1][2])
    return [hermitian(n, x, z, negative) for x, z, negative in raw]


class TestPauliString:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 0, 0, 0), "qubit count must be positive"),
            ((-1, 0, 0, 0), "qubit count must be positive"),
            ((2, 4, 0, 0), "phase exponent"),
            ((2, -1, 0, 0), "phase exponent"),
            ((2, 0, 0b100, 0), "bit-vectors longer than qubit count"),
            ((2, 0, 0, 0b100), "bit-vectors longer than qubit count"),
        ],
    )
    def test_rejects_invalid_fields(self, args, message):
        with pytest.raises(PauliError, match=message):
            PauliString(*args)


class TestParseFormat:
    def test_parse_plus_xiz(self):
        p = parse_pauli("+XIZ")
        assert (p.n, p.phase_k, p.xbits, p.zbits) == (3, 0, 0b001, 0b100)

    def test_parse_minus_y(self):
        p = parse_pauli("-Y")
        assert (p.n, p.phase_k, p.xbits, p.zbits) == (1, 3, 1, 1)

    def test_parse_zz(self):
        p = parse_pauli("ZZ")
        assert (p.n, p.phase_k, p.xbits, p.zbits) == (2, 0, 0, 0b11)

    def test_parse_errors(self):
        with pytest.raises(PauliError):
            parse_pauli("XQ")
        with pytest.raises(PauliError):
            parse_pauli("+")
        with pytest.raises(PauliError):
            parse_pauli("")

    @given(pauli_strings(hermitian=True))
    def test_roundtrip(self, p):
        assert parse_pauli(format_pauli(p)) == p

    def test_format_rejects_imaginary_phase(self):
        with pytest.raises(PauliError):
            format_pauli(PauliString(1, 1, 1, 0))  # iX


class TestHermitian:
    def test_every_signed_pauli_matches_dense(self):
        for n in (1, 2):
            for x in range(1 << n):
                for z in range(1 << n):
                    # i^popcount(x & z) X^x Z^z: each Y = iXZ
                    unsigned = 1j ** bin(x & z).count("1") * pauli_matrix(PauliString(n, 0, x, z))
                    for negative in (False, True):
                        p = hermitian(n, x, z, negative)
                        dense = pauli_matrix(p)
                        assert np.allclose(dense, dense.conj().T)
                        assert np.allclose(dense, (-1 if negative else 1) * unsigned)
                        assert parse_pauli(format_pauli(p)) == p


def dense_expectation(p, space):
    """tr(P Pi)/d for the orthonormal columns of ``space``, from the Kronecker matrix of P."""
    return np.trace(space.conj().T @ pauli_matrix(p) @ space).real / space.shape[1]


def bits(values):
    """The IEEE bit patterns of floats, so that 0.0 and -0.0 differ."""
    return np.array(values, dtype=np.float64).view(np.uint64).tolist()


def kernel_inputs(n, seed):
    """A random real state, a random complex state and a random 2-column ground space on n qubits."""
    rng = np.random.default_rng(seed)
    real = rng.normal(size=2**n)
    complex_ = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    block = np.linalg.qr(rng.normal(size=(2**n, 2)) + 1j * rng.normal(size=(2**n, 2)))[0]
    return real / np.linalg.norm(real), complex_ / np.linalg.norm(complex_), block


class TestPauliExpectations:
    @settings(max_examples=150, deadline=None)
    @given(pauli_strings(hermitian=True), st.integers(0, 2**32 - 1))
    def test_matches_dense_trace(self, p, seed):
        for state in kernel_inputs(p.n, seed):
            space = state if state.ndim == 2 else state[:, None]
            assert pauli_expectations(state, [p])[0] == pytest.approx(
                dense_expectation(p, space), abs=1e-12
            )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_hermitian_pauli_in_one_batch(self, n):
        paulis = [
            hermitian(n, x, z, neg) for x in range(2**n) for z in range(2**n) for neg in (False, True)
        ]
        for state in kernel_inputs(n, 5 + n):
            values = pauli_expectations(state, paulis)
            space = state if state.ndim == 2 else state[:, None]
            assert values == pytest.approx([dense_expectation(p, space) for p in paulis], abs=1e-12)
            # a batch is its single calls bit for bit, in either order
            assert bits(values) == bits([pauli_expectation(state, p) for p in paulis])
            assert bits(pauli_expectations(state, paulis[::-1])) == bits(values)[::-1]

    def test_rejects_non_hermitian_and_wrong_length(self):
        state = kernel_inputs(2, 0)[1]
        with pytest.raises(ValueError, match="Hermitian"):
            pauli_expectations(state, [parse_pauli("XZ"), PauliString(2, 1, 0b01, 0)])  # iX
        with pytest.raises(ValueError, match="state length does not match qubit count"):
            pauli_expectations(state, [parse_pauli("XZ"), parse_pauli("XZZ")])
        with pytest.raises(ValueError, match="state length does not match qubit count"):
            pauli_expectation(kernel_inputs(3, 0)[2], parse_pauli("XZ"))
        # a norm of 1e4: the rounding of <P>, 1e8 in size, leaves an imaginary part of 2e-9
        with pytest.raises(ValueError, match="imaginary residue in Hermitian expectation"):
            pauli_expectation(1e4 * kernel_inputs(3, 1)[1], parse_pauli("XYZ"))


class TestMultiply:
    def test_x_times_y_is_iz(self):
        r = multiply(parse_pauli("X"), parse_pauli("Y"))
        assert (r.phase_k, r.xbits, r.zbits) == (1, 0, 1)

    def test_z_times_x_is_iy(self):
        r = multiply(parse_pauli("Z"), parse_pauli("X"))
        # iY = i * iXZ = i^2 XZ
        assert (r.phase_k, r.xbits, r.zbits) == (2, 1, 1)

    def test_xz_times_zx_is_yy(self):
        r = multiply(parse_pauli("XZ"), parse_pauli("ZX"))
        assert r == parse_pauli("YY")
        expected = pauli_matrix(parse_pauli("XZ")) @ pauli_matrix(parse_pauli("ZX"))
        assert np.allclose(pauli_matrix(r), expected)

    def test_mismatched_n(self):
        with pytest.raises(PauliError):
            multiply(parse_pauli("X"), parse_pauli("XX"))

    @given(pauli_pairs())
    @settings(max_examples=200)
    def test_matches_dense_product(self, pair):
        p1, p2 = pair
        assert np.allclose(
            pauli_matrix(multiply(p1, p2)), pauli_matrix(p1) @ pauli_matrix(p2)
        )

    @given(pauli_strings(hermitian=True))
    def test_hermitian_square_is_identity(self, p):
        assert identity_sign(multiply(p, p)) == 1

    @given(pauli_pairs(), pauli_strings())
    @settings(max_examples=100)
    def test_associativity(self, pair, p3):
        p1, p2 = pair
        p3 = PauliString(p1.n, p3.phase_k, p3.xbits & ((1 << p1.n) - 1),
                         p3.zbits & ((1 << p1.n) - 1))
        left = multiply(multiply(p1, p2), p3)
        right = multiply(p1, multiply(p2, p3))
        assert left == right


class TestCommutes:
    def test_examples(self):
        assert not commutes(parse_pauli("X"), parse_pauli("Z"))
        assert commutes(parse_pauli("XX"), parse_pauli("ZZ"))
        assert not commutes(parse_pauli("ZZI"), parse_pauli("XII"))

    def test_mismatched_n(self):
        with pytest.raises(PauliError, match="qubit counts differ"):
            commutes(parse_pauli("X"), parse_pauli("XX"))

    @given(pauli_pairs())
    @settings(max_examples=200)
    def test_matches_dense_commutator(self, pair):
        p1, p2 = pair
        m1, m2 = pauli_matrix(p1), pauli_matrix(p2)
        dense = np.allclose(m1 @ m2, m2 @ m1)
        assert commutes(p1, p2) == dense

    @given(pauli_pairs())
    def test_symmetry_and_sign_invariance(self, pair):
        p1, p2 = pair
        flipped = PauliString(p1.n, (p1.phase_k + 2) % 4, p1.xbits, p1.zbits)
        assert commutes(p1, p2) == commutes(p2, p1) == commutes(flipped, p2)


class TestIdentitySign:
    def test_examples(self):
        assert identity_sign(multiply(parse_pauli("X"), parse_pauli("X"))) == 1
        chain = multiply(multiply(parse_pauli("XX"), parse_pauli("YY")), parse_pauli("ZZ"))
        assert identity_sign(chain) == -1
        assert identity_sign(parse_pauli("Z")) is None

    def test_imaginary_identity_raises(self):
        with pytest.raises(PauliError):
            identity_sign(PauliString(1, 1, 0, 0))

    @given(signed_factors())
    @example([parse_pauli(t) for t in ("XX", "YY", "ZZ")])  # -1
    @example([parse_pauli(t) for t in ("X", "Z", "Y")])  # XZY = -i
    @example([parse_pauli(t) for t in ("-Y", "Y")])  # +1
    @example([parse_pauli(t) for t in ("XZ", "ZX")])  # YY, not a multiple of 1
    @settings(max_examples=300)
    def test_several_factors_are_the_multiply_chain(self, factors):
        try:
            expected = identity_sign(reduce(multiply, factors))
        except PauliError:
            with pytest.raises(PauliError, match="imaginary multiple of the identity"):
                identity_sign(*factors)
        else:
            assert identity_sign(*factors) == expected


class TestPad:
    def test_examples(self):
        assert format_pauli(pad(parse_pauli("X"), 3)) == "+XII"
        assert format_pauli(pad(parse_pauli("-ZZ"), 4)) == "-ZZII"
        assert not commutes(pad(parse_pauli("X"), 3), pad(parse_pauli("Z"), 3))

    def test_shrink_rejected(self):
        with pytest.raises(PauliError):
            pad(parse_pauli("XX"), 1)

    @given(pauli_pairs(hermitian=True))
    def test_padding_preserves_commutation(self, pair):
        p1, p2 = pair
        assert commutes(p1, p2) == commutes(pad(p1, p1.n + 2), pad(p2, p2.n + 2))


class TestMeasurementSet:
    def test_identity_rejected(self):
        with pytest.raises(PauliError):
            MeasurementSet.from_strings(["II", "XX"])

    def test_duplicate_rejected(self):
        with pytest.raises(PauliError):
            MeasurementSet.from_strings(["X", "X"])

    def test_plus_minus_pair_allowed(self):
        ms = MeasurementSet.from_strings(["+Z", "-Z"])
        assert ms.m == 2

    def test_non_hermitian_rejected(self):
        with pytest.raises(PauliError):
            MeasurementSet((PauliString(1, 1, 1, 0),))  # iX

    def test_y_is_hermitian(self):
        assert MeasurementSet.from_strings(["+Y"]).m == 1

    def test_mixed_widths_rejected(self):
        with pytest.raises(PauliError):
            MeasurementSet((parse_pauli("X"), parse_pauli("XX")))

    def test_empty_rejected(self):
        with pytest.raises(PauliError):
            MeasurementSet(())


class TestMeasurementFile:
    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# header\nXX  # transverse\n\n-ZZ\n")
        ms = read_measurement_file(path)
        assert [format_pauli(p) for p in ms] == ["+XX", "-ZZ"]
        # a UTF-8 byte-order mark, as some editors write, is not a character of line 1
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_measurement_file(path) == ms

    def test_width_mismatch_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("XX\nXXX\n")
        with pytest.raises(PauliError, match="line 2"):
            read_measurement_file(path)

    def test_duplicate_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("XX\nZZ\n+XX\n")
        with pytest.raises(PauliError, match="line 3"):
            read_measurement_file(path)

    def test_identity_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("XX\nII\n")
        with pytest.raises(PauliError, match="line 2: identity is not a valid measurement"):
            read_measurement_file(path)

    def test_bad_char_names_line(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("XX\nXQ\n")
        with pytest.raises(PauliError, match="line 2"):
            read_measurement_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# only comments\n")
        with pytest.raises(PauliError):
            read_measurement_file(path)


@given(pauli_strings(hermitian=True))
def test_hermitian_parity_invariant(p):
    assert p.is_hermitian
    assert (p.phase_k - (p.xbits & p.zbits).bit_count()) % 2 == 0
    dense = pauli_matrix(p)
    assert np.allclose(dense, dense.conj().T)


def test_identity_helper():
    assert identity(3) == PauliString(3, 0, 0, 0)
