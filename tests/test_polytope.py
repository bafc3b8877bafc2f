"""V-representation of the reduced stabilizer polytope."""

import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magicscope import polytope
from magicscope.fgraph import build_frustration_graph, enumerate_maximal_independent_sets
from magicscope.oracle import hull_contains, hull_equal, topdown_vertices
from magicscope.pauli import (
    MeasurementSet,
    PauliString,
    hermitian,
    identity,
    identity_sign,
    multiply,
    read_measurement_file,
)
from magicscope.polytope import admissible_signs, size_bound, v_representation
from magicscope.spinchain import SpinChainSpec, hamiltonian_measurement_set
from util import span_rank, vertex_json, vertex_txt

XXZ5_ALL_TERMS = hamiltonian_measurement_set(
    SpinChainSpec("xxz", 5, {"delta": 0.5, "h": 0.0}, "periodic"), "all-terms"
)
# the benchmark's restricted window: 109 maximal commuting subsets, 42 distinct eliminations
XXZ12_WINDOW = read_measurement_file(
    Path(__file__).resolve().parent.parent / "perfbench" / "data" / "xxz12_window.txt"
)
# two maximal commuting subsets whose eliminations differ only in lam (found by search)
OPPOSITE_LAM = MeasurementSet.from_strings(["-XI", "+IZ", "+XZ", "+XX", "-IX"])


def measurement_sets(max_n=3, max_m=6):
    """Random duplicate-free measurement sets with uniform qubit count."""

    def build(args):
        n, raws = args
        mask = (1 << n) - 1
        chosen = {}
        for x, z, sign in raws:
            x &= mask
            z &= mask
            if x == 0 and z == 0:
                continue
            k = ((x & z).bit_count() + 2 * sign) % 4
            chosen[(k, x, z)] = PauliString(n, k, x, z)
        return MeasurementSet(tuple(chosen.values())) if chosen else None

    raw = st.tuples(
        st.integers(0, (1 << max_n) - 1),
        st.integers(0, (1 << max_n) - 1),
        st.integers(0, 1),
    )
    return (
        st.tuples(st.integers(1, max_n), st.lists(raw, min_size=1, max_size=max_m))
        .map(build)
        .filter(lambda ms: ms is not None)
    )


def marginal_set(n):
    texts = []
    for q in range(n):
        for ch in "XYZ":
            texts.append("".join(ch if i == q else "I" for i in range(n)))
    return MeasurementSet.from_strings(texts)


def brute_force_signs(ms, subset):
    """Every f in {+-1}^|S|, in sorted order, with no signed subset product equal to -1."""
    identity_products = []
    for bits in range(1, 1 << len(subset)):
        prod = identity(ms.n)
        for j in range(len(subset)):
            if (bits >> j) & 1:
                prod = multiply(prod, ms[subset[j]])
        value = identity_sign(prod)
        if value is not None:
            identity_products.append((bits, value))
    admissible = []
    for f in itertools.product((-1, 1), repeat=len(subset)):
        signed = []
        for bits, value in identity_products:
            for j in range(len(subset)):
                if (bits >> j) & 1:
                    value *= f[j]
            signed.append(value)
        if -1 not in signed:
            admissible.append(f)
    return admissible


class TestAdmissibleSigns:
    def test_free_commuting_pair(self):
        ms = MeasurementSet.from_strings(["ZI", "IZ"])
        assert len(admissible_signs(ms, (0, 1))) == 4

    def test_product_constraint(self):
        ms = MeasurementSet.from_strings(["XX", "YY", "ZZ"])
        signs = admissible_signs(ms, (0, 1, 2))
        assert len(signs) == 4
        for f in signs:
            assert f[0] * f[1] * f[2] == -1  # XX.YY.ZZ = -1 forces odd parity

    def test_symplectic_matrix_of_xx_yy_zz(self):
        ms = MeasurementSet.from_strings(["XX", "YY", "ZZ"])
        # rank 2: XX and YY are the free pivots, and ZZ = -XX.YY takes the sign they fix
        assert span_rank(list(ms)) == 2
        block = polytope._sign_block(ms, (0, 1, 2))
        assert block.tolist() == [[-1, -1, -1], [-1, 1, 1], [1, -1, 1], [1, 1, -1]]

    def test_opposite_pair(self):
        ms = MeasurementSet.from_strings(["+Z", "-Z"])
        assert admissible_signs(ms, (0, 1)) == [(-1, 1), (1, -1)]

    def test_anticommuting_subset_rejected(self):
        ms = MeasurementSet.from_strings(["X", "Z"])
        with pytest.raises(ValueError):
            admissible_signs(ms, (0, 1))

    @given(measurement_sets())
    @settings(max_examples=100, deadline=None)
    def test_count_is_two_to_rank(self, ms):
        graph = build_frustration_graph(ms)
        for subset in enumerate_maximal_independent_sets(graph):
            rank = span_rank([ms[i] for i in subset])
            assert len(admissible_signs(ms, subset)) == 2**rank

    @given(measurement_sets())
    @settings(max_examples=60, deadline=None)
    def test_no_signed_subset_product_is_minus_identity(self, ms):
        graph = build_frustration_graph(ms)
        for subset in enumerate_maximal_independent_sets(graph):
            assert admissible_signs(ms, subset) == brute_force_signs(ms, subset)


class TestVRepresentation:
    def test_single_pauli_segment(self):
        vset = v_representation(MeasurementSet.from_strings(["Z"]))
        assert sorted(map(tuple, vset.vertices.tolist())) == [(-1,), (1,)]

    def test_commuting_pair_hypercube(self):
        vset = v_representation(MeasurementSet.from_strings(["XI", "IX"]))
        assert sorted(map(tuple, vset.vertices.tolist())) == [
            (-1, -1), (-1, 1), (1, -1), (1, 1),
        ]

    def test_anticommuting_pair_diamond(self):
        vset = v_representation(MeasurementSet.from_strings(["ZZ", "XI"]))
        assert sorted(map(tuple, vset.vertices.tolist())) == [
            (-1, 0), (0, -1), (0, 1), (1, 0),
        ]

    def test_opposite_pair_segment(self):
        vset = v_representation(MeasurementSet.from_strings(["+Z", "-Z"]))
        assert sorted(map(tuple, vset.vertices.tolist())) == [(-1, 1), (1, -1)]

    def test_octahedron(self):
        vset = v_representation(MeasurementSet.from_strings(["X", "Y", "Z"]))
        expected = sorted(
            tuple(s if i == axis else 0 for i in range(3))
            for axis in range(3)
            for s in (-1, 1)
        )
        assert sorted(map(tuple, vset.vertices.tolist())) == expected

    @pytest.mark.parametrize("n,count", [(1, 6), (2, 36), (3, 216)])
    def test_marginal_counts(self, n, count):
        vset = v_representation(marginal_set(n))
        assert len(vset.vertices) == count == 2**n * 3**n

    @given(measurement_sets())
    @settings(max_examples=60, deadline=None)
    def test_vertices_distinct_and_within_bound(self, ms):
        vset = v_representation(ms)
        assert len(set(map(tuple, vset.vertices.tolist()))) == len(vset.vertices)
        assert len(vset.vertices) <= size_bound(ms.n, ms.m)
        assert len(vset.vertices) <= 2 ** min(ms.n, ms.m) * 3 ** (ms.m // 3 + 1)

    @given(measurement_sets(max_n=3, max_m=5))
    @settings(max_examples=30, deadline=None)
    def test_padding_invariance(self, ms):
        base = v_representation(ms)
        padded = v_representation(ms.padded(ms.n + 2))
        assert base.to_txt() == padded.to_txt()
        assert [c["set"] for c in json.loads(base.to_json())["contexts"]] == [
            c["set"] for c in json.loads(padded.to_json())["contexts"]
        ]

    @given(measurement_sets(max_n=2, max_m=4))
    @settings(max_examples=25, deadline=None)
    def test_hull_matches_topdown_oracle(self, ms):
        bottom = v_representation(ms).vertices
        top = list(topdown_vertices(ms))
        assert hull_equal(bottom, top)

    @pytest.mark.parametrize(
        "texts",
        [
            pytest.param(["XII", "IZI", "IIX"], id="n3"),
            # Z on each of 17 qubits: one subset of rank 17, whose row index
            # needs uint32 where rank 16 fits uint16
            pytest.param(["I" * q + "Z" + "I" * (16 - q) for q in range(17)], id="n17"),
        ],
    )
    def test_commuting_free_set_gives_full_hypercube(self, texts):
        n = len(texts)
        vset = v_representation(MeasurementSet.from_strings(texts))
        # every sign assignment once, in sorted order
        hypercube = 2 * ((np.arange(1 << n)[:, None] >> np.arange(n - 1, -1, -1)) & 1) - 1
        assert vset.vertices.shape == (1 << n, n)
        assert np.array_equal(vset.vertices, hypercube)

    def test_vertex_extremality_small(self):
        for texts in (["X", "Y", "Z"], ["ZZ", "XI"], ["XI", "IX"]):
            rows = v_representation(MeasurementSet.from_strings(texts)).vertices.tolist()
            for i, row in enumerate(rows):
                others = [r for j, r in enumerate(rows) if j != i]
                assert not hull_contains([row], others)

    def test_contexts_follow_sets_and_signs(self):
        for ms in (
            MeasurementSet.from_strings(["XX", "YY", "ZZ", "XI"]),
            MeasurementSet.from_strings(["+Z", "-Z"]),
            marginal_set(2),
        ):
            expected = [
                {"set": list(subset), "signs": list(f)}
                for subset in enumerate_maximal_independent_sets(build_frustration_graph(ms))
                for f in admissible_signs(ms, subset)
            ]
            vset = v_representation(ms)
            assert json.loads(vset.to_json())["contexts"] == expected
            assert not vset.vertices.flags.writeable

    # sha256 of (to_json(), to_txt()): vertex files are the program's output,
    # so the bytes written for a measurement set must not change.
    GOLDEN = {
        ("XX", "YY", "ZZ", "XI"): (
            "c33b5451e79a7d3b31ab17fdbeb6f41244b8e898fb883981f182a44a37fff805",
            "a432685d05916f09f23267878eb8fee66e341f4362f31e8d13edb5c8adc89fd8",
        ),
        ("XI", "YI", "ZI", "IX", "IY", "IZ"): (
            "a8e6638d261748c7bb6ec9b21d99ce4cbeafc39ba5a4d6d6df4c49427bc7f344",
            "fa690e1d6f90c63543489b0a61cffdf89b5115a132470ee3cf00077e1f684644",
        ),
        ("+Z", "-Z"): (
            "803600aab7fc4baa032b0e5ec37d79b6044df8564d578a8865655a4604cfe5e4",
            "f48002e9abbe87a862af5dd8b8cd264ede43c31729e7bb5135eac96f76a0a96c",
        ),
    }

    @pytest.mark.parametrize("texts", sorted(GOLDEN))
    def test_golden_output(self, texts):
        vset = v_representation(MeasurementSet.from_strings(texts))
        digests = tuple(
            hashlib.sha256(body.encode()).hexdigest() for body in (vset.to_json(), vset.to_txt())
        )
        assert digests == self.GOLDEN[texts]

    def test_deterministic_output(self):
        ms = MeasurementSet.from_strings(["XX", "YY", "ZZ", "XI"])
        assert v_representation(ms).to_json() == v_representation(ms).to_json()

    def test_vertices_are_one_read_only_int8_array(self):
        ms = hamiltonian_measurement_set(SpinChainSpec("annni", 8, {}), "all-terms")
        vertices = v_representation(ms).vertices
        rows, m = vertices.shape
        assert (rows, m) == (25984, 24)
        assert vertices.dtype == np.int8
        assert not vertices.flags.writeable
        assert vertices.nbytes == rows * m

    def test_a_repeated_subset_is_a_duplicate_vertex(self, monkeypatch):
        # the check reads the subset list, not the rows: a subset enumerated
        # twice gives its whole block of vertices twice
        ms = MeasurementSet.from_strings(["X", "Y", "Z"])
        subsets = enumerate_maximal_independent_sets(build_frustration_graph(ms))
        monkeypatch.setattr(
            polytope, "enumerate_maximal_independent_sets", lambda g: subsets[:1] + subsets
        )
        with pytest.raises(AssertionError, match="duplicate vertices from distinct contexts"):
            v_representation(ms)

    @pytest.mark.parametrize(
        "model, n, shape",
        [
            pytest.param("annni", 10, (362240, 30), id="annni10"),
            pytest.param("xxz", 9, (228352, 36), id="xxz9"),
        ],
    )
    def test_build_peak_memory_is_near_the_vertex_array(self, model, n, shape):
        # N x m bytes is the int8 array, and each elimination's signs are
        # written into its subsets' rows: the rest is the eliminations, one
        # elimination's block and temporaries. Every block kept at once read
        # 1.175x at ANNNI n=10, per-subset blocks next to their concatenation
        # would be 2x, and a float64 copy of the array alone 8x.
        ms = hamiltonian_measurement_set(SpinChainSpec(model, n, {}), "all-terms")
        tracemalloc.start()
        try:
            vset = v_representation(ms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows, m = vset.vertices.shape
        assert (rows, m) == shape
        assert peak <= 1.2 * rows * m

    # The sweep benchmarks' sets: the build's bytes and block starts must not
    # move (the XXZ n=9 export is pinned in test_cli).  Each entry is the set,
    # the array's shape, the subset count, the first three and the last start,
    # and the sha256 of the int8 array and of the starts as int64.
    PINNED = {
        "annni10": (
            hamiltonian_measurement_set(SpinChainSpec("annni", 10, {}), "all-terms"),
            (362240, 30), 759, (0, 512, 1024), 361216,
            "6d07b4416ada249c0f028148d654a0af0514a867594db9de5bfb4a1dce6cfc9f",
            "1927bf84adbcfbff23d25b2088e15889245d8904978d4d7ab4d5de043057f927",
        ),
        "xxz12-window": (
            XXZ12_WINDOW, (7936, 25), 109, (0, 128, 256), 7872,
            "2787f8365817df6c23e007a8aa981b7b9a0d82a6f6b4b1934d20fd92f8fb7c08",
            "e43624e3543e40e843a3ee850078409f1590a9351eefbf524f4758bd563d9b75",
        ),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_the_largest_benchmark_array_is_pinned(self, name):
        ms, shape, count, first, last, digest, starts_digest = self.PINNED[name]
        vset = v_representation(ms)
        assert vset.vertices.shape == shape
        assert hashlib.sha256(vset.vertices.tobytes()).hexdigest() == digest
        assert len(vset.starts) == count
        assert vset.starts[:3] == first and vset.starts[-1] == last
        starts = np.array(vset.starts, dtype=np.int64)
        assert hashlib.sha256(starts.tobytes()).hexdigest() == starts_digest

    def test_opposite_lam_is_another_elimination(self):
        # {-XI, IZ, XZ} and {-XI, XX, -IX} both have pivots (0, 1) and the
        # dependent (2, (0, 1)), but XZ = -(-XI)(IZ) and XX = +(-XI)(-IX)
        subsets = enumerate_maximal_independent_sets(build_frustration_graph(OPPOSITE_LAM))
        assert (0, 1, 2) in subsets and (0, 3, 4) in subsets
        assert polytope._eliminate(OPPOSITE_LAM, (0, 1, 2)) == ((0, 1), ((2, (0, 1), -1),))
        assert polytope._eliminate(OPPOSITE_LAM, (0, 3, 4)) == ((0, 1), ((2, (0, 1), 1),))

    @given(measurement_sets(max_m=10))
    @example(OPPOSITE_LAM)
    @settings(max_examples=100, deadline=None)
    def test_the_carried_lam_is_the_sign_of_the_product(self, ms):
        # the elimination takes lam from the phases it carries; by definition
        # lam is the sign of P_c times the product of the pivots it marks
        for subset in enumerate_maximal_independent_sets(build_frustration_graph(ms)):
            for c, marked, lam in polytope._eliminate(ms, subset)[1]:
                assert lam == identity_sign(ms[subset[c]], *(ms[subset[j]] for j in marked))

    @given(measurement_sets())
    @example(XXZ5_ALL_TERMS)
    @example(hamiltonian_measurement_set(SpinChainSpec("annni", 8, {}), "all-terms"))
    @example(XXZ12_WINDOW)
    @example(OPPOSITE_LAM)
    @settings(max_examples=60, deadline=None)
    def test_blocks_are_the_sign_blocks_of_their_subsets(self, ms):
        # the build computes the blocks of one rank's distinct eliminations
        # together, a chunk of them at a time, and writes each into the rows
        # of every subset that has it; _sign_block expands a subset's own
        # elimination alone.  ANNNI n=8 has 51 eliminations of rank 7, three
        # chunks of at most 21 (m = 24).
        vset = v_representation(ms)
        for a, b in zip(vset.starts, vset.starts[1:] + (len(vset.vertices),)):
            block = vset.vertices[a:b]
            support = np.flatnonzero(block[0])
            signs = polytope._sign_block(ms, tuple(support.tolist()))
            assert np.array_equal(block[:, support], signs)
            assert not np.delete(block, support, axis=1).any()


class TestSerialization:
    def test_json_fields(self):
        vset = v_representation(MeasurementSet.from_strings(["X", "Y", "Z"]))
        payload = json.loads(vset.to_json())
        assert set(payload) == {"m", "measurements", "vertices", "contexts"}
        assert payload["m"] == 3
        assert payload["measurements"] == ["+X", "+Y", "+Z"]

    def test_txt_shape(self):
        vset = v_representation(MeasurementSet.from_strings(["ZZ", "XI"]))
        lines = vset.to_txt().strip().splitlines()
        assert len(lines) == 4
        assert all(len(line.split()) == 2 for line in lines)


class TestWriters:
    """The streaming writers against one ``json.dumps`` of nested lists (tests/util.py)."""

    CASES = ["Z", "X,Y,Z", "-XX,+XX,+ZI", "xxz5-all-terms"]

    @staticmethod
    def assert_bytes_match_reference(vset, block_rows):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(polytope, "_BLOCK_ROWS", block_rows)
            assert vset.to_json() == vertex_json(vset)
            assert vset.to_txt() == vertex_txt(vset)

    @pytest.mark.parametrize("block_rows", [polytope._BLOCK_ROWS, 3])
    @pytest.mark.parametrize("name", CASES)
    def test_bytes_match_reference(self, name, block_rows):
        if name == "xxz5-all-terms":
            ms = XXZ5_ALL_TERMS
        else:
            ms = MeasurementSet.from_strings(name.split(","))
        self.assert_bytes_match_reference(v_representation(ms), block_rows)

    # A token holds the text of _GROUP entries: widths 1 to 2 * _GROUP give
    # rows narrower than one group, one and two whole groups, and every tail
    # size 1.._GROUP after zero and one full group.
    TWO_QUBIT_PAULIS = ["".join(p) for p in itertools.product("IXYZ", repeat=2)][1:]

    @pytest.mark.parametrize("block_rows", [polytope._BLOCK_ROWS, 3])
    @pytest.mark.parametrize("width", range(1, 2 * polytope._GROUP + 1))
    def test_every_tail_size_matches_reference(self, width, block_rows):
        ms = MeasurementSet.from_strings(self.TWO_QUBIT_PAULIS[:width])
        vset = v_representation(ms)
        assert vset.vertices.shape[1] == width
        self.assert_bytes_match_reference(vset, block_rows)

    @pytest.mark.parametrize("block_rows", [polytope._BLOCK_ROWS, 3])
    @given(ms=measurement_sets())
    @settings(max_examples=40, deadline=None)
    def test_drawn_sets_match_reference(self, block_rows, ms):
        self.assert_bytes_match_reference(v_representation(ms), block_rows)

    def test_json_streams_a_block_at_a_time(self):
        # XXZ n=8 all-terms: 57,856 rows of 32 entries, 14 blocks and 22.6 MB
        # of JSON.  The peak holds one block's text, its tokens and their
        # codes: 1.4 MB against 0.84 MB for the largest write.
        class Sink:
            total = largest = 0

            def write(self, text):
                self.total += len(text)
                self.largest = max(self.largest, len(text))

        vset = v_representation(hamiltonian_measurement_set(SpinChainSpec("xxz", 8, {})))
        assert len(vset.vertices) >= 10 * polytope._BLOCK_ROWS
        sink = Sink()
        tracemalloc.start()
        try:
            vset.write_json(sink)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sink.total >= 20 * sink.largest
        assert peak <= 3 * sink.largest

    @given(measurement_sets())
    @example(XXZ5_ALL_TERMS)
    @settings(max_examples=60, deadline=None)
    def test_context_starts(self, ms):
        # the running sums of the block lengths are where the rows' support changes
        vset = v_representation(ms)
        support = (vset.vertices != 0).tolist()
        changes = [i for i in range(len(support)) if i == 0 or support[i] != support[i - 1]]
        assert list(vset.starts) == changes


class TestSizeBound:
    def test_examples(self):
        assert size_bound(1, 3) >= 6
        assert size_bound(2, 6) >= 36
        assert size_bound(1, 1) >= 2

    # (set, n, m, vertex count, bound) above n = 4: the all-terms chains and a
    # random set, where the cap 2^n prod_k (2^k + 1) on the maximal isotropic
    # subspaces binds (it does at n = 5 from m = 30 on)
    @pytest.mark.parametrize("model, n, m, count, bound", [
        ("annni", 5, 15, 448, 23328),
        ("annni", 6, 18, 1792, 139968),
        ("annni", 7, 21, 6912, 839808),
        ("annni", 8, 24, 25984, 5038848),
        ("annni", 10, 30, 362240, 181398528),
        ("xxz", 5, 20, 864, 69984),
        ("xxz", 6, 24, 3616, 1259712),
        ("xxz", 7, 28, 14592, 7558272),
        ("xxz", 8, 32, 57856, 45349632),
        ("random", 5, 36, 6336, 2**5 * 75735),
    ])
    def test_above_four_qubits(self, model, n, m, count, bound):
        if model == "random":
            codes = np.random.default_rng(m).choice(np.arange(1, 4**n), size=m, replace=False)
            ms = MeasurementSet(tuple(hermitian(n, c >> n, c & (2**n - 1)) for c in codes.tolist()))
        else:
            ms = hamiltonian_measurement_set(SpinChainSpec(model, n, {}))
        assert ms.m == m
        assert len(v_representation(ms).vertices) == count
        assert size_bound(n, m) == bound

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            size_bound(0, 3)
        with pytest.raises(ValueError):
            size_bound(3, 0)
