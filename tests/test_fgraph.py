"""Frustration graphs and maximal independent set enumeration."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from magicscope.fgraph import build_frustration_graph, enumerate_maximal_independent_sets
from magicscope.pauli import MeasurementSet, commutes


def random_graphs(max_m=10):
    def build(args):
        m, bits = args
        adjacency = [0] * m
        k = 0
        for i in range(m):
            for j in range(i):
                if (bits >> k) & 1:
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i
                k += 1
        return tuple(adjacency)

    return st.integers(1, max_m).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, (1 << (m * (m - 1) // 2)) - 1))
    ).map(build)


def edge(g, i, j):
    return (g[i] >> j) & 1


def brute_force_mis(g):
    m = len(g)

    def independent(subset):
        return all(
            not edge(g, i, j) for i, j in itertools.combinations(subset, 2)
        )

    sets = []
    for bits in range(1, 1 << m):
        subset = [i for i in range(m) if (bits >> i) & 1]
        if not independent(subset):
            continue
        maximal = all(
            not independent(subset + [v]) for v in range(m) if v not in subset
        )
        if maximal:
            sets.append(tuple(subset))
    return sorted(sets)


class TestBuild:
    def test_fully_anticommuting_triangle(self):
        g = build_frustration_graph(MeasurementSet.from_strings(["X", "Y", "Z"]))
        assert g == (0b110, 0b101, 0b011)

    def test_single_edge(self):
        g = build_frustration_graph(MeasurementSet.from_strings(["ZZ", "XI"]))
        assert g == (0b10, 0b01)

    def test_commuting_set_is_empty_graph(self):
        g = build_frustration_graph(
            MeasurementSet.from_strings(["XII", "IXI", "IIX"])
        )
        assert g == (0, 0, 0)

    def test_every_two_qubit_pauli(self):
        # symmetric and loop-free by construction: bit j of entry i is set iff
        # P_i and P_j anticommute
        ms = MeasurementSet.from_strings(
            [a + b for a in "IXYZ" for b in "IXYZ" if a + b != "II"]
        )
        g = build_frustration_graph(ms)
        for i, j in itertools.product(range(len(ms)), repeat=2):
            assert edge(g, i, j) == (not commutes(ms[i], ms[j]))


class TestEnumeration:
    def test_triangle(self):
        g = (0b110, 0b101, 0b011)
        assert enumerate_maximal_independent_sets(g) == [(0,), (1,), (2,)]

    def test_empty_graph(self):
        assert enumerate_maximal_independent_sets((0, 0, 0, 0)) == [(0, 1, 2, 3)]

    def test_path(self):
        g = (0b010, 0b101, 0b010)
        assert enumerate_maximal_independent_sets(g) == [(0, 2), (1,)]

    @given(random_graphs())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, g):
        assert enumerate_maximal_independent_sets(g) == brute_force_mis(g)

    @given(random_graphs(max_m=8))
    @settings(max_examples=100, deadline=None)
    def test_independence_and_maximality(self, g):
        for subset in enumerate_maximal_independent_sets(g):
            for i, j in itertools.combinations(subset, 2):
                assert not edge(g, i, j)
            for v in range(len(g)):
                if v in subset:
                    continue
                assert any(edge(g, v, u) for u in subset)

    def test_marginal_set_is_disjoint_triangles(self):
        texts = []
        for q in range(3):
            for ch in "XYZ":
                texts.append(
                    "".join(ch if i == q else "I" for i in range(3))
                )
        g = build_frustration_graph(MeasurementSet.from_strings(texts))
        sets = enumerate_maximal_independent_sets(g)
        assert len(sets) == 27  # 3 per triangle, three disjoint triangles

    def test_disjoint_union_multiplicativity(self):
        # triangle on {0,1,2} disjoint from an edge on {3,4}
        g = (0b00110, 0b00101, 0b00011, 0b10000, 0b01000)
        assert len(enumerate_maximal_independent_sets(g)) == 3 * 2
