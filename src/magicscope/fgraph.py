"""Frustration graph of a measurement set and its maximal independent sets.

Vertices are measurement indices; an edge joins every anticommuting
pair, so independent sets are exactly the pairwise-commuting subsets.
The graph is its adjacency tuple: bit j of entry i is set iff i and j
anticommute.  Maximal independent sets are enumerated as maximal cliques
of the complement graph (Bron-Kerbosch with pivoting on bitmask sets)
and returned in lexicographic order of their sorted index tuples.
"""

from __future__ import annotations

from typing import List, Tuple

from .pauli import MeasurementSet, commutes

__all__ = [
    "build_frustration_graph",
    "enumerate_maximal_independent_sets",
]


def build_frustration_graph(measurements: MeasurementSet) -> Tuple[int, ...]:
    m = len(measurements)
    adjacency = [0] * m
    for i in range(m):
        for j in range(i):
            if not commutes(measurements[i], measurements[j]):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return tuple(adjacency)


def _bron_kerbosch(r: int, p: int, x: int, nbr: List[int], out: List[int]) -> None:
    if p == 0 and x == 0:
        out.append(r)
        return
    # pivot: vertex of P|X with the most neighbours inside P
    best, best_deg = -1, -1
    pool = p | x
    while pool:
        low = pool & -pool
        u = low.bit_length() - 1
        deg = (p & nbr[u]).bit_count()
        if deg > best_deg:
            best, best_deg = u, deg
        pool ^= low
    cand = p & ~nbr[best]
    while cand:
        low = cand & -cand
        v = low.bit_length() - 1
        _bron_kerbosch(r | low, p & nbr[v], x & nbr[v], nbr, out)
        p ^= low
        x |= low
        cand ^= low


def enumerate_maximal_independent_sets(adjacency: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    """Every maximal independent set of the graph, sorted lexicographically."""
    m = len(adjacency)
    full = (1 << m) - 1
    # complement adjacency: commuting pairs become clique edges
    nbr = [(~adjacency[i]) & full & ~(1 << i) for i in range(m)]
    masks: List[int] = []
    _bron_kerbosch(0, full, 0, nbr, masks)
    return sorted(_mask_to_tuple(mask) for mask in masks)


def _mask_to_tuple(mask: int) -> Tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)
