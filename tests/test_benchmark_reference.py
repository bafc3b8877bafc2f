"""One seeded Latin square of each benchmark sweep, checked as the benchmark checks it.

``perfbench/run.py`` fails a run whose points are not "optimal", whose
rom falls below 1, whose rom leaves its reference (``perfbench/reference.json``)
at a point neither side flags as degenerate, or whose energy leaves the
lowest eigenvalue of the full sparse H.  Tier-1 never runs the benchmark,
so this sweeps 20 points of each of its grids here, with the benchmark's
data and tolerances, and ARPACK (``eigsh``) on the full H as the
independent energy.  The benchmark's files are read, never written.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.linalg import eigsh

from magicscope.pauli import read_measurement_file
from magicscope.polytope import v_representation
from magicscope.spinchain import (
    SpinChainSpec,
    build_hamiltonian,
    hamiltonian_measurement_set,
    sweep_records,
)
from util import sparse_pauli_matrix

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
# the sweep workloads as perfbench/run.py's SWEEPS declares them
SWEEPS = {
    "annni10-sweep": ("annni", 10, (("k", 0.0, 1.0), ("g", 0.0, 2.0)), "all-terms"),
    "xxz12-window": ("xxz", 12, (("delta", -2.0, 2.0), ("h", 0.0, 4.0)), "xxz12_window.txt"),
}
GRID_SIDE = 20
ROM_FLOOR = 1.0 - 1e-7
ROM_TOL = 1e-6
ENERGY_RTOL = 1e-8


def grid_points(axes):
    """The 20 x 20 grid in perfbench's order, first axis outer."""
    (a, a0, a1), (b, b0, b1) = axes
    return [{a: float(x), b: float(y)}
            for x in np.linspace(a0, a1, GRID_SIDE) for y in np.linspace(b0, b1, GRID_SIDE)]


def latin_square(seed):
    """perfbench's first Latin square of grid indices for ``seed``, in grid order."""
    perm = np.random.default_rng(seed).permutation(GRID_SIDE)
    return [row * GRID_SIDE + int(perm[row]) for row in range(GRID_SIDE)]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_a_latin_square_meets_the_benchmark_reference(name):
    model, n, axes, source = SWEEPS[name]
    spec = SpinChainSpec(model, n, {}, "periodic")
    if source == "all-terms":
        ms = hamiltonian_measurement_set(spec, "all-terms")
    else:
        ms = read_measurement_file(str(PERFBENCH / "data" / source))
    grid = grid_points(axes)
    square = latin_square(1)
    reference = REFERENCE[name]
    records = sweep_records(spec, [grid[i] for i in square], v_representation(ms))
    paulis = {}  # every point's H sums the same Paulis
    for index, record in zip(square, records):
        assert record.solver_status == "optimal", (record.params, record.solver_status)
        assert record.rom >= ROM_FLOOR, record.params
        if not (record.degenerate_flag or reference["degenerate"][index]):
            assert abs(record.rom - reference["rom"][index]) <= ROM_TOL, record.params
        terms = build_hamiltonian(spec.with_params(record.params))
        for _, p in terms:
            if p not in paulis:
                paulis[p] = sparse_pauli_matrix(p)
        h = sum(weight * paulis[p] for weight, p in terms)
        v0 = np.random.default_rng(7).normal(size=h.shape[0])
        e_ref = float(eigsh(h, k=1, which="SA", tol=1e-12, v0=v0)[0][0])
        assert abs(record.energy - e_ref) <= ENERGY_RTOL * max(abs(e_ref), 1.0), record.params
