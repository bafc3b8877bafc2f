"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Each criterion is self-contained and states its
tolerance inline; sub-checks are collected so a failure reports every
violated condition at once.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from magicscope import oracle
from magicscope.pauli import MeasurementSet, PauliString, format_pauli, pauli_expectation
from magicscope.polytope import size_bound, v_representation
from magicscope.rom import DECISION_TOLERANCE, ExpectationVector, reduced_rom
from magicscope.spinchain import (
    SpinChainSpec,
    build_hamiltonian,
    ground_state,
    hamiltonian_measurement_set,
    sweep,
)
from util import random_clifford


def report(number: int, description: str, failures):
    verdict = "PASS" if not failures else "FAIL"
    print(f"CRITERION {number:2d}: {verdict} - {description}")
    for f in failures:
        print(f"    violated: {f}")
    assert not failures, f"criterion {number}: {failures}"


def random_measurement_set(n, m, rng):
    chosen = {}
    while len(chosen) < m:
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if x == 0 and z == 0:
            continue
        sign = int(rng.integers(0, 2))
        k = ((x & z).bit_count() + 2 * sign) % 4
        chosen[(k, x, z)] = PauliString(n, k, x, z)
    return MeasurementSet(tuple(chosen.values()))


@functools.lru_cache(maxsize=1)
def fifty_random_sets():
    rng = np.random.default_rng(2024)
    sets = []
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        sets.append(random_measurement_set(n, m, rng))
    return sets


def marginal_set(n):
    texts = []
    for q in range(n):
        for ch in "XYZ":
            texts.append("".join(ch if i == q else "I" for i in range(n)))
    return MeasurementSet.from_strings(texts)


def coords(ms):
    return sorted(map(tuple, v_representation(ms).vertices.tolist()))


def test_criterion_01_small_polytope_golden_set():
    failures = []
    start = time.perf_counter()
    if coords(MeasurementSet.from_strings(["Z"])) != [(-1,), (1,)]:
        failures.append("single Pauli segment")
    if coords(MeasurementSet.from_strings(["XI", "IX"])) != [
        (-1, -1), (-1, 1), (1, -1), (1, 1),
    ]:
        failures.append("commuting pair hypercube")
    if coords(MeasurementSet.from_strings(["ZZ", "XI"])) != [
        (-1, 0), (0, -1), (0, 1), (1, 0),
    ]:
        failures.append("anticommuting pair diamond")
    if coords(MeasurementSet.from_strings(["+Z", "-Z"])) != [(-1, 1), (1, -1)]:
        failures.append("opposite pair")
    octahedron = sorted(
        tuple(s if i == a else 0 for i in range(3)) for a in range(3) for s in (-1, 1)
    )
    if coords(MeasurementSet.from_strings(["X", "Y", "Z"])) != octahedron:
        failures.append("octahedron")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s >= 1s")
    report(1, "golden small polytopes reproduced exactly", failures)


def test_criterion_02_size_bound_tightness():
    failures = []
    start = time.perf_counter()
    for n, expected in ((1, 6), (2, 36), (3, 216)):
        ms = marginal_set(n)
        count = len(v_representation(ms).vertices)
        if count != expected or count != 2**n * 3 ** (ms.m // 3):
            failures.append(f"marginal n={n}: {count} != {expected}")
        if count > size_bound(n, ms.m):
            failures.append(f"size_bound violated at n={n}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s >= 1s")
    report(2, "marginal sets saturate the 2^n 3^(m/3) vertex count", failures)


def test_criterion_03_bottomup_topdown_hull_equivalence():
    failures = []
    start = time.perf_counter()
    for i, ms in enumerate(fifty_random_sets()):
        bottom = v_representation(ms).vertices
        top = list(oracle.topdown_vertices(ms))
        if not oracle.hull_equal(bottom, top):
            failures.append(f"set {i}: {[format_pauli(p) for p in ms]}")
    elapsed = time.perf_counter() - start
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s >= 2min")
    report(3, "50/50 hull equalities between combinatorial and projected", failures)


def test_criterion_04_padding_invariance():
    failures = []
    for i, ms in enumerate(fifty_random_sets()):
        base = v_representation(ms)
        padded = v_representation(ms.padded(ms.n + 2))
        if base.to_txt() != padded.to_txt() or not np.array_equal(
            base.vertices, padded.vertices
        ):
            failures.append(f"set {i}")
        base_sets = [c["set"] for c in json.loads(base.to_json())["contexts"]]
        padded_sets = [c["set"] for c in json.loads(padded.to_json())["contexts"]]
        if base_sets != padded_sets:
            failures.append(f"set {i}: context order changed")
    report(4, "vertex files byte-identical after padding by two qubits", failures)


def test_criterion_05_stabilizer_group_counts():
    failures = []
    start = time.perf_counter()
    for n, expected in ((1, 6), (2, 60), (3, 1080)):
        actual = len(oracle.enumerate_stabilizer_groups(n))
        formula = oracle.stabilizer_group_count(n)
        if actual != expected or formula != expected:
            failures.append(f"n={n}: {actual} vs {expected}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.1f}s >= 1min")
    report(5, "stabilizer group enumeration counts 6/60/1080", failures)


def test_criterion_06_rom_values_t_and_h_state():
    failures = []
    vset = v_representation(MeasurementSet.from_strings(["X", "Y", "Z"]))
    cases = (
        ("T", (1 / math.sqrt(3),) * 3, math.sqrt(3)),
        ("H", (1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)), math.sqrt(2)),
    )
    for name, bloch, expected in cases:
        reduced = reduced_rom(vset, ExpectationVector.of(bloch)).rom
        if abs(reduced - expected) > 1e-6:
            failures.append(f"{name}-state reduced {reduced} != {expected}")
        # the full-polytope robustness at n=1: rebuild the Pauli table
        # from the Bloch vector (canonical order I, Z, X, Y)
        table = [1.0, bloch[2], bloch[0], bloch[1]]
        full = oracle.full_rom(table, 1)
        if abs(reduced - full) > 1e-6:
            failures.append(f"{name}-state reduced {reduced} != full {full}")
    report(6, "T-state rom sqrt(3), H-state rom sqrt(2), equal to full rom", failures)


def test_criterion_07_resource_monotone_property_suite():
    failures = []
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    previous = None
    for trial in range(100):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(2, 7))
        ms = random_measurement_set(n, m, rng)
        vset = v_representation(ms)
        state = oracle.random_pure_state(n, rng)
        table = oracle.full_pauli_table(state)
        b = ExpectationVector.of(oracle.measurement_expectations(table, ms))
        result = reduced_rom(vset, b)
        if result.status != "optimal":
            failures.append(f"trial {trial}: status {result.status}")
            continue
        if result.rom < 1.0 - 1e-9:
            failures.append(f"trial {trial}: (a) rom {result.rom} < 1")
        full = oracle.full_rom(table, n)
        if result.rom > full + 1e-6:
            failures.append(f"trial {trial}: (b) reduced {result.rom} > full {full}")
        member = oracle.hull_contains([b.values], vset.vertices)
        if member != (result.rom <= 1.0 + 1e-7):
            failures.append(f"trial {trial}: (c) membership/rom disagree")
        # (d) convexity against a second random state on the same set
        state2 = oracle.random_pure_state(n, rng)
        b2 = ExpectationVector.of(
            oracle.measurement_expectations(oracle.full_pauli_table(state2), ms)
        )
        p = float(rng.uniform())
        mix = ExpectationVector.of(
            [p * x + (1 - p) * y for x, y in zip(b.values, b2.values)]
        )
        lhs = reduced_rom(vset, mix).rom
        rhs = p * result.rom + (1 - p) * reduced_rom(vset, b2).rom
        if lhs > rhs + 1e-6:
            failures.append(f"trial {trial}: (d) convexity {lhs} > {rhs}")
        # (e) Clifford two-sided monotonicity equality
        circuit = random_clifford(n, rng)
        rotated = circuit.apply(state)
        b_rot = ExpectationVector.of(
            oracle.measurement_expectations(oracle.full_pauli_table(rotated), ms)
        )
        conjugated = circuit.inverse().conjugate_set(ms)
        b_conj = ExpectationVector.of(
            oracle.measurement_expectations(table, conjugated)
        )
        lhs = reduced_rom(vset, b_rot).rom
        rhs = reduced_rom(v_representation(conjugated), b_conj).rom
        if abs(lhs - rhs) > 1e-6:
            failures.append(f"trial {trial}: (e) Clifford {lhs} != {rhs}")
        # (f) computational-basis dephasing zeroes X-supported expectations
        dephased = ExpectationVector.of(
            [v if p_.xbits == 0 else 0.0 for v, p_ in zip(b.values, ms)]
        )
        if reduced_rom(vset, dephased).rom > result.rom + 1e-6:
            failures.append(f"trial {trial}: (f) dephasing increased rom")
    elapsed = time.perf_counter() - start
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.1f}s >= 10min")
    report(7, "monotone properties (a)-(f) on 100 random states", failures)


def test_criterion_08_tfim_trajectory():
    failures = []
    start = time.perf_counter()
    grid = [round(0.05 * i, 2) for i in range(41)]  # 0.0 .. 2.0
    argmax_distance = []
    for n in (3, 6, 9):
        spec = SpinChainSpec("tfim", n, {})
        ms = hamiltonian_measurement_set(spec, "first-cell")
        vset = v_representation(ms)

        def rom_at(g):
            gs = ground_state(build_hamiltonian(spec.with_params({"g": g})))
            b = ExpectationVector.of(
                [pauli_expectation(gs.state, p) for p in ms]
            )
            return reduced_rom(vset, b).rom

        roms = [rom_at(g) for g in grid]
        if abs(roms[0] - 1.0) > 1e-6:
            failures.append(f"n={n}: rom(g=0) = {roms[0]} != 1")
        if roms[-1] > 1.0 + 1e-3:
            failures.append(f"n={n}: rom(g=2) = {roms[-1]} > 1 + 1e-3")
        rom10 = rom_at(10.0)
        if rom10 > 1.0 + 1e-3:
            failures.append(f"n={n}: rom(g=10) = {rom10} > 1 + 1e-3")
        g_star = grid[int(np.argmax(roms))]
        if not 0.7 <= g_star <= 1.3:
            failures.append(f"n={n}: argmax g = {g_star} outside [0.7, 1.3]")
        argmax_distance.append(abs(g_star - 1.0))
    if not all(
        a >= b - 1e-12 for a, b in zip(argmax_distance, argmax_distance[1:])
    ):
        failures.append(f"|argmax - 1| not non-increasing: {argmax_distance}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s >= 5min")
    report(8, "transverse-field Ising robustness peak near criticality", failures)


def test_tfim_trajectory_peak_and_decay():
    """What the TFIM trajectory does instead of criterion 08's g >= 2 checks.

    On {Z1Z2, X1} the robustness peaks near the critical field g = 1 and
    then decays towards 1 like 1/(2g) (README), so (rom - 1) * 2g -> 1.
    """
    failures = []
    grid = [round(0.05 * i, 2) for i in range(41)]  # 0.0 .. 2.0
    for n in (3, 6, 9):
        spec = SpinChainSpec("tfim", n, {})
        ms = hamiltonian_measurement_set(spec, "first-cell")
        records = sweep(spec, [{"g": g} for g in grid + [20.0]], ms, v_representation(ms))
        roms = [record.rom for record in records]
        if abs(roms[0] - 1.0) > 1e-6:
            failures.append(f"n={n}: rom(g=0) = {roms[0]} != 1")
        g_star = grid[int(np.argmax(roms[:-1]))]
        if not 0.9 <= g_star <= 1.1:
            failures.append(f"n={n}: argmax g = {g_star} outside [0.9, 1.1]")
        tail = (roms[-1] - 1.0) * 2 * 20.0
        if abs(tail - 1.0) > 0.05:
            failures.append(f"n={n}: (rom(g=20) - 1) * 2g = {tail} not within 0.05 of 1")
    assert not failures, failures


def test_criterion_09_annni_stabilizer_line():
    failures = []
    start = time.perf_counter()
    spec = SpinChainSpec("annni", 8, {})
    ms = hamiltonian_measurement_set(spec, "all-terms")
    vset = v_representation(ms)
    grid = [{"k": k, "g": 0.0} for k in (0.0, 0.25, 0.5, 0.75, 1.0)]
    for record in sweep(spec, grid, ms, vset):
        if record.rom is None or abs(record.rom - 1.0) > 1e-6:
            failures.append(f"k={record.params['k']}: rom = {record.rom}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s >= 5min")
    report(9, "zero-field next-nearest-neighbour Ising line has rom 1", failures)


def test_criterion_10_xxz_stabilizer_region():
    failures = []
    start = time.perf_counter()
    spec = SpinChainSpec("xxz", 8, {})
    ms = hamiltonian_measurement_set(spec, "all-terms")
    vset = v_representation(ms)
    grid = [{"delta": d, "h": 0.0} for d in (-1.9, -1.5, -1.1)]
    for record in sweep(spec, grid, ms, vset):
        if record.rom is None or abs(record.rom - 1.0) > 1e-6:
            failures.append(f"delta={record.params['delta']}: rom = {record.rom}")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"took {elapsed:.1f}s >= 5min")
    report(10, "ferromagnetic anisotropic Heisenberg region has rom 1", failures)


def test_criterion_11_performance_envelope():
    failures = []
    start = time.perf_counter()
    vset = v_representation(marginal_set(4))
    marginal_elapsed = time.perf_counter() - start
    if len(vset.vertices) != 1296:
        failures.append(f"n=4 marginal vertex count {len(vset.vertices)} != 1296")
    if marginal_elapsed >= 1.0:
        failures.append(f"n=4 marginal build took {marginal_elapsed:.2f}s >= 1s")

    start = time.perf_counter()
    spec = SpinChainSpec("annni", 10, {})
    ms = hamiltonian_measurement_set(spec, "all-terms")
    big_vset = v_representation(ms)
    grid = [
        {"k": float(k), "g": float(g)}
        for k in np.linspace(0.0, 1.0, 20)
        for g in np.linspace(0.0, 2.0, 20)
    ]
    records = sweep(spec, grid, ms, big_vset)
    sweep_elapsed = time.perf_counter() - start
    bad = [r for r in records if r.solver_status != "optimal"]
    if bad:
        failures.append(f"{len(bad)} of 400 grid points not optimal")
    if sweep_elapsed >= 1800.0:
        failures.append(f"20x20 sweep took {sweep_elapsed:.0f}s >= 30min")
    print(f"    [criterion 11] 20x20 sweep at n=10: {sweep_elapsed:.0f}s, "
          f"{len(big_vset.vertices)} vertices")
    report(11, "vertex build and 20x20 sweep inside the time envelope", failures)


def test_criterion_12_membership_decision_contract():
    # The hardness statement itself is not testable; its operational face
    # is that the membership decision (a dense LP over every vertex) and the
    # rom threshold agree.
    failures = []
    rng = np.random.default_rng(55)
    for trial in range(20):
        n = int(rng.integers(1, 3))
        ms = random_measurement_set(n, int(rng.integers(2, 6)), rng)
        vset = v_representation(ms)
        state = oracle.random_pure_state(n, rng)
        b = ExpectationVector.of(
            oracle.measurement_expectations(oracle.full_pauli_table(state), ms)
        )
        rom = reduced_rom(vset, b).rom
        member = oracle.hull_contains([b.values], vset.vertices)
        if member != (rom <= 1.0 + DECISION_TOLERANCE):
            failures.append(f"trial {trial}: decision mismatch at rom {rom}")
    report(12, "membership decision agrees with the rom threshold", failures)
