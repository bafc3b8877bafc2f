"""Benchmark harness for magicscope.

Run from the repository root:

    python3 perfbench/run.py --workload annni10-sweep --seed 1 --seconds 8 --trace 0

The harness lives outside the program: it imports ``magicscope`` from the
``src/`` directory beside ``perfbench/`` and times calls into the public
functions of each module.  It checks every output it measures and prints, as
the last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``points_per_s``, ``wall_s``, ``peak_rss_mb``), measured with no
instrumentation.  With ``--trace 1`` the harness mirrors the program's steps
one call at a time, records a span around each call into a layer (``fgraph``,
``polytope``, ``rom``, ``spinchain``, ``cli``), counts ``linprog`` calls, and
reports the per-layer metrics; the spans are written to ``perfbench/out/``.

Workloads (the seed picks the sampled grid points; the program only sees the
generated points):

* ``annni10-sweep``: ANNNI n=10, periodic, every Hamiltonian term measured
  (362,240 vertices).  Criterion 11's 20x20 grid, k in [0, 1], g in [0, 2].
* ``xxz12-window``: XXZ n=12, periodic, measuring only the 25 terms supported
  on qubits 1-7 (7,936 vertices).  A 20x20 grid, delta in [-2, 2], h in [0, 4].
* ``polytope-export``: ``magicscope polytope --format json`` on XXZ n=9,
  every term measured (228,352 vertices).  Deterministic; the seed is unused.

A sweep samples whole Latin squares of its grid: each square holds one point
in every row and one in every column, so every run covers the grid evenly and
runs with different seeds do comparable work (ten points were too few for a
steady rate).  Squares are swept in grid order with ``sweep(..., threads=1)``,
at least one, until ``--seconds`` have passed since the set-up began.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

# One BLAS thread, set before numpy loads: sweeps run threads=1, and a
# multi-threaded BLAS slows by an order of magnitude when a core is taken.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import scipy
import scipy.sparse as sp
import scipy.sparse.linalg as spla

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"  # names and units of the metrics printed

GRID_SIDE = 20
GRID_POINTS = GRID_SIDE * GRID_SIDE

SWEEPS = {
    "annni10-sweep": {
        "model": "annni",
        "n": 10,
        "axes": (("k", 0.0, 1.0), ("g", 0.0, 2.0)),
        "measurements": "all-terms",
        "vertices": 362240,
    },
    "xxz12-window": {
        "model": "xxz",
        "n": 12,
        "axes": (("delta", -2.0, 2.0), ("h", 0.0, 4.0)),
        "measurements": DATA / "xxz12_window.txt",
        "vertices": 7936,
    },
}
EXPORT = {
    "name": "polytope-export",
    "measurements": DATA / "xxz9_all_terms.txt",
    "vertices": 228352,
}
WORKLOADS = tuple(SWEEPS) + (EXPORT["name"],)

ROM_FLOOR = 1.0 - 1e-7  # rom >= 1 for every admissible expectation vector
ENERGY_RTOL = 1e-8
ROM_TOL = 1e-6
MIN_SETUPS = 3
MAX_SETUPS = 50
SETUP_BUDGET_S = 2.0  # more builds while they are cheap, for a steady median
OVERHEAD_POINTS = 9  # points swept both traced and untraced for trace.overhead_ratio


def import_program():
    """Import magicscope from this checkout's src/, or exit without a result."""
    src = ROOT / "src"
    if not (src / "magicscope" / "__init__.py").is_file():
        sys.exit(f"perfbench: no magicscope package under {src}")
    sys.path.insert(0, str(src))
    import magicscope

    if Path(magicscope.__file__).resolve().parent != (src / "magicscope").resolve():
        sys.exit(f"perfbench: imported magicscope from {magicscope.__file__}, not {src}")


import_program()
from magicscope import cli, rom as rom_module  # noqa: E402
from magicscope.fgraph import build_frustration_graph, enumerate_maximal_independent_sets  # noqa: E402
from magicscope.pauli import read_measurement_file  # noqa: E402
from magicscope.polytope import admissible_signs, v_representation  # noqa: E402
from magicscope.rom import ExpectationVector, reduced_rom  # noqa: E402
from magicscope.spinchain import (  # noqa: E402
    SpinChainSpec,
    SweepRecord,
    build_hamiltonian,
    ground_state,
    hamiltonian_measurement_set,
    pauli_expectation,
    sweep,
)


# ---------------------------------------------------------------- inputs


def grid_points(axes):
    """The 20x20 grid in the order criterion 11 builds it (first axis outer)."""
    (a, a0, a1), (b, b0, b1) = axes
    return [
        {a: float(x), b: float(y)}
        for x in np.linspace(a0, a1, GRID_SIDE)
        for y in np.linspace(b0, b1, GRID_SIDE)
    ]


def latin_squares(seed):
    """Endless seeded Latin squares of grid indices, each in grid order."""
    rng = np.random.default_rng(seed)
    while True:
        perm = rng.permutation(GRID_SIDE)
        yield [row * GRID_SIDE + int(perm[row]) for row in range(GRID_SIDE)]


def sweep_inputs(name):
    w = SWEEPS[name]
    spec = SpinChainSpec(w["model"], w["n"], {}, "periodic")
    if w["measurements"] == "all-terms":
        measurements = hamiltonian_measurement_set(spec, "all-terms")
    else:
        measurements = read_measurement_file(str(w["measurements"]))
    return spec, measurements


# ---------------------------------------------------------------- checks


class PauliMatrices:
    """Sparse real matrices of Pauli terms, built from 2x2 Kronecker factors.

    Written from the definition P = i^k X^x Z^z (bit q of the basis index is
    qubit q), independently of ``spinchain.apply_pauli``.
    """

    _X = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    _Z = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, -1.0]]))
    _I = sp.identity(2, format="csr")

    def __init__(self):
        self._cache = {}

    def term(self, p):
        key = (p.n, p.phase_k, p.xbits, p.zbits)
        if key not in self._cache:
            mat = sp.identity(1, format="csr")
            for q in reversed(range(p.n)):  # leftmost Kronecker factor is the top bit
                factor = self._I
                if (p.xbits >> q) & 1 and (p.zbits >> q) & 1:
                    factor = self._X @ self._Z
                elif (p.xbits >> q) & 1:
                    factor = self._X
                elif (p.zbits >> q) & 1:
                    factor = self._Z
                mat = sp.kron(mat, factor, format="csr")
            phase = 1j**p.phase_k
            if abs(phase.imag) > 0:
                raise ValueError("Hamiltonian term is not real in the computational basis")
            self._cache[key] = phase.real * mat
        return self._cache[key]

    def hamiltonian(self, terms):
        return sum(weight * self.term(p) for weight, p in terms).tocsr()


def reference_energy(h):
    """Lowest eigenvalue of a sparse real symmetric H."""
    # a random start overlaps every symmetry sector; a uniform one would not
    v0 = np.random.default_rng(7).normal(size=h.shape[0])
    return float(spla.eigsh(h, k=1, which="SA", tol=1e-12, v0=v0)[0][0])


class Checks:
    """Reference values and the checks applied to every measured output."""

    def __init__(self, energy_shift=0.0, digest=None):
        with open(REFERENCE, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.paulis = PauliMatrices()
        self.energy_shift = energy_shift  # relative perturbation, for the self-test only
        self.digest = digest or self.reference[EXPORT["name"]]["sha256"]

    def energy(self, terms):
        return reference_energy(self.paulis.hamiltonian(terms)) * (1.0 + self.energy_shift)

    def sweep_point(self, name, index, spec, record):
        """Problems with one sweep record; an empty list means it passed."""
        if record.solver_status != "optimal":
            return [f"status {record.solver_status!r}"]
        problems = []
        if not record.rom >= ROM_FLOOR:
            problems.append(f"rom {record.rom} < 1")
        e_ref = self.energy(build_hamiltonian(spec.with_params(record.params)))
        if not abs(record.energy - e_ref) <= ENERGY_RTOL * max(abs(e_ref), 1.0):
            problems.append(f"energy {record.energy!r} != reference {e_ref!r}")
        ref = self.reference[name]
        degenerate = record.degenerate_flag or ref["degenerate"][index]
        if not degenerate and not abs(record.rom - ref["rom"][index]) <= ROM_TOL:
            problems.append(f"rom {record.rom!r} != reference {ref['rom'][index]!r}")
        return problems

    def export(self, code, path):
        """Problems with one export's exit code and output bytes."""
        if code != 0:
            return [f"exit code {code}"]
        digest = file_sha256(path)
        return [] if digest == self.digest else [f"sha256 {digest} != reference {self.digest}"]

    @staticmethod
    def export_vertices(path):
        """Problems with the vertex count of an export's JSON."""
        with open(path, encoding="utf-8") as fh:
            count = len(json.load(fh)["vertices"])
        return [] if count == EXPORT["vertices"] else [f"{count} vertices != {EXPORT['vertices']}"]


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


# ---------------------------------------------------------------- machine


def machine_record():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": read_loadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": git_commit(),
    }


def read_loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except OSError:
        return None


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when not found."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so*")):
        try:
            handle = ctypes.CDLL(str(lib))
            fn = handle.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans: name, start, end, parent span, grid point."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.point = None

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.point])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def durations(self, name):
        return [end - start for span_name, start, end, _, _ in self.spans if span_name == name]

    def write(self, path, machine):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("name", "start", "end", "parent", "point")
        payload = {"machine": machine, "spans": [dict(zip(fields, s)) for s in self.spans]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class LinprogCounter:
    """Counts calls to the ``linprog`` name that ``magicscope.rom`` looks up."""

    def __init__(self):
        self.calls = 0
        self._original = rom_module.linprog  # AttributeError if the import moved

    def __enter__(self):
        original = self._original

        def counted(*args, **kwargs):
            self.calls += 1
            return original(*args, **kwargs)

        rom_module.linprog = counted
        return self

    def __exit__(self, *exc):
        rom_module.linprog = self._original


def percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


# ---------------------------------------------------------------- setup


def build_setups(measurements, expected_vertices, tally):
    """Build the VertexSet several times; return (median seconds, fresh last build)."""
    times = []
    vset = None
    while len(times) < MIN_SETUPS or (sum(times) < SETUP_BUDGET_S and len(times) < MAX_SETUPS):
        vset = None
        gc.collect()
        start = time.perf_counter()
        vset = v_representation(measurements)
        times.append(time.perf_counter() - start)
        count = len(vset.vertices)
        tally.add("setup", [] if count == expected_vertices else [f"{count} vertices"])
    return statistics.median(times), vset


def traced_build(tracer, measurements):
    """The build as ``magicscope polytope`` runs it: the MIS, then one v_representation call."""
    with tracer.span("fgraph.mis"):
        graph = build_frustration_graph(measurements)
        independent_sets = list(enumerate_maximal_independent_sets(graph))
    with tracer.span("polytope.build"):
        vset = v_representation(measurements)
    return vset, independent_sets


def traced_signs(tracer, measurements, independent_sets, vset):
    """admissible_signs over every MIS in one span; the build's layer metrics."""
    skipped = 0
    with tracer.span("polytope.signs"):
        for subset in independent_sets:
            if not admissible_signs(measurements, subset):
                skipped += 1
    return {
        "fgraph.mis_s": sum(tracer.durations("fgraph.mis")),
        "fgraph.mis_count": len(independent_sets),
        "polytope.signs_s": sum(tracer.durations("polytope.signs")),
        "polytope.build_s": sum(tracer.durations("polytope.build")),
        "polytope.vertices": len(vset.vertices),
        "polytope.contexts_skipped": skipped,
    }


# ---------------------------------------------------------------- sweeps


def run_sweep(name, seed, seconds, checks, tally):
    spec, measurements = sweep_inputs(name)
    grid = grid_points(SWEEPS[name]["axes"])
    began = time.perf_counter()
    setup_s, vset = build_setups(measurements, SWEEPS[name]["vertices"], tally)

    squares = latin_squares(seed)
    square = next(squares)
    start = time.perf_counter()
    records = sweep(spec, [grid[square[0]]], measurements, vset, threads=1)
    first_s = time.perf_counter() - start  # includes the lazy work of the first query
    start = time.perf_counter()
    records += sweep(spec, [grid[i] for i in square[1:]], measurements, vset, threads=1)
    rest_s = time.perf_counter() - start
    indices = list(square)
    while time.perf_counter() - began < seconds:
        square = next(squares)
        start = time.perf_counter()
        records += sweep(spec, [grid[i] for i in square], measurements, vset, threads=1)
        rest_s += time.perf_counter() - start
        indices += square
    peak = peak_rss_mb()

    passed = []
    for index, record in zip(indices, records):
        problems = checks.sweep_point(name, index, spec, record)
        tally.add(f"point {record.params}", problems)
        passed.append(not problems)
    return {
        "setup_s": setup_s,
        # the rate counts only points that passed every check, after the first
        "points_per_s": sum(passed[1:]) / rest_s,
        # the whole 20x20 job: build, first point, then the rest at the steady pace
        "wall_s": setup_s + first_s + (GRID_POINTS - 1) * rest_s / (len(records) - 1),
        "peak_rss_mb": peak,
    }


def trace_sweep(name, seed, checks, tally, tracer):
    """One Latin square, mirroring sweep() point by point with spans and counters."""
    spec, measurements = sweep_inputs(name)
    grid = grid_points(SWEEPS[name]["axes"])
    vset, independent_sets = traced_build(tracer, measurements)
    build = traced_signs(tracer, measurements, independent_sets, vset)
    tally.add("setup", [] if build["polytope.vertices"] == SWEEPS[name]["vertices"] else ["vertices"])

    square = next(latin_squares(seed))
    linprog_calls, support, residuals, degenerate = [], [], [], 0
    records = []
    with LinprogCounter() as counter:
        for index in square:
            tracer.point = index
            with tracer.span("point"):
                with tracer.span("spinchain.hamiltonian"):
                    terms = build_hamiltonian(spec.with_params(grid[index]))
                with tracer.span("spinchain.ground_state"):
                    gs = ground_state(terms)
                with tracer.span("spinchain.expectations"):
                    expectations = tuple(pauli_expectation(gs.state, p) for p in measurements)
                before = counter.calls
                with tracer.span("rom.query"):
                    result = reduced_rom(vset, ExpectationVector.of(expectations))
            calls = counter.calls - before
            if result.status == "optimal" and calls == 0:
                raise RuntimeError(
                    "perfbench: an LP was solved but no linprog call was counted; "
                    "magicscope.rom no longer calls the linprog it imports"
                )
            linprog_calls.append(calls)
            support.append(int(np.count_nonzero(np.abs(result.coefficients) > 1e-12)))
            h = checks.paulis.hamiltonian(terms)
            residuals.append(float(np.linalg.norm(h @ gs.state - gs.energy * gs.state)))
            degenerate += bool(gs.degenerate_flag)
            records.append(
                SweepRecord(
                    dict(grid[index]), gs.energy, gs.gap_estimate, expectations,
                    result.rom, gs.degenerate_flag, result.status,
                )
            )
    tracer.point = None

    # points 2-10 again, untraced, on the now warm VertexSet: the tracing overhead
    repeat = square[1:OVERHEAD_POINTS + 1]
    traced_s = sum(tracer.durations("point")[1:OVERHEAD_POINTS + 1])
    start = time.perf_counter()
    untraced = sweep(spec, [grid[i] for i in repeat], measurements, vset, threads=1)
    untraced_s = time.perf_counter() - start

    for index, record in zip(square + repeat, records + untraced):
        tally.add(f"point {record.params}", checks.sweep_point(name, index, spec, record))

    queries = tracer.durations("rom.query")
    ground = tracer.durations("spinchain.ground_state")
    return {
        **build,
        "polytope.to_json_s": 0.0,
        "polytope.json_bytes": 0,
        "rom.first_query_s": queries[0],
        "rom.query_s.p50": percentile(queries[1:], 50),
        "rom.query_s.p90": percentile(queries[1:], 90),
        "rom.linprog_calls": statistics.mean(linprog_calls),
        "rom.support": statistics.mean(support),
        "spinchain.hamiltonian_s": percentile(tracer.durations("spinchain.hamiltonian"), 50),
        "spinchain.ground_state_s.p50": percentile(ground, 50),
        "spinchain.ground_state_s.p90": percentile(ground, 90),
        "spinchain.expectations_s": percentile(tracer.durations("spinchain.expectations"), 50),
        "spinchain.residual_max": max(residuals),
        "spinchain.degenerate_points": degenerate,
        "cli.write_s": 0.0,
        "trace.overhead_ratio": traced_s / untraced_s,
    }


# ---------------------------------------------------------------- export


def polytope_argv(out):
    return ["polytope", str(EXPORT["measurements"]), "--format", "json", "--out", str(out)]


def run_export(seconds, checks, tally):
    measurements = read_measurement_file(str(EXPORT["measurements"]))
    began = time.perf_counter()
    setup_s, vset = build_setups(measurements, EXPORT["vertices"], tally)
    del vset
    gc.collect()

    OUT.mkdir(exist_ok=True)
    out = OUT / f"export-{os.getpid()}.json"
    walls, problems = [], []
    try:
        while not walls or time.perf_counter() - began < seconds:
            start = time.perf_counter()
            code = cli.main(polytope_argv(out))
            walls.append(time.perf_counter() - start)
            problems.append(checks.export(code, out))  # before the next export overwrites it
        peak = peak_rss_mb()
        problems[-1] = problems[-1] or checks.export_vertices(out)
        for found in problems:
            tally.add("export", found)
    finally:
        out.unlink(missing_ok=True)
    wall_s = statistics.median(walls)
    return {
        "setup_s": setup_s,
        "points_per_s": EXPORT["vertices"] / wall_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak,
    }


def trace_export(checks, tally, tracer):
    """The steps of ``magicscope polytope`` in spans, then one untraced call."""
    OUT.mkdir(exist_ok=True)
    out = OUT / f"export-{os.getpid()}.json"
    try:
        with tracer.span("cli.polytope"):
            with tracer.span("cli.load"):
                measurements = read_measurement_file(str(EXPORT["measurements"]))
            vset, independent_sets = traced_build(tracer, measurements)
            with tracer.span("polytope.to_json"):
                body = vset.to_json()
            with tracer.span("cli.write"):
                with open(out, "w", encoding="utf-8") as fh:
                    fh.write(body)
        json_bytes = len(body.encode("utf-8"))
        del body
        tally.add("export", checks.export(0, out))
        build = traced_signs(tracer, measurements, independent_sets, vset)
        del vset
        gc.collect()

        start = time.perf_counter()
        code = cli.main(polytope_argv(out))
        untraced = time.perf_counter() - start
        tally.add("export", checks.export(code, out) or checks.export_vertices(out))
    finally:
        out.unlink(missing_ok=True)

    return {
        **build,
        "polytope.to_json_s": sum(tracer.durations("polytope.to_json")),
        "polytope.json_bytes": json_bytes,
        "rom.first_query_s": 0.0,
        "rom.query_s.p50": 0.0,
        "rom.query_s.p90": 0.0,
        "rom.linprog_calls": 0,
        "rom.support": 0,
        "spinchain.hamiltonian_s": 0.0,
        "spinchain.ground_state_s.p50": 0.0,
        "spinchain.ground_state_s.p90": 0.0,
        "spinchain.expectations_s": 0.0,
        "spinchain.residual_max": 0.0,
        "spinchain.degenerate_points": 0,
        "cli.write_s": sum(tracer.durations("cli.write")),
        "trace.overhead_ratio": sum(tracer.durations("cli.polytope")) / untraced,
    }


# ---------------------------------------------------------------- main


def run(workload, seed, seconds, trace, checks):
    """Run one workload; return (result dict, machine record, tracer or None)."""
    machine = machine_record()
    tally = Tally()
    tracer = Tracer() if trace else None
    if workload == EXPORT["name"]:
        values = trace_export(checks, tally, tracer) if trace else run_export(seconds, checks, tally)
    elif trace:
        values = trace_sweep(workload, seed, checks, tally, tracer)
    else:
        values = run_sweep(workload, seed, seconds, checks, tally)
    machine["loadavg_end"] = read_loadavg()
    with open(BENCHMARK, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }
    return result, machine, tracer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, machine, tracer = run(args.workload, args.seed, args.seconds, bool(args.trace), Checks())
    print("perfbench machine: " + json.dumps(machine), file=sys.stderr)
    if tracer is not None:
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json", machine)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
