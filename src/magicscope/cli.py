"""Command-line front end.

Subcommands and the flags that each reads; a value out of its range
exits 1 before any file is read:
  polytope   measurement file -> vertex file (json or txt): --out, --format
  rom        measurement file + expectations -> robustness verdict:
             --lp-tol in [1e-10, 1), --decision-tol finite and > 0
  scan       spin-chain parameter sweep -> CSV: --model, --n, --grid,
             --measurements, --boundary, --out, --resume, --lp-tol, --threads >= 1
  oracle     brute-force cross-checks at small qubit counts: --check,
             --n in 1-4 (counts) or 1-3 (others), --trials >= 1, --seed >= 0, --lp-tol

Exit codes: 0 success, 1 usage, 2 parse, 3 infeasible/inconsistent
data, 4 solver failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, TextIO

import numpy as np

from . import oracle as oracle_mod
from .pauli import MeasurementSet, PauliError, format_pauli, hermitian, read_measurement_file
from .polytope import v_representation
from .rom import (
    DECISION_TOLERANCE,
    LP_TOLERANCE,
    LP_TOLERANCE_RANGE,
    ExpectationVector,
    reduced_rom,
    sample_complexity,
)
from .spinchain import (
    SpinChainSpec,
    hamiltonian_measurement_set,
    sweep_records,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _in_range(convert, low, high, expected: str):
    """An argparse type: ``convert`` the text and refuse a value outside [low, high)."""

    def parse(text: str):
        value = convert(text)  # argparse reports a ValueError as an invalid value
        if not low <= value < high:  # False for NaN as well
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    parse.__name__ = convert.__name__  # named in "invalid float value: 'abc'"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="magicscope")
    at_least_one = _in_range(int, 1, math.inf, "an integer >= 1")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("polytope", help="vertex file from a measurement file")
    p_poly.add_argument("measurements")
    p_poly.add_argument("--out", default="-")
    p_poly.add_argument("--format", choices=("json", "txt"), default="json")

    p_rom = sub.add_parser("rom", help="robustness verdict from expectations")
    p_rom.add_argument("measurements")
    p_rom.add_argument("expectations")
    # the least positive float is where "> 0" starts
    p_rom.add_argument("--decision-tol", default=DECISION_TOLERANCE,
                       type=_in_range(float, math.ulp(0.0), math.inf, "a finite number > 0"))

    p_scan = sub.add_parser("scan", help="spin-chain parameter sweep")
    p_scan.add_argument("--model", required=True, choices=("tfim", "annni", "xxz"))
    p_scan.add_argument("--n", required=True, type=int)
    p_scan.add_argument("--grid", required=True, help="param=start:stop:steps[,...]")
    p_scan.add_argument("--measurements", default="first-cell",
                        help="first-cell, all-terms, or a measurement file path")
    p_scan.add_argument("--boundary", choices=("periodic", "open"), default="periodic")
    p_scan.add_argument("--out", required=True)
    p_scan.add_argument("--resume", action="store_true")
    p_scan.add_argument("--threads", type=at_least_one, default=os.cpu_count() or 1)

    p_oracle = sub.add_parser("oracle", help="brute-force cross checks")
    p_oracle.add_argument("--check", required=True,
                          choices=("hulls", "counts", "rom-bound", "lemma1"))
    p_oracle.add_argument("--n", type=at_least_one, default=2,
                          help="qubits: 1-4 for counts, 1-3 for the others")
    p_oracle.add_argument("--trials", type=at_least_one, default=20)
    p_oracle.add_argument("--seed", type=_in_range(int, 0, math.inf, "an integer >= 0"),
                          default=0)

    lp_range = "a number in [{:g}, {:g})".format(*LP_TOLERANCE_RANGE)
    for p in (p_rom, p_scan, p_oracle):
        p.add_argument("--lp-tol", type=_in_range(float, *LP_TOLERANCE_RANGE, lp_range),
                       default=LP_TOLERANCE)
    return parser


def _load_measurements(path: str) -> MeasurementSet:
    try:
        return read_measurement_file(path)
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    except (PauliError, UnicodeDecodeError) as exc:
        raise CliError(f"{path}: {exc}", EXIT_PARSE) from None


def _read_expectations(path: str, measurements: MeasurementSet) -> ExpectationVector:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    try:
        text = data.decode("utf-8")
        if text.lstrip().startswith("{"):
            values = json.loads(text)["expectations"]
            # float() would take a JSON string, and a JSON boolean reads as 0 or 1
            bad = [v for v in values if type(v) not in (int, float)]
            if bad:
                raise TypeError(f"expectations must be JSON numbers, got {bad[0]!r}")
        else:
            values = [float(line) for line in text.splitlines() if line.strip()]
        expectations = ExpectationVector.of(values)
    except (KeyError, TypeError, ValueError) as exc:  # JSON and UTF-8 errors are ValueErrors
        raise CliError(f"{path}: {type(exc).__name__}: {exc}", EXIT_PARSE) from None
    if expectations.m != len(measurements):
        raise CliError(
            f"{expectations.m} expectations for {len(measurements)} measurements",
            EXIT_PARSE,
        )
    return expectations


def _open_output(path: str, mode: str = "w", newline: Optional[str] = None) -> TextIO:
    try:
        return open(path, mode, newline=newline, encoding="utf-8")
    except OSError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None


def _cmd_polytope(args) -> int:
    measurements = _load_measurements(args.measurements)
    out = contextlib.nullcontext(sys.stdout) if args.out == "-" else _open_output(args.out)
    with out as fh:
        start = time.perf_counter()
        vset = v_representation(measurements)
        elapsed = time.perf_counter() - start
        if args.format == "txt":
            vset.write_txt(fh)
        else:
            vset.write_json(fh)
            if args.out == "-":
                fh.write("\n")
    print(
        f"|stab(M)| = {len(vset.vertices)}  |I_max| = {len(vset.starts)}  "
        f"elapsed = {elapsed:.3f}s",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_rom(args) -> int:
    measurements = _load_measurements(args.measurements)
    expectations = _read_expectations(args.expectations, measurements)
    vset = v_representation(measurements)
    result = reduced_rom(
        vset, expectations, decision_tolerance=args.decision_tol, lp_tolerance=args.lp_tol
    )
    if result.status == "infeasible":
        raise CliError("expectations lie outside the affine hull", EXIT_INFEASIBLE)
    if result.status != "optimal":
        raise CliError(f"LP solver failed: {result.cause}", EXIT_SOLVER)
    payload = {
        "rom": result.rom,
        "member": result.member,
        "status": result.status,
        "path": result.path,
        "witnessed": not result.member,
        "sample_bound": sample_complexity(max(1.0, result.rom), 0.1, 0.05),
    }
    print(json.dumps(payload, indent=1))
    return EXIT_OK


def _parse_grid(spec: str) -> List[Dict[str, float]]:
    axes = []
    for part in spec.split(","):
        try:
            name, rng = part.split("=")
            start, stop, steps = rng.split(":")
            a, b = float(start), float(stop)
            count = int(steps)
            # linspace turns an infinite end, or a span past the float range, into NaN
            if count < 1 or not math.isfinite(b - a):
                raise ValueError
            values = np.linspace(a, b, count)
        except ValueError:
            raise CliError(f"bad grid axis {part!r}", EXIT_USAGE) from None
        name = name.strip()
        if name in dict(axes):
            raise CliError(f"grid axis {name!r} given twice", EXIT_USAGE)
        axes.append((name, values))
    grid: List[Dict[str, float]] = [{}]
    for name, values in axes:
        grid = [{**point, name: float(v)} for point in grid for v in values]
    return grid


def _cmd_scan(args) -> int:
    grid = _parse_grid(args.grid)
    try:
        spec = SpinChainSpec(args.model, args.n, grid[0], args.boundary)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_USAGE) from None
    if args.measurements in ("first-cell", "all-terms"):
        measurements = hamiltonian_measurement_set(spec, args.measurements)
    else:
        measurements = _load_measurements(args.measurements)
        if measurements.n != args.n:
            raise CliError(
                f"{args.measurements}: {measurements.n}-qubit measurements for --n {args.n}",
                EXIT_USAGE,
            )
    param_names = sorted(grid[0].keys())
    columns = (
        ["model", "n", "boundary"]
        + param_names
        + ["energy", "gap_estimate"]
        + [format_pauli(p) for p in measurements]
        + ["rom", "degenerate_flag", "solver_status"]
    )

    run = (args.model, str(args.n), args.boundary)
    done = set()
    if args.resume and os.path.exists(args.out):
        with open(args.out, "rb+") as fh:
            # a row without its line end was not finished: cut it off before reading
            fh.truncate(fh.read().rfind(b"\n") + 1)
        with open(args.out, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is not None and reader.fieldnames != columns:
                raise CliError(
                    f"{args.out}: header does not match this scan's columns", EXIT_USAGE
                )
            for row in reader:
                if (row["model"], row["n"], row["boundary"]) != run:
                    raise CliError(
                        f"{args.out}: line {reader.line_num} is from another model, n or boundary",
                        EXIT_USAGE,
                    )
                done.add(tuple(row[name] for name in param_names))

    def key(point: Dict[str, float]):
        return tuple(repr(point[name]) for name in param_names)

    pending = [p for p in grid if key(p) not in done]
    if not pending:  # a finished scan: the polytope build alone can take seconds
        return EXIT_OK
    mode = "a" if (args.resume and done) else "w"
    failed = 0
    with _open_output(args.out, mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(columns)
            fh.flush()
        vset = v_representation(measurements)
        records = sweep_records(
            spec, pending, measurements, vset, threads=args.threads, lp_tolerance=args.lp_tol
        )
        # each row reaches the file as its point finishes, in grid order, so
        # a killed scan leaves a prefix of the grid for --resume to extend
        for record in records:
            if record.solver_status != "optimal":
                failed += 1
                where = " ".join(f"{name}={record.params[name]!r}" for name in param_names)
                why = f": {record.cause}" if record.cause else ""
                print(f"{where}: {record.solver_status}{why}", file=sys.stderr)
            row = [args.model, args.n, args.boundary]
            row += [repr(record.params[name]) for name in param_names]
            row += [record.energy, record.gap_estimate]
            row += list(record.expectations) if record.expectations else [""] * len(measurements)
            row += [record.rom, record.degenerate_flag, record.solver_status]
            writer.writerow(row)
            fh.flush()
    if failed:
        print(f"{failed} grid points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def _random_measurement_set(n: int, m: int, rng: np.random.Generator) -> MeasurementSet:
    chosen = {}
    while len(chosen) < m:
        x = int(rng.integers(0, 1 << n))
        z = int(rng.integers(0, 1 << n))
        if x == 0 and z == 0:
            continue
        chosen[hermitian(n, x, z, bool(rng.integers(0, 2)))] = None  # an insertion-ordered set
    return MeasurementSet(tuple(chosen))


def _cmd_oracle(args) -> int:
    cap = oracle_mod.ORACLE_MAX_QUBITS if args.check == "counts" else 3
    if args.n > cap:
        raise CliError(f"oracle --check {args.check} takes --n in 1-{cap}", EXIT_USAGE)
    rng = np.random.default_rng(args.seed)
    failures = []
    if args.check == "counts":
        expected = oracle_mod.stabilizer_group_count(args.n)
        actual = len(oracle_mod.enumerate_stabilizer_groups(args.n))
        ok = expected == actual
        print(json.dumps({"check": "counts", "n": args.n, "expected": expected,
                          "actual": actual, "pass": ok}))
        return EXIT_OK if ok else EXIT_INFEASIBLE
    for trial in range(args.trials):
        m = int(rng.integers(2, 7))
        measurements = _random_measurement_set(args.n, m, rng)
        if args.check == "hulls":
            bottom = v_representation(measurements).vertices
            top = list(oracle_mod.topdown_vertices(measurements))
            if not oracle_mod.hull_equal(bottom, top, lp_tolerance=args.lp_tol):
                failures.append([format_pauli(p) for p in measurements])
        elif args.check == "lemma1":
            base = v_representation(measurements).to_txt()
            padded = v_representation(measurements.padded(measurements.n + 2)).to_txt()
            if base != padded:
                failures.append([format_pauli(p) for p in measurements])
        else:  # rom-bound
            state = oracle_mod.random_pure_state(args.n, rng)
            table = oracle_mod.full_pauli_table(state)
            full = oracle_mod.full_rom(table, args.n, lp_tolerance=args.lp_tol)
            vset = v_representation(measurements)
            b = ExpectationVector.of(oracle_mod.measurement_expectations(table, measurements))
            reduced = reduced_rom(vset, b, lp_tolerance=args.lp_tol).rom
            if reduced > full + 1e-6:
                failures.append([format_pauli(p) for p in measurements])
    report = {
        "check": args.check,
        "n": args.n,
        "trials": args.trials,
        "failures": failures,
        "pass": not failures,
    }
    print(json.dumps(report))
    return EXIT_OK if not failures else EXIT_INFEASIBLE


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "polytope": _cmd_polytope,
        "rom": _cmd_rom,
        "scan": _cmd_scan,
        "oracle": _cmd_oracle,
    }
    try:
        return handlers[args.command](args)
    except CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
