"""Command-line interface: subcommands, file formats, exit codes."""

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from magicscope.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOLVER,
    EXIT_USAGE,
    _parse_grid,
    build_parser,
    main,
)
from magicscope.cli import CliError
from magicscope.pauli import format_pauli
from magicscope.rom import LP_TOLERANCE
from magicscope.spinchain import SpinChainSpec, hamiltonian_measurement_set
from util import fail_highs, loosen_highs

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def write(path, text):
    path.write_text(text)
    return str(path)


@pytest.fixture
def octahedron_file(tmp_path):
    return write(tmp_path / "oct.txt", "X\nY\nZ\n")


@pytest.fixture
def diamond_file(tmp_path):
    return write(tmp_path / "diamond.txt", "ZZ\nXI\n")


class TestPolytope:
    def test_octahedron_json(self, octahedron_file, capsys):
        assert main(["polytope", octahedron_file]) == EXIT_OK
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert len(payload["vertices"]) == 6
        assert "|stab(M)| = 6" in captured.err
        assert "|I_max| = 3" in captured.err

    def test_diamond_json(self, diamond_file, capsys):
        assert main(["polytope", diamond_file]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert sorted(map(tuple, payload["vertices"])) == [
            (-1, 0), (0, -1), (0, 1), (1, 0),
        ]

    def test_export_matches_the_benchmark_digest(self, tmp_path):
        # perfbench's polytope-export workload accepts only these bytes
        reference = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
        out = tmp_path / "xxz9.json"
        measurements = str(PERFBENCH / "data" / "xxz9_all_terms.txt")
        assert main(["polytope", measurements, "--out", str(out)]) == EXIT_OK
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == reference["polytope-export"]["sha256"]

    def test_context_starts_computed_once(self, octahedron_file, tmp_path, capsys, monkeypatch):
        import magicscope.cli as cli

        built = []
        original = cli.v_representation

        def counting(measurements):
            built.append(original(measurements))
            return built[-1]

        monkeypatch.setattr(cli, "v_representation", counting)
        out = tmp_path / "v.json"
        assert main(["polytope", octahedron_file, "--format", "json", "--out", str(out)]) == EXIT_OK
        # the writer and the |I_max| line share the starts of one v_representation
        assert len(built) == 1
        assert built[0].starts == (0, 2, 4)
        assert len(json.loads(out.read_text())["vertices"]) == 6
        err = capsys.readouterr().err
        assert "|I_max| = 3" in err
        # the build's and the write's own seconds
        assert re.search(r"elapsed = \d+\.\d{3}s  write = \d+\.\d{3}s$", err.strip())

    def test_closed_stdout_exits_1_into_devnull(self, octahedron_file, tmp_path, monkeypatch):
        class ClosedPipe:
            """A stdout whose reader has gone; its descriptor is a file's."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def fileno(self):
                return self.fh.fileno()

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh))
            assert main(["polytope", octahedron_file, "--format", "txt"]) == EXIT_USAGE
            # what stdout still buffers goes to devnull at exit
            assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))

    def test_reader_that_leaves_early_gets_no_traceback(self, tmp_path):
        # about 1 MB of rows, far more than a pipe holds
        ms = hamiltonian_measurement_set(SpinChainSpec("xxz", 7, {}))
        path = write(tmp_path / "xxz7.txt", "\n".join(format_pauli(p) for p in ms) + "\n")
        env_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        with subprocess.Popen(
            [sys.executable, "-m", "magicscope.cli", "polytope", path, "--format", "txt"],
            env={**os.environ, "PYTHONPATH": env_path},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as child:
            try:
                first = child.stdout.readline()
                child.stdout.close()
                err = child.stderr.read()
                code = child.wait(timeout=60)
            finally:
                child.kill()  # does nothing once the child has exited
        assert first.count(b" ") == ms.m - 1
        assert code == EXIT_USAGE
        assert err == b""

    def test_txt_output_file(self, octahedron_file, tmp_path, capsys):
        out = tmp_path / "v.txt"
        assert main(["polytope", octahedron_file, "--out", str(out),
                     "--format", "txt"]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 6

    def test_duplicate_line_is_parse_error(self, tmp_path, capsys):
        path = write(tmp_path / "dup.txt", "XX\nZZ\nXX\n")
        assert main(["polytope", path]) == EXIT_PARSE
        assert "line 3" in capsys.readouterr().err

    def test_deterministic_output(self, octahedron_file, capsys):
        main(["polytope", octahedron_file])
        first = capsys.readouterr().out
        main(["polytope", octahedron_file])
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("fmt, added", [("json", "\n"), ("txt", "")])
    def test_stdout_matches_out_file(self, tmp_path, capsys, fmt, added):
        ms = write(tmp_path / "m.txt", "XX\nYY\nZZ\nXI\n")
        out = tmp_path / f"v.{fmt}"
        assert main(["polytope", ms, "--format", fmt, "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert main(["polytope", ms, "--format", fmt, "--out", "-"]) == EXIT_OK
        assert capsys.readouterr().out == out.read_bytes().decode() + added

    def test_unwritable_out_is_usage_error(self, octahedron_file, tmp_path, capsys,
                                           monkeypatch):
        import magicscope.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("the build started before the output was opened")

        monkeypatch.setattr(cli, "v_representation", refuse)
        out = str(tmp_path / "no" / "such" / "v.json")
        assert main(["polytope", octahedron_file, "--out", out]) == EXIT_USAGE
        assert out in capsys.readouterr().err


class TestRom:
    def test_t_state_witnessed(self, octahedron_file, tmp_path, capsys):
        b = write(tmp_path / "b.txt", "\n".join([str(1 / math.sqrt(3))] * 3))
        assert main(["rom", octahedron_file, b]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rom"] == pytest.approx(math.sqrt(3), abs=1e-6)
        assert payload["witnessed"] is True
        assert payload["member"] is False
        assert payload["sample_bound"] == 2214  # ceil(200 * 3 * ln 40)

    def test_plus_state_not_witnessed(self, octahedron_file, tmp_path, capsys):
        b = write(tmp_path / "b.txt", "1\n0\n0\n")
        assert main(["rom", octahedron_file, b]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rom"] == pytest.approx(1.0, abs=1e-9)
        assert payload["witnessed"] is False

    def test_diamond_value(self, diamond_file, tmp_path, capsys):
        b = write(tmp_path / "b.txt", "0.8\n0.8\n")
        assert main(["rom", diamond_file, b]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["rom"] == pytest.approx(1.6, abs=1e-9)

    def test_reports_lp_path(self, tmp_path, capsys):
        ms = write(tmp_path / "m.txt", "XII\nIXI\nIIX\n")  # every shift fixes the set
        for values, path in (("0.6\n0.6\n0.6\n", "symmetric"), ("0.6\n0.5\n0.6\n", "full")):
            b = write(tmp_path / "b.txt", values)
            assert main(["rom", ms, b]) == EXIT_OK
            assert json.loads(capsys.readouterr().out)["path"] == path

    def test_json_expectations(self, octahedron_file, tmp_path, capsys):
        b = write(tmp_path / "b.json", json.dumps({"expectations": [0, 0, 0]}))
        assert main(["rom", octahedron_file, b]) == EXIT_OK
        out = capsys.readouterr().out
        assert json.loads(out)["rom"] == pytest.approx(1.0)
        # a UTF-8 byte-order mark before the JSON, or before the same values
        # one a line, changes nothing
        for text in (json.dumps({"expectations": [0, 0, 0]}), "0\n0\n0\n"):
            (tmp_path / "bom").write_bytes(b"\xef\xbb\xbf" + text.encode())
            assert main(["rom", octahedron_file, str(tmp_path / "bom")]) == EXIT_OK
            assert capsys.readouterr().out == out

    def test_misaligned_files(self, octahedron_file, tmp_path, capsys):
        b = write(tmp_path / "b.txt", "0.5\n0.5\n")
        assert main(["rom", octahedron_file, b]) == EXIT_PARSE

    def test_out_of_range_expectation(self, octahedron_file, tmp_path):
        b = write(tmp_path / "b.txt", "1.5\n0\n0\n")
        assert main(["rom", octahedron_file, b]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "name, data",
        [
            ("b.txt", b"0.5\nhalf\n0\n"),
            ("b.json", b'{"expectations": [0, 0,'),
            ("b.json", b'{"values": [0, 0, 0]}'),
            ("b.txt", b"nan\n0\n0\n"),
            ("b.txt", b"\xff\xfe0\n0\n0\n"),
            ("b.json", b'{"expectations": [true, false, true]}'),
            ("b.json", b'{"expectations": ["0.5", "0.5", "0.5"]}'),
            ("b.json", b'{"expectations": [%s, 0, 0]}' % (b"9" * 400)),
        ],
        ids=["non-numeric-line", "truncated-json", "no-expectations-key", "nan", "not-utf8",
             "json-bool", "json-string", "json-huge-int"],
    )
    def test_malformed_expectations_are_parse_errors(
        self, octahedron_file, tmp_path, capsys, name, data
    ):
        b = tmp_path / name
        b.write_bytes(data)
        assert main(["rom", octahedron_file, str(b)]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and str(b) in captured.err

    def test_infeasible_exit_code(self, tmp_path):
        ms = write(tmp_path / "m.txt", "+Z\n-Z\n")
        b = write(tmp_path / "b.txt", "1\n1\n")
        assert main(["rom", ms, b]) == EXIT_INFEASIBLE

    def test_duality_gap_at_loose_tolerance_is_solver_failure(
        self, octahedron_file, tmp_path, capsys, monkeypatch
    ):
        import magicscope.rom as rom

        # rom 1.5; at feasibility tolerance 0.9 the dual objective reads 1.0,
        # a false membership
        b = write(tmp_path / "b.txt", "0.5\n0.5\n0.5\n")
        with monkeypatch.context() as patch:
            loosen_highs(patch, rom, 0.9)
            assert main(["rom", octahedron_file, b]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == "" and "duality gap 0.5" in captured.err
        loosen_highs(monkeypatch, rom, 0.5)
        assert main(["rom", octahedron_file, b]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rom"] == pytest.approx(1.5, abs=1e-9)

    def test_a_highs_failure_exits_4_with_its_status(
        self, octahedron_file, tmp_path, capsys, monkeypatch
    ):
        import magicscope.rom as rom

        fail_highs(monkeypatch, rom, 2)
        b = write(tmp_path / "b.txt", "0.5\n0.5\n0.5\n")
        assert main(["rom", octahedron_file, b]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "LP solver failed: HiGHS status 2: injected\n"

    def test_unreadable_expectations_are_usage_errors(self, octahedron_file, tmp_path, capsys):
        for b in (tmp_path / "missing.txt", tmp_path):  # absent, and a directory
            assert main(["rom", octahedron_file, str(b)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == "" and str(b) in captured.err


class TestScan:
    def test_tfim_first_cell(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main([
            "scan", "--model", "tfim", "--n", "6", "--grid", "g=0:2:5",
            "--measurements", "first-cell", "--out", str(out),
        ])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        assert set(rows[0]) == {
            "model", "n", "boundary", "g", "energy", "gap_estimate",
            "+ZZIIII", "+XIIIII", "rom", "degenerate_flag", "solver_status",
        }
        assert float(rows[0]["rom"]) == pytest.approx(1.0, abs=1e-6)
        assert all(r["solver_status"] == "optimal" for r in rows)

    def test_failed_lps_exit_4_with_their_cause(self, tmp_path, capsys, monkeypatch):
        import magicscope.rom as rom

        # at feasibility tolerance 0.9 every LP but the g = 0 one leaves a duality gap
        loosen_highs(monkeypatch, rom, 0.9)
        out = tmp_path / "scan.csv"
        code = main(["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:2:5",
                     "--out", str(out)])
        assert code == EXIT_SOLVER
        err = capsys.readouterr().err
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["solver_status"] for r in rows] == ["optimal"] + ["numerically-degenerate"] * 4
        for r in rows[1:]:
            assert f"g={r['g']}: numerically-degenerate: duality gap" in err
        assert "g=0.0:" not in err
        assert "4 grid points failed" in err

    def test_resume_skips_done_rows(self, tmp_path, monkeypatch):
        out = tmp_path / "scan.csv"
        args = ["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:3",
                "--measurements", "first-cell", "--out", str(out)]
        assert main(args) == EXIT_OK
        with open(out, newline="") as fh:
            full = list(csv.DictReader(fh))
        # truncate to the first row, then resume
        with open(out, newline="") as fh:
            lines = fh.read().splitlines()
        out.write_text("\n".join(lines[:2]) + "\n")
        assert main(args + ["--resume"]) == EXIT_OK
        with open(out, newline="") as fh:
            resumed = list(csv.DictReader(fh))
        assert len(resumed) == 3
        assert [r["g"] for r in resumed] == [r["g"] for r in full]
        # resuming a finished scan builds no polytope and leaves the file as it is
        import magicscope.cli as cli

        builds = []
        monkeypatch.setattr(cli, "v_representation", lambda *a: builds.append(a))
        finished = out.read_bytes()
        assert main(args + ["--resume"]) == EXIT_OK
        assert builds == [] and out.read_bytes() == finished

    def test_resume_after_a_cut_inside_a_row(self, tmp_path):
        # a killed scan can leave its last row without its line end: that point is not done
        out = tmp_path / "scan.csv"
        args = ["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:2:5",
                "--out", str(out)]
        assert main(args) == EXIT_OK
        full = out.read_bytes()
        row = full.index(b"\ntfim,4,periodic,1.0,") + 1
        out.write_bytes(full[:row + 25])
        assert main(args + ["--resume"]) == EXIT_OK
        assert out.read_bytes() == full

    def test_a_killed_scan_resumes_to_the_uninterrupted_file(self, tmp_path):
        # each row reaches the file as its point finishes, so a scan killed
        # mid-grid leaves rows for --resume to keep
        scan = ["scan", "--model", "annni", "--n", "10", "--measurements", "all-terms",
                "--grid", "k=0:1:4,g=0:2:10"]
        whole = tmp_path / "whole.csv"
        assert main(scan + ["--out", str(whole)]) == EXIT_OK
        out = tmp_path / "scan.csv"
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-m", "magicscope.cli"] + scan + ["--out", str(out)],
            env={**os.environ, "PYTHONPATH": path},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            # the header and one whole row
            while not (out.exists() and out.read_bytes().count(b"\n") >= 2):
                assert child.poll() is None, "the scan ended before any row was on disk"
                assert time.monotonic() < deadline
                time.sleep(0.005)
        finally:
            child.kill()
            child.wait(timeout=60)
        assert out.read_bytes().count(b"\n") < whole.read_bytes().count(b"\n")
        assert main(scan + ["--out", str(out), "--resume"]) == EXIT_OK
        assert out.read_bytes() == whole.read_bytes()

    @pytest.mark.parametrize(
        "other",
        [["--model", "annni", "--grid", "g=0:1:3"], ["--model", "tfim", "--grid", "h=0:1:3"]],
        ids=["other-model", "other-parameter"],
    )
    def test_resume_rejects_other_header(self, tmp_path, other):
        out = tmp_path / "scan.csv"
        base = ["scan", "--n", "4", "--measurements", "first-cell", "--out", str(out)]
        assert main(base + ["--model", "tfim", "--grid", "g=0:1:3"]) == EXIT_OK
        before = out.read_bytes()
        assert main(base + other + ["--resume"]) == EXIT_USAGE
        assert out.read_bytes() == before

    @pytest.mark.parametrize(
        "make, code",
        [(lambda out: out.mkdir(), EXIT_USAGE),
         (lambda out: out.write_bytes(b"model,n\n\xff\xfe,4\n"), EXIT_PARSE)],
        ids=["directory", "not-utf-8"],
    )
    def test_resume_reports_an_unreadable_out(self, tmp_path, capsys, monkeypatch, make, code):
        import magicscope.cli as cli

        builds = []
        monkeypatch.setattr(cli, "v_representation", lambda *a: builds.append(a))
        out = tmp_path / "scan.csv"
        make(out)
        before = out.read_bytes() if out.is_file() else None
        assert main(["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:3",
                     "--out", str(out), "--resume"]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and "scan.csv" in captured.err
        assert "Traceback" not in captured.err
        assert builds == [] and sorted(tmp_path.iterdir()) == [out]
        assert (out.read_bytes() if out.is_file() else None) == before

    def test_out_dash_is_refused(self, tmp_path, capsys, monkeypatch):
        # "-" is stdout for polytope; a scan's CSV must be a file --resume can read back
        monkeypatch.chdir(tmp_path)
        assert main(["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:3",
                     "--out", "-"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--out" in captured.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "other", [["--model", "annni"], ["--boundary", "open"]], ids=["other-model", "other-boundary"]
    )
    def test_resume_rejects_rows_of_another_run(self, tmp_path, other):
        # a measurement file gives every model the same columns, so only the rows tell
        ms = write(tmp_path / "m.txt", "ZZII\nXIII\n")
        out = tmp_path / "scan.csv"
        base = ["scan", "--n", "4", "--grid", "g=0:1:3", "--measurements", ms, "--out", str(out)]
        assert main(base + ["--model", "tfim"]) == EXIT_OK
        before = out.read_bytes()
        assert main(base + ["--model", "tfim"] + other + ["--resume"]) == EXIT_USAGE
        assert out.read_bytes() == before

    def test_measurement_file_input(self, tmp_path):
        ms = write(tmp_path / "m.txt", "ZZIIII\nXIIIII\n")
        out = tmp_path / "scan.csv"
        code = main(["scan", "--model", "tfim", "--n", "6", "--grid",
                     "g=1:1:1", "--measurements", ms, "--out", str(out)])
        assert code == EXIT_OK

    def test_bad_grid_is_usage_error(self, tmp_path, capsys, recwarn):
        out = tmp_path / "scan.csv"
        # a non-finite end or span is refused as typed, before linspace warns or makes a NaN
        for axis in ("g=0;2;5", "g=0:inf:3", "g=nan:1:3", "g=-inf:0:1", "g=-1e308:1e308:3"):
            assert main(["scan", "--model", "tfim", "--n", "6", "--grid",
                         axis, "--out", str(out)]) == EXIT_USAGE
            assert f"bad grid axis {axis!r}" in capsys.readouterr().err
            assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
            assert not out.exists()

    @pytest.fixture
    def no_work(self, monkeypatch):
        import magicscope.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("the scan started work it should have refused")

        monkeypatch.setattr(cli, "v_representation", refuse)
        monkeypatch.setattr(cli, "sweep_records", refuse)

    @pytest.mark.parametrize("n", ["2", "15"])
    def test_out_of_range_n_is_usage_error(self, tmp_path, capsys, no_work, n):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--model", "tfim", "--n", n, "--grid", "g=0:1:2",
                     "--out", str(out)]) == EXIT_USAGE
        assert "qubit count" in capsys.readouterr().err
        assert not out.exists()

    def test_measurement_width_mismatch_is_usage_error(self, tmp_path, capsys, no_work):
        ms = write(tmp_path / "m.txt", "ZZI\nXII\n")
        out = tmp_path / "scan.csv"
        assert main(["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:2",
                     "--measurements", ms, "--out", str(out)]) == EXIT_USAGE
        assert "3-qubit" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("model, grid", [
        ("annni", "kk=0:1:3"), ("xxz", "g=0:1:2"), ("tfim", "g=0:1:2,k=0:1:2"),
    ])
    def test_unknown_coupling_is_usage_error(self, tmp_path, capsys, no_work, model, grid):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--model", model, "--n", "3", "--grid", grid,
                     "--out", str(out)]) == EXIT_USAGE
        assert "no coupling" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_grid_axis_is_usage_error(self, tmp_path, capsys, no_work):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:2,g=0:1:3",
                     "--out", str(out)]) == EXIT_USAGE
        assert "'g' given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_periodic_annni_at_three_qubits_is_usage_error(self, tmp_path, capsys, no_work):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--model", "annni", "--n", "3", "--grid", "k=1:1:1,g=0:0:1",
                     "--out", str(out)]) == EXIT_USAGE
        assert "next-nearest bonds coincide" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, no_work):
        out = str(tmp_path / "no" / "such" / "scan.csv")
        assert main(["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:2",
                     "--out", out]) == EXIT_USAGE
        assert out in capsys.readouterr().err

    def test_grid_parser(self):
        grid = _parse_grid("a=0:1:3,b=2:2:1")
        assert grid == [
            {"a": 0.0, "b": 2.0}, {"a": 0.5, "b": 2.0}, {"a": 1.0, "b": 2.0},
        ]
        with pytest.raises(CliError):
            _parse_grid("a=0:1:0")


class TestOracleCommand:
    def test_counts(self, capsys):
        assert main(["oracle", "--check", "counts", "--n", "2"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["expected"] == payload["actual"] == 60
        assert payload["pass"] is True

    def test_hulls(self, capsys):
        assert main(["oracle", "--seed", "7", "--check", "hulls", "--n", "2",
                     "--trials", "10"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True and payload["failures"] == []

    def test_lemma1(self, capsys):
        assert main(["oracle", "--seed", "3", "--check", "lemma1", "--n", "2",
                     "--trials", "10"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    def test_rom_bound(self, capsys):
        assert main(["oracle", "--seed", "1", "--check", "rom-bound", "--n", "2",
                     "--trials", "10"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["pass"] is True

    @pytest.mark.parametrize("check, broken", [
        ("hulls", "hull_equal"),
        ("lemma1", "v_representation"),
        ("rom-bound", "full_rom"),
        ("rom-bound", "reduced_rom"),
    ])
    def test_a_failing_set_is_reported(self, capsys, monkeypatch, check, broken):
        import magicscope.cli as cli
        import magicscope.oracle as oracle
        import magicscope.rom as rom

        if broken == "hull_equal":
            monkeypatch.setattr(oracle, "hull_equal", lambda *args, **kwargs: False)
        elif broken == "v_representation":  # the padded set's text names its qubit count
            monkeypatch.setattr(cli, "v_representation",
                                lambda ms: SimpleNamespace(to_txt=lambda: str(ms.n)))
        elif broken == "full_rom":  # a full robustness below every reduced one
            monkeypatch.setattr(oracle, "full_rom", lambda *args, **kwargs: 0.0)
        else:  # every reduced LP fails, so its rom is NaN
            fail_highs(monkeypatch, rom, 4)
        drawn = []
        draw = cli._random_measurement_set
        monkeypatch.setattr(cli, "_random_measurement_set",
                            lambda *args: drawn.append(draw(*args)) or drawn[-1])
        assert main(["oracle", "--check", check, "--n", "2", "--trials", "2"]) == EXIT_INFEASIBLE
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is False and len(drawn) == 2
        assert payload["failures"] == [[format_pauli(p) for p in ms] for ms in drawn]

    @pytest.mark.parametrize("check, status, cause", [
        ("hulls", 4, "status 4: injected"),
        ("hulls", 2, "status 2: injected"),  # an infeasible hull LP is no verdict either
        ("rom-bound", 4, "status 4: injected"),
        ("rom-bound", 2, "not consistent with any state"),  # full_rom's ValueError
    ])
    def test_a_failed_oracle_lp_exits_4(self, capsys, monkeypatch, check, status, cause):
        import magicscope.oracle as oracle

        fail_highs(monkeypatch, oracle, status)
        assert main(["oracle", "--check", check, "--n", "2", "--trials", "2"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"oracle --check {check}: ")
        assert cause in captured.err

    def test_n_cap(self, capsys, monkeypatch):
        import magicscope.cli as cli
        import magicscope.oracle as oracle

        def refuse(*args, **kwargs):
            raise AssertionError("the oracle started work it should have refused")

        # a random set of 0-qubit Paulis is never drawn, so n=0 would loop forever
        monkeypatch.setattr(cli, "_random_measurement_set", refuse)
        monkeypatch.setattr(oracle, "enumerate_stabilizer_groups", refuse)
        for argv in (
            ["--check", "hulls", "--n", "4"],
            ["--check", "hulls", "--n", "0"],
            ["--check", "rom-bound", "--n", "-1"],
            ["--check", "counts", "--n", "5"],
            ["--check", "counts", "--n", "0"],
            ["--check", "lemma1", "--trials", "0"],
            ["--check", "hulls", "--trials", "-3"],
        ):
            assert main(["oracle"] + argv) == EXIT_USAGE, argv
            captured = capsys.readouterr()
            assert captured.out == "" and argv[2] in captured.err, argv


class TestGlobalFlags:
    """Flags on the subcommands that read them, and the errors every command shares."""

    def test_readme_flag_table_names_the_subcommands_that_take_each_flag(self):
        (subcommands,) = [
            a.choices for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        lines = (ROOT / "README.md").read_text().splitlines()
        first = lines.index("| flag | subcommands | accepted values |") + 2
        rows = [line.split(" | ") for line in itertools.takewhile(str.strip, lines[first:])]
        assert rows
        for flag, named, _ in rows:
            flag = flag.strip("| `")
            taking = {
                name for name, p in subcommands.items()
                if any(flag in a.option_strings for a in p._actions)
            }
            assert taking, flag
            assert set(re.findall(r"`([^`]+)`", named)) & set(subcommands) == taking, flag

    def test_readme_commands_parse(self):
        # every magicscope command in README's sh blocks, with \ continuations
        # joined and a chain size for the loop's $n
        text = (ROOT / "README.md").read_text()
        blocks = re.findall(r"^```sh\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
        commands = [
            words[1:]
            for block in blocks
            for line in block.replace("\\\n", " ").replace("$n", "3").splitlines()
            if (words := shlex.split(line, comments=True))[:1] == ["magicscope"]
        ]
        assert len(commands) >= 10
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"README's magicscope {shlex.join(argv)} does not parse")

    def test_readme_library_sketch_runs(self, capsys):
        # its python block prints the T state's rom, sqrt(3), and the witness
        text = (ROOT / "README.md").read_text()
        (block,) = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
        exec(block, {})
        rom, witnessed = capsys.readouterr().out.split()
        assert abs(float(rom) - math.sqrt(3)) < 1e-12
        assert witnessed == "True"

    def test_usage_exit_code(self):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_non_utf8_measurement_file_is_parse_error(self, tmp_path, capsys):
        ms = tmp_path / "m.bin"
        ms.write_bytes(b"\xff\xfeZZ\nXI\n")
        b = write(tmp_path / "b.txt", "0\n0\n")
        out = str(tmp_path / "scan.csv")
        for argv in (
            ["polytope", str(ms)],
            ["rom", str(ms), b],
            ["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:2",
             "--measurements", str(ms), "--out", out],
        ):
            assert main(argv) == EXIT_PARSE, argv
            captured = capsys.readouterr()
            assert captured.out == "" and "m.bin" in captured.err

    def test_missing_file_is_parse_error(self, tmp_path):
        missing = str(tmp_path / "nope.txt")
        assert main(["polytope", missing]) in (EXIT_PARSE, EXIT_USAGE)

    @pytest.fixture
    def linprog_tolerances(self, monkeypatch):
        """(module, option, value) of each feasibility tolerance that an LP of
        rom or oracle sets, primal and dual."""
        import magicscope.oracle as oracle
        import magicscope.rom as rom

        seen = []
        for module in (rom, oracle):
            name = module.__name__.rsplit(".", 1)[1]

            def recording(*args, _name=name, _original=module.linprog, **kwargs):
                for option in ("primal_feasibility_tolerance", "dual_feasibility_tolerance"):
                    if option in kwargs["options"]:
                        seen.append((_name, option, kwargs["options"][option]))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, "linprog", recording)
        return seen

    @pytest.fixture
    def argv_of(self, octahedron_file, tmp_path):
        b = write(tmp_path / "b.txt", "0.5\n0.5\n0.5\n")
        commands = {
            "rom": ["rom", octahedron_file, b],
            "scan": ["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:2",
                     "--out", str(tmp_path / "scan.csv")],
            "oracle": ["oracle", "--check", "rom-bound", "--n", "2", "--trials", "3"],
        }
        return lambda command, *flags: commands[command] + list(flags)

    @pytest.mark.parametrize(
        "command, flag, value",
        [("scan", "--n", "2"), ("scan", "--n", "15"), ("oracle", "--seed", "-1")],
    )
    def test_out_of_range_value_is_refused_before_any_work(
        self, tmp_path, capsys, monkeypatch, linprog_tolerances, argv_of, command, flag, value
    ):
        import magicscope.cli as cli

        def refuse(*args, **kwargs):
            raise AssertionError("a file was read before the flags were checked")

        monkeypatch.setattr(cli, "read_measurement_file", refuse)
        assert main(argv_of(command, flag, value)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and f"argument {flag}:" in captured.err
        assert not (tmp_path / "scan.csv").exists()
        assert linprog_tolerances == []

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("polytope", "--threads"), ("polytope", "--lp-tol"), ("polytope", "--decision-tol"),
            ("polytope", "--seed"), ("rom", "--threads"), ("rom", "--seed"),
            ("rom", "--decision-tol"), ("scan", "--threads"), ("scan", "--decision-tol"),
            ("scan", "--seed"), ("oracle", "--decision-tol"), ("oracle", "--threads"),
            ("oracle", "--lp-tol"), ("rom", "--lp-tol"), ("scan", "--lp-tol"),
        ],
    )
    @pytest.mark.parametrize("place", ["global", "subcommand"])
    def test_flag_off_its_subcommand_is_refused(
        self, octahedron_file, tmp_path, capsys, linprog_tolerances, argv_of, place, command, flag
    ):
        argv = ["polytope", octahedron_file] if command == "polytope" else argv_of(command)
        value = "1e-6" if flag == "--decision-tol" else "2"
        argv = [flag, value] + argv if place == "global" else argv + [flag, value]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert linprog_tolerances == []
        assert not (tmp_path / "scan.csv").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("scan", "--boundary"), ("oracle", "--seed")],
    )
    def test_flag_before_its_subcommand_is_refused(self, capsys, argv_of, command, flag):
        value = "open" if flag == "--boundary" else "2"
        assert main([flag, value] + argv_of(command)) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    # Every robustness LP and every oracle LP solves at LP_TOLERANCE, the one
    # tolerance there is: each test records the feasibility options each
    # module's linprog receives.
    PRIMAL, DUAL = "primal_feasibility_tolerance", "dual_feasibility_tolerance"
    REDUCED = {("rom", PRIMAL), ("rom", DUAL)}

    @staticmethod
    def _solves_only_at_lp_tolerance(argv, linprog_tolerances, options):
        linprog_tolerances.clear()
        assert main(argv) == EXIT_OK, argv
        assert {(module, option) for module, option, _ in linprog_tolerances} == options
        assert {value for *_, value in linprog_tolerances} == {LP_TOLERANCE}, argv

    def test_lp_tol_reaches_rom_solver(self, argv_of, capsys, linprog_tolerances):
        self._solves_only_at_lp_tolerance(argv_of("rom"), linprog_tolerances, self.REDUCED)

    def test_lp_tol_reaches_scan_solver(self, argv_of, linprog_tolerances):
        self._solves_only_at_lp_tolerance(argv_of("scan"), linprog_tolerances, self.REDUCED)

    def test_lp_tol_reaches_oracle_solver(self, argv_of, capsys, linprog_tolerances):
        # rom-bound solves the reduced LP and the full one that bounds it; the
        # oracle's own LPs set only the primal tolerance
        rom_bound = argv_of("oracle", "--seed", "1")
        self._solves_only_at_lp_tolerance(
            rom_bound, linprog_tolerances, self.REDUCED | {("oracle", self.PRIMAL)}
        )
        hulls = list(rom_bound)
        hulls[hulls.index("rom-bound")] = "hulls"
        self._solves_only_at_lp_tolerance(hulls, linprog_tolerances, {("oracle", self.PRIMAL)})
