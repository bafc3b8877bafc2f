"""Command-line interface: subcommands, file formats, exit codes."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from magicscope.cli import (
    EXIT_INFEASIBLE,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_SOLVER,
    EXIT_USAGE,
    _parse_grid,
    main,
)
from magicscope.cli import CliError

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
        assert "|I_max| = 3" in capsys.readouterr().err

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
        assert json.loads(capsys.readouterr().out)["rom"] == pytest.approx(1.0)

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
        ],
        ids=["non-numeric-line", "truncated-json", "no-expectations-key", "nan", "not-utf8",
             "json-bool", "json-string"],
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
        self, octahedron_file, tmp_path, capsys
    ):
        # rom 1.5; at --lp-tol 0.9 the dual objective reads 1.0, a false membership
        b = write(tmp_path / "b.txt", "0.5\n0.5\n0.5\n")
        assert main(["rom", octahedron_file, b, "--lp-tol", "0.9"]) == EXIT_SOLVER
        captured = capsys.readouterr()
        assert captured.out == "" and "duality gap 0.5" in captured.err
        assert main(["rom", octahedron_file, b, "--lp-tol", "0.5"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rom"] == pytest.approx(1.5, abs=1e-9)


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

    def test_failed_lps_exit_4_with_their_cause(self, tmp_path, capsys):
        # at --lp-tol 0.9 every LP but the g = 0 one leaves a duality gap
        out = tmp_path / "scan.csv"
        code = main(["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:2:5",
                     "--lp-tol", "0.9", "--out", str(out)])
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
        args = ["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:2:5", "--threads", "1",
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
                "--grid", "k=0:1:4,g=0:2:10", "--threads", "2"]
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

    def test_usage_exit_code(self):
        assert main(["no-such-command"]) == EXIT_USAGE

    def test_negative_tolerance_rejected(self, octahedron_file, tmp_path, capsys):
        b = write(tmp_path / "b.txt", "0\n0\n0\n")
        assert main(["rom", octahedron_file, b, "--lp-tol", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--lp-tol" in captured.err

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--model", "tfim", "--n", "4", "--grid", "g=0:1:2",
                     "--out", str(out), "--threads", threads]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and "--threads" in captured.err
        assert not out.exists()

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
        """(module, primal feasibility tolerance) of every LP that rom and oracle solve."""
        import magicscope.oracle as oracle
        import magicscope.rom as rom

        seen = []
        for module in (rom, oracle):
            name = module.__name__.rsplit(".", 1)[1]

            def recording(*args, _name=name, _original=module.linprog, **kwargs):
                seen.append((_name, kwargs["options"]["primal_feasibility_tolerance"]))
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
        [(c, "--lp-tol", v) for c in ("rom", "scan", "oracle")
         for v in ("nan", "inf", "-1", "0", "1e-12", "1")]
        + [("rom", "--decision-tol", v) for v in ("nan", "inf", "0", "-1")]
        + [("scan", "--threads", v) for v in ("0", "-5")]
        + [("oracle", "--seed", "-1")],
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
            ("scan", "--decision-tol"), ("scan", "--seed"),
            ("oracle", "--decision-tol"), ("oracle", "--threads"),
        ],
    )
    @pytest.mark.parametrize("place", ["global", "subcommand"])
    def test_flag_off_its_subcommand_is_refused(
        self, octahedron_file, capsys, linprog_tolerances, argv_of, place, command, flag
    ):
        argv = ["polytope", octahedron_file] if command == "polytope" else argv_of(command)
        value = "1e-6" if flag == "--decision-tol" else "2"
        argv = [flag, value] + argv if place == "global" else argv + [flag, value]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert linprog_tolerances == []

    @pytest.mark.parametrize(
        "command, flag",
        [("rom", "--lp-tol"), ("rom", "--decision-tol"), ("scan", "--threads"), ("oracle", "--seed")],
    )
    def test_flag_before_its_subcommand_is_refused(self, capsys, argv_of, command, flag):
        value = "1e-6" if "tol" in flag else "2"
        assert main([flag, value] + argv_of(command)) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_lp_tol_reaches_rom_solver(self, argv_of, capsys, linprog_tolerances):
        assert main(argv_of("rom", "--lp-tol", "3e-8")) == EXIT_OK
        assert set(linprog_tolerances) == {("rom", 3e-8)}

    def test_lp_tol_reaches_scan_solver(self, argv_of, linprog_tolerances):
        assert main(argv_of("scan", "--lp-tol", "2e-7", "--threads", "1")) == EXIT_OK
        assert len(linprog_tolerances) >= 2 and set(linprog_tolerances) == {("rom", 2e-7)}

    def test_lp_tol_reaches_oracle_solver(self, argv_of, capsys, linprog_tolerances):
        assert main(argv_of("oracle", "--lp-tol", "4e-8", "--seed", "1")) == EXIT_OK
        # rom-bound solves the reduced LP and the full one that bounds it
        assert set(linprog_tolerances) == {("rom", 4e-8), ("oracle", 4e-8)}
        linprog_tolerances.clear()
        argv = argv_of("oracle", "--lp-tol", "4e-8", "--seed", "1")
        argv[argv.index("rom-bound")] = "hulls"
        assert main(argv) == EXIT_OK
        assert linprog_tolerances and set(linprog_tolerances) == {("oracle", 4e-8)}

    def test_decision_tol_reaches_the_verdict(self, octahedron_file, tmp_path, capsys):
        # rom 1 + 5e-4 on the octahedron: witnessed at the default, a member at 1e-2
        b = write(tmp_path / "b.txt", "0.5005\n0.5\n0\n")
        verdicts = []
        for extra in ([], ["--decision-tol", "1e-2"]):
            assert main(["rom", octahedron_file, b] + extra) == EXIT_OK
            verdicts.append(json.loads(capsys.readouterr().out)["witnessed"])
        assert verdicts == [True, False]
