"""Record the reference outputs the benchmark checks against.

Run from the repository root, at the commit whose outputs are the reference:

    python3 perfbench/make_reference.py

For each sweep workload it runs the whole 20x20 grid through ``sweep()`` and
stores, per grid index, the robustness and the degeneracy flag.  For the
export workload it stores the sha256 of ``magicscope polytope --format json``.
The result replaces ``perfbench/reference.json``.  Takes about 20 minutes on
a 2-core machine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run


def main():
    reference = {"commit": run.git_commit()}
    for name in run.SWEEPS:
        spec, measurements = run.sweep_inputs(name)
        vset = run.v_representation(measurements)
        records = run.sweep(spec, run.grid_points(run.SWEEPS[name]["axes"]), measurements, vset)
        bad = [r for r in records if r.solver_status != "optimal"]
        if bad:
            sys.exit(f"{name}: {len(bad)} grid points not optimal, e.g. {bad[0]}")
        reference[name] = {
            "rom": [r.rom for r in records],
            "degenerate": [bool(r.degenerate_flag) for r in records],
        }
        print(f"{name}: {len(records)} points", file=sys.stderr)

    # a separate process, so the export's peak memory is not added to this one
    run.OUT.mkdir(exist_ok=True)
    out = run.OUT / "reference-export.json"
    code = subprocess.call(
        [sys.executable, "-m", "magicscope.cli", *run.polytope_argv(out)],
        env={**os.environ, "PYTHONPATH": str(run.ROOT / "src")},
    )
    if code != 0:
        sys.exit(f"export exited with {code}")
    reference[run.EXPORT["name"]] = {"sha256": run.file_sha256(out)}
    out.unlink()

    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
