"""Self-test of the benchmark's correctness checks.

Run from the repository root:

    python3 perfbench/selftest.py

It runs the xxz12-window sweep with the true references and with reference
energies perturbed by one part in 10^6, and the polytope export against a
wrong digest.  The true references must give failed_ratio 0; each perturbed
one must give failed_ratio > 0.  Exits 1 if either expectation fails.
Takes about a minute.
"""

from __future__ import annotations

import json
import sys

import run

CASES = [
    ("xxz12-window", "true references", {}, False),
    ("xxz12-window", "reference energy x (1 + 1e-6)", {"energy_shift": 1e-6}, True),
    (run.EXPORT["name"], "wrong sha256", {"digest": "0" * 64}, True),
]


def main():
    ok = True
    for workload, label, perturbation, should_fail in CASES:
        result, _, _ = run.run(workload, seed=1, seconds=0, trace=False,
                               checks=run.Checks(**perturbation))
        failed_ratio = result["failed"] / result["attempted"]
        passed = (failed_ratio > 0) == should_fail
        ok &= passed
        print(json.dumps({"workload": workload, "case": label,
                          "failed_ratio": failed_ratio, "as_expected": passed}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
