"""Run the benchmark over several seeds and summarise each metric.

Run from the repository root:

    python3 perfbench/repeat.py --seeds 1-10 --out perfbench/results/BENCH_label.json

Each run is a fresh process of ``perfbench/run.py``, one after another.  For
every workload and metric the summary gives the median, the quartiles as
``statistics.quantiles(values, n=4)`` returns them, and the spread: the
distance between the quartiles as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    machine = next(
        (json.loads(line.split(": ", 1)[1]) for line in proc.stderr.splitlines()
         if line.startswith("perfbench machine: ")),
        None,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), machine, elapsed


def summarise(values):
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, machine, elapsed = run_once(workload, seed, args.seconds, args.trace)
            runs.append({"seed": seed, "elapsed_s": elapsed, "machine": machine, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {elapsed:.1f}s correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            metrics[name] = {"unit": entry["unit"],
                             **summarise([r["metrics"][name]["value"] for r in runs])}
            print(f"  {name}: median {metrics[name]['median']:.6g} {entry['unit']}, "
                  f"spread {metrics[name]['spread']}", flush=True)
        report["workloads"][workload] = {
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics,
            "runs": runs,
        }
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
