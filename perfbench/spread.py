#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against their bounds.

    python3 perfbench/spread.py [--workload lifting ...]

Runs the benchmark ten times per workload, with seeds 1 to 10, and prints for
each end-to-end metric the median and the distance between the first and
third quartile as a share of the median.  A spread should stay below a third
of the metric's bound in BENCHMARK.json; the exit code is 1 if one does not.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    steady = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        values: dict = {}
        for seed in range(1, RUNS + 1):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                steady = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for entry in bench["end_to_end"]:
            vals = values[entry["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread < entry["bound"] / 3
            steady = steady and ok
            print(
                f"{workload:10s} {entry['name']:12s} median {med:10.4f} {entry['unit']:3s} "
                f"spread {spread:6.3f}  bound {entry['bound']:.2f}  {'ok' if ok else 'WIDE'}  "
                f"values {[round(v, 4) for v in vals]}"
            )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
