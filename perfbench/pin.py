#!/usr/bin/env python3
"""Write perfbench/expected.json from one untraced pass of every workload.

    python3 perfbench/pin.py

Run it only on a commit whose outputs are known to be right; the benchmark
counts every later difference from these expectations as a failed job.
"""
from __future__ import annotations

import json
import sys
import time

from run import EXPECTED, WORKLOADS, Harness


def main() -> int:
    h = Harness(time.monotonic() + 600)
    expected = {}
    for workload in WORKLOADS:
        p = h.one_pass(workload, 0, False)
        results = {key: job["result"] for key, job in sorted(p["jobs"].items())}
        errors = [key for key, value in results.items() if isinstance(value, dict) and "error" in value]
        if not results or errors:
            sys.stderr.write(f"{workload}: jobs raised or the pass failed: {errors}\n")
            return 1
        expected[workload] = results
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
