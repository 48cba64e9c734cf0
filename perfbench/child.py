"""One measured process of the benchmark; run.py starts it, never a user.

    child.py pass <workload> <seed> [--trace]
        Runs one pass of an in-process workload (suite, lifting, construct) in
        the order the seed gives, and prints a JSON report as its last line.
    child.py cmd --trace-out <path> -- <ssw arguments>
        Runs one ssw CLI command under the tracer, as the ``ssw`` console script
        would, and writes the trace to <path>.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_ssw() -> None:
    """Import ssw and insist that it is the copy in this checkout."""
    import ssw

    where = os.path.dirname(os.path.abspath(ssw.__file__))
    if where != os.path.join(SRC, "ssw"):
        raise SystemExit(f"ssw was imported from {where}, not from {SRC}")


def seeded_order(keys: list, seed: int) -> list:
    keys = list(keys)
    random.Random(seed).shuffle(keys)
    return keys


def run_pass(workload: str, seed: int, trace: bool) -> dict:
    import_ssw()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    # Imported after the tracer, so that its by-name imports get the wrappers.
    from jobs import WORKLOADS

    t0 = time.perf_counter()
    jobs = dict(WORKLOADS[workload]())
    order = seeded_order(jobs, seed)
    results = {}
    for key in order:
        start = time.perf_counter()
        try:
            value = jobs[key]()
        except Exception as exc:  # a raising job is a failed op, not a crash
            value = {"error": f"{type(exc).__name__}: {exc}"}
        results[key] = {"result": value, "seconds": time.perf_counter() - start}
    wall = time.perf_counter() - t0
    report = {"workload": workload, "seed": seed, "order": order, "jobs": results, "wall_s": wall}
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.report()
    return report


def run_cmd(argv: list, trace_out: str) -> int:
    import_ssw()
    from tracer import Tracer

    tracer = Tracer().install()
    import ssw.cli

    try:
        code = ssw.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump(tracer.report(), fh)
    return code


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("pass")
    p.add_argument("workload", choices=("suite", "lifting", "construct"))
    p.add_argument("seed", type=int)
    p.add_argument("--trace", action="store_true")
    p = sub.add_parser("cmd")
    p.add_argument("--trace-out", required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    if args.mode == "pass":
        report = run_pass(args.workload, args.seed, args.trace)
        sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
        return 0
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return run_cmd(argv, args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
