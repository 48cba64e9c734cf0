#!/usr/bin/env python3
"""Benchmark harness for ssw, run from the root of a checkout.

    python3 perfbench/run.py --workload lifting --seed 1 --seconds 30 --trace 0

It drives ssw only through its public functions (in child processes, see
child.py and jobs.py) and through its CLI.  One client runs one process at a
time in a closed loop.  Every pass starts in a fresh interpreter; the seed
only permutes the order of a workload's jobs.  Each job's output is checked
against perfbench/expected.json.  With ``--trace 0`` the run measures the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer counts and self times, and the tracing
overhead.  The gated times are scaled by the host's speed, as timed by
reference.py right after each set-up sample.  Human-readable lines come first; the last
line of standard output is one JSON object.  A result file with an
environment stamp is written under .perfbench/ in the checkout.
``--workload all`` runs every workload in turn.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"
sys.path.insert(0, str(HERE))

from tracer import COUNT_NAMES, TIME_NAMES  # noqa: E402

WORKLOADS = ("suite", "lifting", "construct", "cli")

# The README's CLI commands at their default bounds, except `suite` and
# `check-certificate`.
CLI_COMMANDS = (
    "build q",
    "gray --flat d1 d1",
    "thick-join out d1 d0",
    "cone inn left d1",
    "slice d2_sharp 2 --cap 3",
    "hom d2_sharp 0 2 --cap 2",
    "classify-edges d2_sharp 2 --flavor cartesian --bound 4",
    "check-fibration --kind outer-cartesian d2_sharp 2 --bound 4",
    "check-bicat d2_flat --bound 2",
    "check-limit-cone d1_sharp 1",
)

# The body of the `ssw` console script, and the set-up a CLI call pays first.
CLI_CODE = "import sys\nfrom ssw.cli import main\nsys.exit(main())\n"
SETUP_CODE = "import ssw\nfrom ssw.catalog import catalog\ncatalog(check_goldens=False)\n"
SETUP_SAMPLES = 16  # at least this many set-up samples per run, after one warm-up
SETUP_PER_PASS = 2  # taken before each pass and after the last, so they spread over the run
# The gated times are scaled to a host of fixed speed: measured seconds times
# sqrt(REF_S / ref_s), where ref_s is the run's median time of reference.py,
# which runs right after each set-up sample.  When a shared host's speed
# drifted, ssw's times moved about half as much (as a ratio) as the
# reference's, hence the square root; README.md has the measurements.  REF_S
# is about what reference.py takes on a 2-core Intel Xeon VM with Python 3.11.
REF_S = 0.075
SUITE_TIMED_CRITERIA = (3, 4, 5, 7, 9, 10)  # the criteria that take 1 s or more
RUN_LIMIT_S = 170  # each workload of a run must end within 180 s

RATIOS = {
    "fibration.find_lift.found_per_call": ("fibration.find_lift.found", "fibration.find_lift.calls"),
    "core.enumerate_maps.maps_per_candidate": ("core.enumerate_maps.maps", "core.enumerate_maps.candidates"),
}


class RunTimeout(Exception):
    pass


class PassFailed(Exception):
    """A pass process crashed; a job that raises is a failed op instead."""


def _alarm(signum, frame):
    raise RunTimeout


class Harness:
    def __init__(self, deadline: float):
        self.python = sys.executable
        self.deadline = deadline
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.env = env

    def child(self, argv: list) -> dict:
        """Run one child to completion: its exit code, standard output, wall
        time seen from here, and peak RSS."""
        remaining = int(self.deadline - time.monotonic())
        if remaining <= 0:
            raise RunTimeout
        RESULTS.mkdir(exist_ok=True)
        with open(RESULTS / "child.stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT)
            signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(remaining)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except RunTimeout:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
                proc.stdout.close()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        return {
            "code": proc.returncode,
            "stdout": out,
            "stderr": stderr,
            "seconds": seconds,
            "rss_mb": usage.ru_maxrss / 1024.0,
        }

    def setup_sample(self) -> float:
        res = self.child([self.python, "-c", SETUP_CODE])
        if res["code"] != 0:
            raise SystemExit(f"set-up failed:\n{res['stderr']}")
        return res["seconds"]

    def reference_sample(self) -> float:
        res = self.child([self.python, str(HERE / "reference.py")])
        if res["code"] != 0:
            raise SystemExit(f"reference failed:\n{res['stderr']}")
        return float(res["stdout"])

    def gauges(self, n: int) -> tuple[list, list]:
        """n set-up samples, each followed by a reference sample."""
        setup, ref = [], []
        for _ in range(n):
            setup.append(self.setup_sample())
            ref.append(self.reference_sample())
        return setup, ref

    def in_process_pass(self, workload: str, seed: int, trace: bool) -> dict:
        argv = [self.python, str(HERE / "child.py"), "pass", workload, str(seed)]
        res = self.child(argv + (["--trace"] if trace else []))
        if res["code"] != 0:
            raise PassFailed(f"{workload} pass exited with {res['code']}:\n{res['stderr']}")
        report = json.loads(res["stdout"].decode().splitlines()[-1])
        jobs = {key: dict(job) for key, job in report["jobs"].items()}
        return {
            "wall_s": report["wall_s"],
            "rss_mb": res["rss_mb"],
            "order": report["order"],
            "jobs": jobs,
            "trace": report.get("trace"),
        }

    def cli_pass(self, seed: int, trace: bool) -> dict:
        order = list(CLI_COMMANDS)
        random.Random(seed).shuffle(order)
        jobs, rss, traces = {}, [], []
        trace_out = RESULTS / "cmd.trace.json"
        for command in order:
            if trace:
                argv = [self.python, str(HERE / "child.py"), "cmd", "--trace-out", str(trace_out), "--"]
            else:
                argv = [self.python, "-c", CLI_CODE]
            res = self.child(argv + command.split())
            digest = hashlib.sha256(res["stdout"]).hexdigest()
            jobs[command] = {"result": {"exit": res["code"], "stdout_sha256": digest}, "seconds": res["seconds"]}
            rss.append(res["rss_mb"])
            if trace:
                if not trace_out.exists():
                    raise PassFailed(f"traced command {command!r} left no trace:\n{res['stderr']}")
                traces.append(json.loads(trace_out.read_text()))
                trace_out.unlink()
        total = None
        if trace:
            keys = sorted({key for t in traces for key in t})
            total = {key: sum(t.get(key, 0) for t in traces) for key in keys}
        wall = sum(job["seconds"] for job in jobs.values())
        return {"wall_s": wall, "rss_mb": max(rss), "order": order, "jobs": jobs, "trace": total}

    def one_pass(self, workload: str, seed: int, trace: bool) -> dict:
        if workload == "cli":
            return self.cli_pass(seed, trace)
        return self.in_process_pass(workload, seed, trace)


# -- checking ------------------------------------------------------------------


def check(workload: str, passes: list, expected: dict) -> tuple[int, int, list]:
    """Jobs attempted and failed over all passes, with the failures."""
    want = expected[workload]
    attempted, failed, problems = 0, 0, []
    for p in passes:
        attempted += max(len(want), len(p["jobs"]))
        for key in sorted(set(want) | set(p["jobs"])):
            got = p["jobs"].get(key, {}).get("result")
            if got != want.get(key):
                failed += 1
                problems.append(f"{key}: expected {want.get(key)!r}, got {got!r}")
    return attempted, failed, problems


# -- statistics ----------------------------------------------------------------


def tail(samples: list) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def metric(value, unit: str, samples: int, note: str = "") -> dict:
    return {"value": value, "unit": unit, "samples": samples, "note": note}


def end_to_end(workload: str, passes: list, setup: list, ref: list, attempted: int, failed: int) -> dict:
    walls = [p["wall_s"] for p in passes]
    scale = math.sqrt(REF_S / statistics.median(ref))
    m = {
        "wall_s": metric(statistics.median(walls) * scale, "s", len(walls), "median pass, scaled to the reference host"),
        "setup_s": metric(
            statistics.median(setup) * scale, "s", len(setup),
            "median fresh interpreter: import ssw, build catalog; scaled to the reference host",
        ),
        "wall_raw_s": metric(statistics.median(walls), "s", len(walls), "median pass, as measured"),
        "setup_raw_s": metric(statistics.median(setup), "s", len(setup), "median set-up, as measured"),
        "ref_s": metric(statistics.median(ref), "s", len(ref), "median time of reference.py, one after each set-up"),
        "peak_rss_mb": metric(
            statistics.median(p["rss_mb"] for p in passes), "MB", len(passes), "median over passes of the pass process peak"
        ),
        "ops": metric(attempted, "count", len(passes), "jobs attempted"),
        "failed_ops": metric(failed, "count", len(passes), "jobs failed"),
    }
    if workload == "suite":
        for n in SUITE_TIMED_CRITERIA:
            times = [p["jobs"][f"criterion{n}"]["seconds"] for p in passes if f"criterion{n}" in p["jobs"]]
            if times:
                m[f"criterion{n}_s"] = metric(statistics.median(times), "s", len(times), "median criterion time")
    if workload == "cli":
        latencies = [job["seconds"] for p in passes for job in p["jobs"].values()]
        m["cmd_p50_s"] = metric(statistics.median(latencies), "s", len(latencies), "median command latency")
        t = tail(latencies)
        if t is None:
            m["cmd_tail_s"] = metric(None, "s", len(latencies), "needs at least 11 samples")
        else:
            m["cmd_tail_s"] = metric(t[1], "s", len(latencies), f"p{t[0]:.1f}, ten samples beyond it")
    return m


def per_layer(untraced: list, traced: list) -> tuple[dict, bool]:
    """Counts from the first traced pass, median self times, ratios and the
    overhead; the flag says whether every traced pass gave the same counts."""
    first = traced[0]["trace"]
    steady = all(p["trace"][k] == first[k] for p in traced for k in COUNT_NAMES)
    m = {name: metric(first[name], "count", len(traced), "first traced pass") for name in COUNT_NAMES}
    for name in TIME_NAMES:
        m[name] = metric(statistics.median(p["trace"][name] for p in traced), "s", len(traced), "median traced pass")
    for name, (num, den) in RATIOS.items():
        base = first[den]
        m[name] = metric(first[num] / base if base else 0.0, "ratio", len(traced), f"{first[num]} of {base}")
    overhead = statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in untraced)
    m["trace.overhead"] = metric(overhead, "ratio", len(traced), "median traced wall_s / median untraced wall_s")
    extra = sorted(k for k in first if k not in m and k not in TIME_NAMES)
    for name in extra:
        m[name] = metric(first[name], "count", len(traced), "not in BENCHMARK.json")
    return m, steady


# -- environment -----------------------------------------------------------------


def commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ssw").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stamp(seed: int, seconds: int) -> dict:
    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "run_seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "load": "one client, one process at a time, closed loop",
    }


# -- a run ---------------------------------------------------------------------------


def run_workload(h: Harness, workload: str, seed: int, seconds: int, trace: bool, expected: dict) -> dict:
    setup, ref, untraced, traced = [], [], [], []
    if not trace:
        h.gauges(1)  # warm-up, not counted
    start = time.monotonic()
    while True:
        if not trace:
            s, r = h.gauges(SETUP_PER_PASS)
            setup, ref = setup + s, ref + r
        untraced.append(h.one_pass(workload, seed, False))
        if trace:
            traced.append(h.one_pass(workload, seed, True))
        # Start another pass only if one more fits in the measuring time.
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(untraced) > seconds:
            break
    if not trace:
        s, r = h.gauges(max(SETUP_PER_PASS, SETUP_SAMPLES - len(setup)))
        setup, ref = setup + s, ref + r
    attempted, failed, problems = check(workload, untraced + traced, expected)
    result = {"workload": workload, "trace": int(trace), "stamp": stamp(seed, seconds)}
    correct = failed == 0
    if trace:
        metrics, steady = per_layer(untraced, traced)
        if not steady:
            problems.append("traced passes gave different counts")
            correct = False
    else:
        metrics = end_to_end(workload, untraced, setup, ref, attempted, failed)
    result.update(
        correct=correct,
        attempted=attempted,
        failed=failed,
        problems=problems,
        metrics=metrics,
        passes=[{k: v for k, v in p.items() if k != "trace"} for p in untraced + traced],
        setup_samples=setup,
        reference_samples=ref,
    )
    return result


def print_result(result: dict) -> None:
    stamp_ = result["stamp"]
    print(
        f"workload {result['workload']}  trace {result['trace']}  seed {stamp_['seed']}  "
        f"commit {stamp_['commit'] or 'n/a'}  nproc {stamp_['nproc']}  python {stamp_['python']}  "
        f"cpu {stamp_['cpu_model']}"
    )
    for name, m in result["metrics"].items():
        value = m["value"]
        shown = "n/a" if value is None else f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:48s} {shown:>14s} {m['unit']:6s} n={m['samples']:<4d} {m['note']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    print(f"  correct {result['correct']}  attempted {result['attempted']}  failed {result['failed']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ssw benchmark harness")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "ssw" / "__init__.py").is_file():
        sys.stderr.write(f"no ssw sources under {SRC}; run from the root of a checkout\n")
        return 2
    expected = json.loads(EXPECTED.read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    limit = RUN_LIMIT_S * len(workloads)
    h = Harness(time.monotonic() + limit)
    results = []
    try:
        for workload in workloads:
            results.append(run_workload(h, workload, args.seed, args.seconds, bool(args.trace), expected))
    except RunTimeout:
        sys.stderr.write(f"the run did not end within {limit} s\n")
        return 1
    except PassFailed as exc:
        sys.stderr.write(f"{exc}\n")
        return 1
    RESULTS.mkdir(exist_ok=True)
    for result in results:
        print_result(result)
        name = f"{result['workload']}-seed{args.seed}-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}.json"
        (RESULTS / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    names = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for result in results:
        prefix = f"{result['workload']}." if len(results) > 1 else ""
        for entry in names:
            m = result["metrics"][entry["name"]]
            metrics[prefix + entry["name"]] = {"value": m["value"], "unit": m["unit"]}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
