#!/usr/bin/env python3
"""Builds perf_suite from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <t> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form prints perf_suite's output; its last line is the result
object {"correct", "attempted", "failed", "metrics"}. --trace 1 switches
from the end-to-end metrics to the per-layer metrics of a traced run. The
metric names must match BENCHMARK.json exactly.

--smoke runs every workload at tiny sizes with tracing on, keeping every
correctness check and the trace validation, in well under a minute.

The build goes to .bench_build/perfbench and run files (server socket,
model artifact, traces, result JSON) to .perfbench, both at the checkout
root. Exits nonzero when the build, a check or the metric list fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perf_suite")
WORK = os.path.join(ROOT, ".perfbench")
WORKLOADS = ["model_build", "infer_large", "opi_sweep", "serve_mixed"]
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def build():
    """Configures until a build system exists, then lets the build tool
    skip up-to-date targets."""
    if not any(os.path.exists(os.path.join(BUILD, f)) for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def expected_metrics(traced):
    """(name, unit) pairs BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_suite(args, quiet=False):
    """Runs perf_suite; returns (exit code, stdout lines). With `quiet`,
    its progress on stderr is shown only when it fails."""
    completed = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE if quiet else None,
                               text=True, timeout=RUN_TIMEOUT_S)
    if quiet and completed.returncode != 0:
        sys.stderr.write(completed.stderr)
    return completed.returncode, completed.stdout.splitlines()


def run_workload(workload, seed, seconds, traced):
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--json", os.path.join(WORK, workload + ".json")]
    if traced:
        args += ["--trace", os.path.join(WORK, workload + ".trace.json")]
    code, lines = run_suite(args)
    for line in lines:
        print(line)
    if code != 0 or not lines:
        return code or 1
    result = json.loads(lines[-1])
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(traced)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        print(f"run.py: metrics differ from BENCHMARK.json: missing {missing}, "
              f"extra {extra}, wrong unit {wrong}", file=sys.stderr)
        return 1
    return 0


def run_smoke():
    failures = 0
    for workload in WORKLOADS:
        code, lines = run_suite(["--workload", workload, "--seed", "1", "--seconds", "2",
                                 "--smoke", "--trace",
                                 os.path.join(WORK, "smoke-" + workload + ".trace.json")],
                                quiet=True)
        verdict = "ok" if code == 0 else f"FAILED (exit {code})"
        print(f"smoke {workload}: {verdict}")
        failures += code != 0
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    try:
        if args.smoke:
            return run_smoke()
        return run_workload(args.workload, args.seed, args.seconds, args.trace == 1)
    except subprocess.TimeoutExpired:
        print(f"run.py: perf_suite exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
