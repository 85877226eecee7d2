#!/usr/bin/env python3
"""Builds and runs the privmark benchmark driver.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Configures and builds perfbench/ (Release, privmark library included)
into .bench_build/perfbench on first use, then runs one workload and
prints the driver's result line last on stdout. The result must carry
exactly the metrics BENCHMARK.json declares for the trace mode
(end_to_end for --trace 0, per_layer for --trace 1). Build output and
diagnostics go to stderr. Exits non-zero without a result line when the
build, the run or that check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "privmark_perfbench")
WORKLOADS = ("protect", "joint-binning", "audit", "daemon")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # A failed configure leaves a cache but no build system behind.
    if not any(os.path.exists(os.path.join(BUILD_DIR, name))
               for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        step(configure)
    step(["cmake", "--build", BUILD_DIR, "--target", "privmark_perfbench",
          "-j", jobs])


def step(command):
    try:
        done = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("build step failed: %s" % error)
    if done.returncode != 0:
        fail("build step exited %d: %s" % (done.returncode, " ".join(command)))


def declared_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    expected = declared_metrics(args.trace)

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=RUN_TIMEOUT_S,
                              check=False, text=True)
    except (OSError, subprocess.TimeoutExpired) as error:
        fail("run failed: %s" % error)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("driver exited %d without a result" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("driver result is not JSON: %r" % lines[-1])
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != expected:
        fail("driver metrics %s do not match BENCHMARK.json %s"
             % (sorted(got.items()), sorted(expected.items())))
    print(lines[-1])


if __name__ == "__main__":
    main()
