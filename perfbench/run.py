#!/usr/bin/env python3
"""Builds the perfbench harness from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
simulator and the harness into .bench_build/perfbench (CMake, RelWithDebInfo);
later calls rebuild incrementally. The harness's output is passed through; its
last line is the result object. A copy of the result, with the provenance
line, is saved under .bench_build/results/ for perfbench/compare.py.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("taxonomy", "benign_overhead", "cloud_campaign", "sweep_resume")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"  # The benchmark host is shared; keep the build small.


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator)
        steps.append(["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                  text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", os.path.join(BUILD_ROOT, "work")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("harness exited with code %d" % done.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail("harness printed no result line")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result line: " + lines[-1])

    provenance = None
    for line in lines:
        if line.startswith("perfbench provenance "):
            provenance = json.loads(line[len("perfbench provenance "):])
    results_dir = os.path.join(BUILD_ROOT, "results")
    os.makedirs(results_dir, exist_ok=True)
    saved = os.path.join(results_dir, "%s-seed%d-trace%d.json"
                         % (args.workload, args.seed, args.trace))
    with open(saved, "w") as out:
        json.dump({"provenance": provenance, "result": result}, out, indent=1)

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print("saved: " + os.path.relpath(saved, ROOT))
    print(lines[-1])


if __name__ == "__main__":
    main()
