#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig10_portal --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test      # build and run the harness unit tests

The build goes to .bench_build/perfbench (Release); journals, traces and the
build log go under .bench_build. The driver's report precedes its result,
and the last line of stdout is the JSON result object.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def run_logged(cmd, log):
    """Runs a build step with its output in the log; False when it fails."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode == 0


def build(targets):
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD_ROOT / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    ok = run_logged(["cmake", "-S", str(SOURCE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"], log)
    ok = ok and run_logged(["cmake", "--build", str(BUILD), "-j", jobs, "--target"] + targets,
                           log)
    if not ok:
        sys.stderr.write("perfbench: build failed; tail of %s:\n" % log)
        sys.stderr.write("".join(open(log).readlines()[-30:]))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true", help="run the harness unit tests")
    args = parser.parse_args()

    if args.test:
        if not build(["perfbench_test"]):
            return 1
        return subprocess.run([str(BUILD / "perfbench_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build(["perfbench_driver"]):
        return 1
    cmd = [str(BUILD / "perfbench_driver"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(BUILD_ROOT / "run")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
