#!/usr/bin/env python3
"""Runs one workload of the fixrep product benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload hosp_file --seed 1 --seconds 10 --trace 0

Run from the repository root. On first use it configures and builds the
in-process runner (perfbench/CMakeLists.txt) under .bench_build/; then it
generates the seed's inputs once (cached under .bench_build/inputs/) and
runs the workload. Context and report lines go to stdout; the last line
is the JSON result. Build and generation output go to stderr.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD, "cmake")
BINARY = os.path.join(CMAKE_DIR, "fixrep_perfbench")
INPUTS = os.path.join(BUILD, "inputs")
WORK = os.path.join(BUILD, "work")
WORKLOADS = ["hosp_file", "hosp_stream_durable", "chase_resident",
             "serve_mixed"]
# Seeds whose generated inputs stay cached (each is ~140 MB): enough for
# a ten-seed steadiness pass to reuse them across workloads.
KEEP_SEEDS = 10
# Children are killed past these limits, so a run always ends in time:
# the first build may take up to BUILD_TIMEOUT_S, and generation plus the
# run share RUN_TIMEOUT_S.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def check_call(cmd, timeout):
    """Runs cmd with its output on stderr; fails the run if it fails."""
    try:
        code = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if code != 0:
        fail("failed (exit %d): %s" % (code, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fixrep sources at " + ROOT)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", CMAKE_DIR,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", CMAKE_DIR, "--target",
                "fixrep_perfbench", "-j", jobs], BUILD_TIMEOUT_S)


def inputs_dir(seed):
    """The seed's input directory; evicts the least recently used others."""
    path = os.path.join(INPUTS, "seed-%d" % seed)
    os.makedirs(path, exist_ok=True)
    os.utime(path)
    others = [os.path.join(INPUTS, d) for d in os.listdir(INPUTS)]
    others = sorted((p for p in others if p != path), key=os.path.getmtime)
    for stale in others[:max(0, len(others) - (KEEP_SEEDS - 1))]:
        shutil.rmtree(stale, ignore_errors=True)
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    os.makedirs(WORK, exist_ok=True)
    # The runner works in the repository root on relative paths, which
    # keeps the daemon's unix socket path under the 108-byte limit
    # wherever the checkout lives.
    data = os.path.relpath(inputs_dir(args.seed), ROOT)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--trace", str(args.trace), "--inputs", data]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    check_call([BINARY, "generate"] + common, RUN_TIMEOUT_S)
    cmd = [BINARY, "run"] + common + ["--seconds", str(args.seconds),
                                      "--work", os.path.relpath(WORK, ROOT)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
