#!/usr/bin/env python3
"""GeoTP benchmark entry point.

Builds the benchmark program (perfbench/geotp_perf.cc against the checkout's
src/) with CMake, runs one workload for a fixed wall-clock budget and
prints one JSON result object as the last line of standard output.

    python3 perfbench/run.py --workload ycsb --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. Build files go to .bench_build/ and,
with --trace 1, trace artifacts to .bench_build/perfbench-out/. Build logs
and diagnostics go to standard error.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("ycsb", "tpcc", "replicated", "hotspot")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "geotp_perf")

# A run must finish within 180 s; the measured program gets 170 s of it.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; returns the exit code."""
    # Keep the compiler's temporary files inside the checkout.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    # Own process group, so a timeout also stops the compilers it spawned.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                            stderr=sys.stderr, start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return -1


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ directory next to perfbench/: nothing to build")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if run_logged(configure, BUILD_TIMEOUT_S) != 0:
            fail("cmake configure failed")
    if run_logged(["cmake", "--build", BUILD_DIR, "-j", jobs],
                  BUILD_TIMEOUT_S) != 0:
        fail("build failed")
    if not os.path.isfile(BINARY):
        fail("build produced no benchmark binary")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: " + lines[-1][:200])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
