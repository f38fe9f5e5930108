#!/usr/bin/env python3
"""Build and run the fo4pipe benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fig5_sweep --seed 1 --trace 0

The first run configures and builds perfbench/ (the fo4pipe library plus
the benchmark binary, Release) under $CARGO_TARGET_DIR or .bench_build;
later runs rebuild only what changed.  Build output goes to standard
error.  The benchmark's report goes to standard output and its last line
is the JSON result.  The exit status is the benchmark's: non-zero when
any output check failed, the build failed, or the repository sources are
missing.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

# A run must end within 180 s; leave room for process start and exit.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(package, build_dir):
    """Configure once, then build the benchmark binary; returns its path."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(package), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", jobs],
        stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    package = Path(__file__).resolve().parent
    root = package.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        fail("the fo4pipe sources (src/) are not next to perfbench/")

    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    try:
        binary = build(package, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--scratch", str(build_dir / "scratch")]
    started = time.monotonic()
    try:
        proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S, 3)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        ok = set(result) == {"correct", "attempted", "failed", "metrics"}
    except ValueError:
        ok = False
    if proc.returncode == 0 and not ok:
        fail("benchmark printed no result line", 4)
    sys.stdout.write(proc.stdout)
    print("perfbench: %s ran %.1f s" % (args.workload,
                                        time.monotonic() - started),
          file=sys.stderr)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
