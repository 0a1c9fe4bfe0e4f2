#!/usr/bin/env python3
"""Build the CFS benchmark driver from source and run one workload.

Usage (from the repository root):
  python3 cfsbench/run.py --workload meta_mix --seed 1 --seconds 10 --trace 0

The driver (cfsbench/*.cc) is compiled together with the repository's src/
tree into $CARGO_TARGET_DIR (default: .bench_build), configured once and
rebuilt incrementally on later runs. Build output goes to stderr; the
driver's stdout is passed through, so its last line is the JSON result.
The exit code is the driver's (non-zero on any failed output check), or 1
when the build fails or the run exceeds its time limit.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(out):
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "cfsbench", "-j", jobs],
                   stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "cfsbench")


def main():
    try:
        binary = build(build_dir())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        print(f"cfsbench: build failed: {e}", file=sys.stderr)
        return 1
    sys.stdout.flush()
    proc = subprocess.Popen([binary] + sys.argv[1:])
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"cfsbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
