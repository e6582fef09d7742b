#!/usr/bin/env python3
"""Build the perfbench binary from this checkout's sources, then run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload suite-sweep --seed 1 \
        --seconds 40 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); it is configured once and brought up to date
on every call.  Build output goes to standard error, so the binary's
last line of standard output stays its JSON result.  Exits non-zero
without a result when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        exe = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    # A relative --out-dir keeps Unix socket paths short.
    out_dir = os.path.relpath(build_dir, os.getcwd())
    return subprocess.run([exe] + sys.argv[1:] + ["--out-dir", out_dir]).returncode


if __name__ == "__main__":
    sys.exit(main())
