#!/usr/bin/env python3
"""Builds the benchmark harness from this checkout's sources and runs it.

    python3 perfbench/run.py --workload grade_ram256 --seed 1 --seconds 20 --trace 0

Every argument is passed to the harness (see perfbench/README.md). The
build is a Release CMake build of perfbench/CMakeLists.txt in
$CARGO_TARGET_DIR (default .bench_build) under the checkout root; later runs
reuse it and rebuild only what changed. Build output goes to stderr, so the
harness's JSON result stays the last line of stdout. When the build fails
(for example because the library sources are missing), the script exits
non-zero without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", "3"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    os.chdir(ROOT)
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    sys.stdout.flush()
    return subprocess.run([os.path.join(build_dir, "perfbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
