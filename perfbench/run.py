#!/usr/bin/env python3
"""Build the PTSBE benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload prep-heavy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The library and the benchmark are built with CMake (Release) into
`$CARGO_TARGET_DIR/perfbench`, or `.bench_build/perfbench` when that variable
is unset; the first run configures and builds, later runs rebuild
incrementally. The benchmark then runs with OMP_NUM_THREADS=1 so the
executor's workers are the only parallelism, and its standard output is
passed through: the last line is the JSON result. The exit code is the
benchmark's (nonzero when an output check failed), or nonzero without a
result when the sources are missing or the build fails.

`--self-test` builds everything and runs the benchmark's own tests: the span
recorder, self-time and percentile rules, and the small-size mode of every
workload at two seeds.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out, targets):
    """Configure once, then build `targets`; build output goes to stderr."""
    for required in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, required)):
            fail("no PTSBE sources next to the benchmark (missing %s)" % required, 2)
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 3)
    command = ["cmake", "--build", out, "-j", jobs, "--target"] + targets
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed", 3)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    out = build_dir()
    env = dict(os.environ, OMP_NUM_THREADS="1")
    if args.self_test:
        build(out, ["ptsbe_perfbench", "perfbench_selftest"])
        test = ["ctest", "--test-dir", out, "--output-on-failure"]
        sys.exit(subprocess.run(test, env=env).returncode)

    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    build(out, ["ptsbe_perfbench"])
    sys.stdout.flush()
    command = [
        os.path.join(out, "ptsbe_perfbench"),
        "--workload", args.workload,
        "--seed", args.seed,
        "--seconds", args.seconds,
        "--trace", args.trace,
        "--workdir", os.path.join(out, "work"),
    ]
    try:
        result = subprocess.run(command, env=env, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S, 4)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
