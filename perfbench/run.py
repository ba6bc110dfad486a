#!/usr/bin/env python3
"""Serve-path benchmark runner.

Builds the simulator library and the benchmark from the source checkout
(CMake, Release), then runs one workload in its own process:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); traced runs
write their span files to the spans/ directory beside it. The benchmark's
output is passed through unchanged; its last line is the JSON result.
Exit status is the benchmark's: 0 when the correctness gate passed.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fleet-mixed", "chat-cache", "disagg-burst")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(source_dir, build_dir):
    configure = ["cmake", "-S", source_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "serve_bench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    source_dir = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "serve", "fleet.hpp")):
        fail("run from the repository root: src/serve/fleet.hpp not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    build(source_dir, build_dir)

    spans_dir = os.path.join(build_dir, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    command = [os.path.join(build_dir, "serve_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", spans_dir]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
