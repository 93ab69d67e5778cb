#!/usr/bin/env python3
"""Build and run the serving benchmark (perfbench/src) from a source checkout.

Usage (from the root of the checkout):
  python3 perfbench/run.py --workload shard_stream --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest        # build and run the helper tests

The first call configures and builds `swbench` (and the swlogic library it
links) with CMake into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls only rebuild what changed. Build output
goes to stderr, so the benchmark's last stdout line stays its JSON result.
Run outputs (detail JSON, span files, layer tables) go to perfbench/out/.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    return Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build") / "perfbench"


def build(target: str, tests: bool) -> Path:
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release",
                 f"-DPERFBENCH_TESTS={'ON' if tests else 'OFF'}"]
    if not (out / "CMakeCache.txt").exists() or tests:
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / target


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's helper tests")
    args = parser.parse_args()

    try:
        if args.selftest:
            binary = build("perfbench_tests", tests=True)
            return subprocess.run([str(binary)], timeout=RUN_TIMEOUT_S).returncode
        if not args.workload:
            parser.error("--workload is required")
        binary = build("swbench", tests=False)
    except (subprocess.CalledProcessError, FileNotFoundError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out", str(BENCH_DIR / "out")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
