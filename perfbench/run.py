#!/usr/bin/env python3
"""Build and run the sqzserved end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds the daemon and the load generator
from source into $CARGO_TARGET_DIR/perfbench (default .bench_build), then
runs one benchmark; the last line on stdout is the JSON result.
"""
import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["simulate-cold", "simulate-repeat", "sweep-flat", "sweep-timeline"]
RUN_LIMIT_S = 175


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=out, stderr=out)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                    "--target", "sqzbench", "sqzserved", "perfbench_selftest"],
                   check=True, stdout=out, stderr=out)


def commit():
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "none (not a git checkout)"


def run_group(cmd):
    """Run cmd in its own process group; whatever it leaves behind (a daemon
    orphaned by a crash) is killed and waited for before returning."""
    child = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = child.wait(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        code = 1
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    child.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(child.pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)
    return code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that every response checker rejects a corrupted input")
    args = ap.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None
                               or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    build(build_dir)
    if args.self_test:
        return run_group([os.path.join(build_dir, "perfbench_selftest")])
    return run_group([
        os.path.join(build_dir, "sqzbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--server", os.path.join(build_dir, "sqzserved"),
        "--out", os.path.join(ROOT, ".perfbench_out"),
        "--commit", commit()])


if __name__ == "__main__":
    sys.exit(main())
