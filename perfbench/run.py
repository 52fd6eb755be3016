#!/usr/bin/env python3
"""Serving benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the library
from src/) into $CARGO_TARGET_DIR or .bench_build/, then runs the benchmark
binary with a pinned thread count. Build output goes to stderr; the binary's
stdout is passed through, and its last line is the JSON result. Exits
non-zero without a result when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

# Kernel threads for every run. Chosen by measured run-to-run spread on a
# 4-vCPU host: one thread was the steadiest (see perfbench/README.md).
PINNED_THREADS = 1

HERE = os.path.dirname(os.path.abspath(__file__))


def git_sha():
    """The checkout's commit, or "unknown" outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, env=env, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(build_dir):
    """Configures and builds the benchmark binary; returns its path or None."""
    binary = os.path.join(build_dir, "kf_perfbench")
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("Makefile", "build.ninja"))
    if not configured:
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the build tree.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps.append(["cmake", "--build", build_dir, "--target", "kf_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=840, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return None
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1

    threads = min(PINNED_THREADS, os.cpu_count() or 1)
    env = dict(os.environ, KF_NUM_THREADS=str(threads))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()]
    if args.trace:
        cmd += ["--trace-dir", build_dir]
    try:
        done = subprocess.run(cmd, env=env, timeout=175, check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: kf_perfbench timed out", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
