#!/usr/bin/env python3
"""Builds and runs the offline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Builds `perfbench/` in release mode (into $CARGO_TARGET_DIR, default
`.bench_build` at the root of the checkout), collects the host facts results are recorded beside,
and runs the benchmark binary with them. The binary's last line of output
is the result JSON; the exit code is the binary's.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def git_rev():
    """The checkout's commit, read from .git without running git, which
    would find an enclosing repository when the checkout is not one."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def clocksource():
    path = "/sys/devices/system/clocksource/clocksource0/current_clocksource"
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return "unknown"


def rustc_version():
    try:
        out = subprocess.run(["rustc", "-V"], capture_output=True, text=True, timeout=60)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["sweep", "capacity", "compare"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 2

    binary = os.path.join(target, "release", "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--host", f"rustc={rustc_version()}",
           "--host", f"git_rev={git_rev()}",
           "--host", f"clocksource={clocksource()}"]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
