#!/usr/bin/env python3
"""Builds the program and the benchmark from source, then runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Cargo builds into $CARGO_TARGET_DIR
(default `.bench_build`); build output goes to stderr, and the last line
on stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the workload fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo_build(args, target_dir):
    """Builds one cargo target in release mode, offline; True on success."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode == 0


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        print("perfbench: no Cargo.toml beside perfbench/; run from a full checkout",
              file=sys.stderr)
        return 2
    target_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    if not cargo_build(["--locked", "-p", "amnesiac-cli", "--bin", "amnesiac"], target_dir):
        return 3
    if not cargo_build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], target_dir):
        return 3
    bench = os.path.join(target_dir, "release", "amnesiac-perfbench")
    work_dir = os.path.join(HERE, ".work")
    cmd = [bench] + sys.argv[1:] + [
        "--amnesiac", os.path.join(target_dir, "release", "amnesiac"),
        "--work-dir", work_dir,
    ]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
