#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload sim-suite|fleet-cold \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `wasmperf-fleet` (the system under
test) and the `perfbench` measurement binary from source, in release
mode, into $CARGO_TARGET_DIR (default `.bench_build`), then runs one
measurement. The last line of stdout is the result as one JSON object.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        sys.stderr.write("run.py: run from the repository root (no Cargo.toml/crates here)\n")
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "wasmperf-fleet"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        # Build output goes to stderr so stdout stays the result stream.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("run.py: build failed: %s\n" % " ".join(cmd))
            return 1
    bench = os.path.join(target, "release", "perfbench")
    cmd = [
        bench, *sys.argv[1:],
        "--fleet-bin", os.path.join(target, "release", "wasmperf-fleet"),
        "--work-dir", os.path.join(target, "perfbench-work"),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
