#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload routed_rows --seed 1 --seconds 40 --trace 0

The benchmark is the Rust package in this directory (its own workspace,
depending on the library crates by path). It is built in release mode
into $CARGO_TARGET_DIR when that is set, else into perfbench/target, and
then run with the same arguments. The last line of standard output is
the JSON result; see perfbench/README.md for the metrics.

Exit codes: 0 on success, 1 when a correctness check failed or the
result is malformed, 2 when the build fails, 3 when the run times out.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 170
WORKLOADS = ("routed_rows", "fleet_count")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    return p.parse_args()


def build():
    """Builds the benchmark; returns the binary's path or None."""
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        print(f"error: cannot run cargo: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("error: benchmark build failed", file=sys.stderr)
        return None
    target = os.environ.get("CARGO_TARGET_DIR")
    target = Path(target) if target else HERE / "target"
    binary = target / "release" / "bix-perfbench"
    return binary if binary.is_file() else None


def main():
    args = parse_args()
    binary = build()
    if binary is None:
        return 2
    cmd = [
        str(binary),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        well_formed = set(result) == RESULT_KEYS
    except (json.JSONDecodeError, TypeError):
        well_formed = False
    if proc.returncode == 0 and not well_formed:
        print("error: the benchmark printed no well-formed result", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
