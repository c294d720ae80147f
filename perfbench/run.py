#!/usr/bin/env python3
"""Builds and runs the starshare benchmark.

One workload, as a benchmark harness calls it (from the repository root):

    python3 perfbench/run.py --workload paper-tests --seed 1 --seconds 10 --trace 0

The last line of stdout is the result object. Every workload in turn,
printing every metric with its unit (exit status 1 on any wrong answer):

    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]

The tiny-scale self-test:

    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR, or `.bench_build` at the repository
root when that is unset.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MANIFEST = HERE / "Cargo.toml"
WORKLOADS = ["paper-tests", "adhoc-wide", "dashboard-open", "append-stream"]


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def cargo(*args):
    """Runs a cargo command on the benchmark package; output goes to stderr."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", *args, "--release", "--offline", "--quiet", "--manifest-path", str(MANIFEST)]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def build():
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        sys.exit(f"perfbench: no starshare sources under {ROOT}; nothing to benchmark")
    if cargo("build") != 0:
        sys.exit("perfbench: build failed")
    return target_dir() / "release" / "perfbench"


def option(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def run_all(binary, args):
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", "10")
    trace = option(args, "--trace", "0")
    status = 0
    for workload in WORKLOADS:
        cmd = [str(binary), "--workload", workload, "--seed", seed,
               "--seconds", seconds, "--trace", trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print(f"== {workload} (exit {proc.returncode})")
        for line in lines[:-1]:
            parts = line.split()
            if len(parts) == 4 and parts[0] in ("metric", "layer"):
                kind, name, value, unit = parts
                print(f"  {kind:6s} {name:26s} {value:>24s} {unit}")
            elif parts and parts[0] == "check":
                print(f"  {line}")
        try:
            result = json.loads(lines[-1])
            print(f"  correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            ok = result["correct"] and proc.returncode == 0
        except (IndexError, ValueError, KeyError):
            ok = False
        if not ok:
            status = 1
    return status


def main():
    args = sys.argv[1:]
    if "--self-test" in args:
        return cargo("test")
    binary = build()
    if "--all" in args:
        return run_all(binary, args)
    return subprocess.run([str(binary), *args]).returncode


if __name__ == "__main__":
    sys.exit(main())
