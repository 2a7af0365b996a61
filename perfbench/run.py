#!/usr/bin/env python3
"""Builds the program from source and runs one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   # every workload in turn

Run from the root of a checkout. Builds `gdp` (the serving binary) and
the `perfbench` binary with cargo into $CARGO_TARGET_DIR (default
`.bench_build`), keeps its working files under `.bench_work`, and relays
the binary's output: a table of metrics, a run record, and as the last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["publish_chain", "serve_hot", "serve_cold_batch"]


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", "Cargo.toml", "-p", "gdp-cli", "--bin", "gdp"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        # Build output goes to stderr so stdout carries only results.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def run_one(target, workload, args):
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--gdp", os.path.join(target, "release", "gdp"),
           "--work", os.path.join(".bench_work", workload)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("perfbench: %s failed with exit code %d" % (workload, proc.returncode))
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)

    if args.workload != "all":
        for line in run_one(target, args.workload, args):
            print(line, flush=True)
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines = run_one(target, workload, args)
        for line in lines[:-1]:
            print(line, flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)


if __name__ == "__main__":
    main()
