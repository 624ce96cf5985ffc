#!/usr/bin/env python3
"""Build the ledger from source and run one workload.

    python3 ledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (or anywhere: paths are resolved from this
file). Configures and builds ledger/ into .bench_build/ledger with CMake,
runs the ledger binary, forwards its stdout (the last line is the JSON
result) and exit code, and appends the run to
.bench_build/ledger/results.jsonl for ledger/compare.py. A traced run
writes its spans to .bench_build/ledger/spans/.

Build output goes to stderr so that stdout carries only the benchmark's
own lines.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "ledger")
# A run measures --seconds plus set-up and checks; never let one hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build():
    """Configures once, then lets CMake rebuild whatever changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ledger",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.stderr.write("ledger: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not build():
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.stderr.write("ledger: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()

    lines = done.stdout.strip().splitlines()
    fingerprint = next((l.split(" ", 2)[2] for l in lines
                        if l.startswith("# fingerprint ")), None)
    if lines and lines[-1].startswith("{"):
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "fingerprint": json.loads(fingerprint) if fingerprint
                  else None,
                  "result": json.loads(lines[-1])}
        with open(os.path.join(BUILD, "results.jsonl"), "a") as out:
            out.write(json.dumps(record) + "\n")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
