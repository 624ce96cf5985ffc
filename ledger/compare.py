#!/usr/bin/env python3
"""Compare two sets of ledger results, e.g. a parent commit and a change.

    python3 ledger/compare.py PARENT CHANGE [--benchmark BENCHMARK.json]

PARENT and CHANGE are results.jsonl files written by ledger/run.py, or
directories holding one (a checkout root or its .bench_build/ledger).
Only untraced runs (--trace 0) are compared. For every workload and
end-to-end metric it prints each side's median and quartiles and a
verdict under the metric's bound from BENCHMARK.json:

  worse       the change's median is worse than the parent's by more
              than the bound;
  improved    the change's median is better by more than the parent's
              own spread (quartile distance over median) and the change
              wins at least 9 of 10 runs paired by seed;
  unresolved  either side's spread exceeds the bound and not every run
              of the change is better than every run of the parent;
  unchanged   everything else.

Exits 1 when any verdict is "worse" or a side has no runs of a workload.
Warns when the two sides ran on different hosts (fingerprint mismatch).
"""

import argparse
import json
import os
import statistics
import sys

HOST_FIELDS = ("nproc", "cpu", "avx2", "avx512f", "intra_op_threads")
BUILD_FIELDS = ("compiler", "build_type", "flags")


def load(path):
    """Untraced records of one result set: workload -> [(seed, result)]."""
    if os.path.isdir(path):
        for candidate in (os.path.join(path, "results.jsonl"),
                          os.path.join(path, ".bench_build", "ledger",
                                       "results.jsonl")):
            if os.path.exists(candidate):
                path = candidate
                break
    runs, fingerprints = {}, []
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("fingerprint"):
                fingerprints.append(rec["fingerprint"])
            if rec.get("trace"):
                continue
            runs.setdefault(rec["workload"], []).append(
                (rec["seed"], rec["result"]))
    return runs, fingerprints


def summary(values):
    """(median, q1, q3) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def spread(values):
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(old, new, better, bound, pairs):
    """Verdict for one metric. old/new: values; pairs: [(old, new)]."""
    sign = 1.0 if better == "lower" else -1.0
    old_med, new_med = summary(old)[0], summary(new)[0]
    # Positive = the change is worse, as a share of the parent's median.
    worse_by = sign * (new_med - old_med) / abs(old_med) if old_med else 0.0
    all_better = all(sign * (n - o) < 0 for n in new for o in old)
    if max(spread(old), spread(new)) > bound and not all_better:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    wins = sum(1 for o, n in pairs if sign * (n - o) < 0)
    if -worse_by > spread(old) and pairs and wins >= 0.9 * len(pairs):
        return "improved", worse_by
    return "unchanged", worse_by


def compare(parent, change, bench):
    """Rows of (workload, metric, parent summary, change summary, delta,
    bound, verdict) plus a list of problems."""
    rows, problems = [], []
    for wl in (w["name"] for w in bench["workloads"]):
        old_runs, new_runs = parent.get(wl, []), change.get(wl, [])
        if not old_runs or not new_runs:
            problems.append("%s: no untraced runs on %s" %
                            (wl, "parent" if not old_runs else "change"))
            continue
        new_by_seed = dict(new_runs)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            old = [r["metrics"][name]["value"] for _, r in old_runs]
            new = [r["metrics"][name]["value"] for _, r in new_runs]
            pairs = [(r["metrics"][name]["value"],
                      new_by_seed[s]["metrics"][name]["value"])
                     for s, r in old_runs if s in new_by_seed]
            v, worse_by = verdict(old, new, metric["better"],
                                  metric["bound"], pairs)
            rows.append((wl, name, summary(old), summary(new), worse_by,
                         metric["bound"], v))
        for side, runs in (("parent", old_runs), ("change", new_runs)):
            failed = sum(r["failed"] for _, r in runs)
            attempted = sum(r["attempted"] for _, r in runs)
            wrong = sum(1 for _, r in runs if not r["correct"])
            if failed or wrong:
                problems.append("%s %s: %d of %d requests failed, %d runs "
                                "incorrect" % (wl, side, failed, attempted,
                                               wrong))
    return rows, problems


def fingerprint_notes(old_fps, new_fps):
    notes = []
    for fields, label in ((HOST_FIELDS, "WARNING: different hosts"),
                          (BUILD_FIELDS, "note: different builds")):
        seen = {json.dumps({k: fp.get(k) for k in fields}, sort_keys=True)
                for fp in old_fps + new_fps}
        if len(seen) > 1:
            notes.append("%s: %s" % (label, " | ".join(sorted(seen))))
    return notes


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(here),
                                             "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as f:
        bench = json.load(f)
    parent, old_fps = load(args.parent)
    change, new_fps = load(args.change)
    for note in fingerprint_notes(old_fps, new_fps):
        print(note)
    rows, problems = compare(parent, change, bench)
    print("%-16s %-17s %28s %28s %8s %6s  %s" %
          ("workload", "metric", "parent median [q1, q3]",
           "change median [q1, q3]", "worse", "bound", "verdict"))
    for wl, name, old, new, worse_by, bound, v in rows:
        print("%-16s %-17s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] "
              "%+7.1f%% %5.0f%%  %s" % (wl, name, old[0], old[1], old[2],
                                       new[0], new[1], new[2],
                                       100 * worse_by, 100 * bound, v))
    for p in problems:
        print("problem:", p)
    bad = problems or any(r[6] == "worse" for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
