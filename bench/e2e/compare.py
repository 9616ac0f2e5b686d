#!/usr/bin/env python3
"""Compare two davf_e2e result files against BENCHMARK.json's bounds.

Usage:
  python3 bench/e2e/compare.py BASE.json NEW.json [--benchmark FILE]

BASE.json and NEW.json are davf-bench-e2e/v1 results (davf_e2e --out).
Prints one row per (metric, workload) with both medians and quartiles,
the change, and a verdict:

  worse       the median moved the bad way by more than the bound
  better      the median moved the good way by more than the bound
  same        the median stayed within the bound
  unresolved  a side's interquartile spread exceeds the bound, unless
              the two interquartile ranges are apart and the median
              moved by more than the bound, either way
  info        a metric BENCHMARK.json does not bound

failed_frac has an absolute bound of zero: any increase is worse.
Exits 1 if any row is worse, 2 if a file cannot be compared.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        result = json.load(f)
    if result.get("schema") != "davf-bench-e2e/v1":
        sys.exit("compare.py: %s is not a davf-bench-e2e/v1 result" % path)
    return result


def verdict(base, new, better, bound):
    """The verdict for one metric, and its change as a signed fraction."""
    change = (new["median"] - base["median"]) / base["median"]
    worse_by = change if better == "lower" else -change

    def spread(m):
        return (m["q3"] - m["q1"]) / m["median"]

    if better == "lower":
        apart_worse = new["q1"] > base["q3"]
        apart_better = new["q3"] < base["q1"]
    else:
        apart_worse = new["q3"] < base["q1"]
        apart_better = new["q1"] > base["q3"]
    if max(spread(base), spread(new)) > bound:
        if apart_worse and worse_by > bound:
            return "worse", change
        if apart_better and -worse_by > bound:
            return "better", change
        return "unresolved", change
    if worse_by > bound:
        return "worse", change
    if worse_by < -bound:
        return "better", change
    return "same", change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default="BENCHMARK.json")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        bounds = {m["name"]: m for m in json.load(f)["end_to_end"]}
    base = load(args.base).get("workloads", {})
    new = load(args.new).get("workloads", {})

    header = "%-18s %-14s %12s %23s %12s %23s %8s  %s" % (
        "metric", "workload", "base", "base q1..q3", "new",
        "new q1..q3", "change", "verdict")
    print(header)
    counts = {}
    for workload in base:
        if workload not in new:
            print("%s: missing from %s" % (workload, args.new))
            continue
        b, n = base[workload], new[workload]
        if not (b["correct"] and n["correct"]):
            sys.stderr.write("compare.py: %s is not correct in both files\n"
                             % workload)
            sys.exit(2)
        for name, bm in b["metrics"].items():
            nm = n["metrics"].get(name)
            if nm is None:
                print("%-18s %-14s missing from %s" % (name, workload,
                                                       args.new))
                continue
            if name == "failed_frac":
                change = nm["median"] - bm["median"]
                row = "worse" if change > 0 else "same"
            elif name in bounds and bm["median"] != 0:
                spec = bounds[name]
                row, change = verdict(bm, nm, spec["better"], spec["bound"])
            else:
                change = (nm["median"] - bm["median"]) / bm["median"] \
                    if bm["median"] else 0.0
                row = "info"
            counts[row] = counts.get(row, 0) + 1
            print("%-18s %-14s %12.6g %11.5g..%-11.5g %12.6g %11.5g..%-11.5g "
                  "%+7.1f%%  %s" % (name, workload, bm["median"], bm["q1"],
                                    bm["q3"], nm["median"], nm["q1"],
                                    nm["q3"], 100 * change, row))
    print("rows: " + ", ".join("%d %s" % (counts[k], k)
                               for k in sorted(counts)))
    sys.exit(1 if counts.get("worse") else 0)


if __name__ == "__main__":
    main()
