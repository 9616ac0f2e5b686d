#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

Usage (from the repository root):
  python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds bench/e2e (and through it the repository's tools) in build-e2e,
runs davf_e2e, and prints as its last stdout line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, measured on the workload;
with --trace 1 they are its per_layer list, from the traced pass. Exits
non-zero, without that line, when the tree cannot be built or the
harness fails; exits 1 with "correct": false when an output fails its
check.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = "build-e2e"
HARNESS_TIMEOUT_S = 170

# BENCHMARK.json metrics a workload has only as another's alias: a sweep
# answers one query, so its query latency is the invocation's wall time.
# davf_e2e reports it once, as wall_s, so compare.py shows it once.
ALIASES = {"query_p50_ms": ("wall_s", 1e3, "ms")}


def die(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring davf_e2e and the tools up to date."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "bench/e2e", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "davf_e2e"])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            die("build step failed: " + " ".join(step), 1)


def kill_group(pgid):
    """SIGKILL whatever is left in the harness's process group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_harness(args, out_path, trace_path):
    """Run davf_e2e in its own process group, which holds every tool it
    starts; kill the group on timeout and after exit, so a harness that
    dies leaves no tool running."""
    cmd = [os.path.join(BUILD_DIR, "davf_e2e"), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", out_path]
    if args.trace:
        cmd += ["--trace", trace_path]
    else:
        cmd += ["--workload", args.workload]
    harness = subprocess.Popen(cmd, start_new_session=True)
    try:
        return harness.wait(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(harness.pid)
        harness.wait()
        die("davf_e2e exceeded %d s" % HARNESS_TIMEOUT_S, 1)
    finally:
        kill_group(harness.pid)
        harness.wait()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in [1, 60]")

    # The benchmark builds the program from source; a tree holding only
    # the benchmark's own files has nothing to build.
    for needed in ("BENCHMARK.json", "CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(needed):
            die("%s not found: run from the repository root" % needed)
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die("unknown workload '%s'" % args.workload)

    build()
    tag = "%s-%d-%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(BUILD_DIR, "result-%s.json" % tag)
    trace_path = os.path.join(BUILD_DIR, "trace-%s.json" % tag)
    if os.path.exists(out_path):
        os.unlink(out_path)
    sys.stdout.flush()
    code = run_harness(args, out_path, trace_path)
    if not os.path.exists(out_path):
        die("davf_e2e exited %d without a result" % code, 1)
    with open(out_path) as f:
        result = json.load(f)

    if args.trace:
        section = result["layers"]
        wanted = bench["per_layer"]
        key = "value"
    else:
        section = result["workloads"][args.workload]
        wanted = bench["end_to_end"]
        key = "median"
    values = {name: (m[key], m["unit"])
              for name, m in section["metrics"].items()}
    for name, (source, scale, unit) in ALIASES.items():
        if name not in values and source in values:
            values[name] = (values[source][0] * scale, unit)
    correct = code == 0 and section["correct"] and section["failed"] == 0
    metrics = {}
    if correct:
        for metric in wanted:
            name = metric["name"]
            value, unit = values.get(name, (None, None))
            if unit != metric["unit"]:
                die("davf_e2e reported no %s in %s" % (name, metric["unit"]),
                    1)
            metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct,
                      "attempted": section["attempted"],
                      "failed": section["failed"],
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
