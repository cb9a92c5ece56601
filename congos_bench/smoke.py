#!/usr/bin/env python3
"""congos_bench_smoke: every workload at smoke size, untraced and traced.

Asserts that
  * every run passes its correctness checks (exit 0, "correct": true,
    failed == 0) - for the sim workloads this includes congos_bench's own
    check that the traced run reproduced the untraced run's messages, bytes,
    QoD report, injections and crashes exactly;
  * the printed metric names and units equal those in BENCHMARK.json
    (end_to_end for untraced runs, per_layer for traced ones);
  * --report accepts each trace (layer self times within 5% of the wall).

Registered as a ctest lane by congos_bench/CMakeLists.txt.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("sim-steady", "sim-churn-faults", "wire-durable", "wire-lossy-lz4")


def launch(args, workload, trace):
    cmd = [args.bench, "--workload=" + workload, "--seed=1", "--smoke",
           "--daemon=" + args.daemon,
           "--workdir=" + os.path.join(args.workdir, workload)]
    if trace:
        cmd.append("--trace=" + trace)
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            text=True)


def check(workload, proc, expected, errors):
    out, _ = proc.communicate()
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        errors.append("%s: no JSON result (exit %d):\n%s"
                      % (workload, proc.returncode, out))
        return
    if proc.returncode != 0 or not result["correct"] or result["failed"] != 0:
        errors.append("%s: exit %d, correct=%s, failed=%s:\n%s" % (
            workload, proc.returncode, result["correct"], result["failed"], out))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        errors.append("%s: metrics %s differ from BENCHMARK.json %s" % (
            workload, sorted(got.items()), sorted(expected.items())))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True)
    ap.add_argument("--daemon", required=True)
    ap.add_argument("--benchmark-json", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    with open(args.benchmark_json) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        sys.exit("BENCHMARK.json workloads differ from %s" % (WORKLOADS,))

    shutil.rmtree(args.workdir, ignore_errors=True)
    os.makedirs(args.workdir)
    errors = []
    # Untraced runs first, then traced ones; each wave runs its workloads
    # side by side (at smoke size a cluster keeps well under a core busy).
    untraced = {w: launch(args, w, None) for w in WORKLOADS}
    for w, proc in untraced.items():
        check(w, proc, end_to_end, errors)
    traces = {w: os.path.join(args.workdir, w + ".jsonl") for w in WORKLOADS}
    traced = {w: launch(args, w, traces[w]) for w in WORKLOADS}
    for w, proc in traced.items():
        check(w + " --trace", proc, per_layer, errors)
    for w, path in traces.items():
        rep = subprocess.run([args.bench, "--report=" + path], capture_output=True,
                             text=True)
        if rep.returncode != 0:
            errors.append("%s --report: exit %d\n%s%s" % (
                w, rep.returncode, rep.stdout, rep.stderr))

    for e in errors:
        print("FAIL " + e)
    if errors:
        sys.exit(1)
    print("congos_bench_smoke: %d workloads ok, traced and untraced" % len(WORKLOADS))


if __name__ == "__main__":
    main()
