#!/usr/bin/env python3
"""Build congos_bench from source and run one benchmark workload.

Run from the root of a repository checkout:

    python3 congos_bench/run.py --workload sim-steady --seed 1 --seconds 25 --trace 0

The first run configures and builds the benchmark package (congos_bench/
CMakeLists.txt, which compiles the CONGOS libraries and congos_d from src/
and tools/) into .bench_build; later runs only re-check the build. The
benchmark's own output goes to stdout, and its last line is the JSON result.
With --trace 1 the run is traced: spans go to .bench_build/traces/ and the
per-layer metrics are printed instead of the end-to-end ones.

Exits nonzero, printing no result, when the checkout lacks the CONGOS
sources, the build fails, or the benchmark reports a failed check.
"""

import argparse
import fcntl
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("sim-steady", "sim-churn-faults", "wire-durable", "wire-lossy-lz4")
BUILD_DIR = ".bench_build"


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    """Configure once, then build; serialized across concurrent runs."""
    build_dir = os.path.join(root, BUILD_DIR)
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", os.path.join(root, "congos_bench"), "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                check=True, stdout=sys.stderr, stderr=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs, "--target", "congos_bench",
             "congos_d"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "congos_bench")


def reap_group(pgid):
    """SIGKILL every process left in the group and wait until none is."""
    for _ in range(500):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)
    fail("processes of group %d survived SIGKILL" % pgid)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    for need in ("src/CMakeLists.txt", "tools/congos_d.cpp",
                 "congos_bench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("not a CONGOS checkout (missing %s); run from the repository root"
                 % need)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    try:
        bench = build(root)
    except subprocess.CalledProcessError as e:
        fail("build failed: %s" % e)

    tag = "%s-%d-%d" % (args.workload, args.seed, os.getpid())
    workdir = os.path.join(root, BUILD_DIR, "work", tag)
    cmd = [bench, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds, "--workdir=" + workdir]
    if args.trace:
        traces = os.path.join(root, BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd.append("--trace=" + os.path.join(traces, tag + ".jsonl"))

    # Own process group: whatever the benchmark leaves behind (a daemon of a
    # cluster run cut short) is killed and waited for before we return.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("benchmark exceeded 170 s")
    finally:
        reap_group(proc.pid)
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        print("run.py: benchmark exited %d" % proc.returncode, file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
