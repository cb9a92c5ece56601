#!/usr/bin/env python3
"""Bench-regression gate over the BENCH_engine.json perf trajectory.

The trajectory file is JSON-lines: one record per benchmark per
check_bench.sh invocation, each carrying a git rev and a higher-is-better
rate named by its `metric` field (rounds_per_sec for the simulator rows,
datagrams_per_sec or frames_per_sec for the udp rows). check_bench.sh runs
each row several times and stores the median under that field, with
`repetitions` and `cv` (the metric's coefficient of variation) beside it,
so the gate reads the median; older single-run records have neither field
and compare by the same name. This script groups
records by rev *in file order*, takes the two most recent rev groups, and
compares the head record's metric per benchmark name. A base record that
predates the field is read through the same field name: the old udp rows
also carried their rate under datagrams_per_sec or frames_per_sec.

Exit status:
  0  no benchmark regressed by more than the threshold (default 10%),
     or fewer than two rev groups exist (nothing to compare),
     or --informational was given.
  1  at least one benchmark regressed beyond the threshold.
  2  usage / malformed input.

Records that carry the step-phase breakdown (the six <phase>_us_per_round
counters BM_CongosRun emits) get one more line per pair with those
counters, base -> head. They explain a change in the metric; they are
never gated.

Benchmarks present in only one of the two groups are reported and skipped;
so are pairs whose metric, bench_scale, engine_threads, or transport context
differs (a reduced-scale CI record is not comparable to a full-scale local
one, nor a serial-engine record to a sharded one, nor a sim-transport
lockstep record to a udp-transport wall-clock one). A *baseline* record stamped
"dirty": true is refused as a comparison base (warn and skip): it came from
an uncommitted tree, so its rev does not identify the code that produced
it. A dirty head record gets a warning but still compares — that is the
normal state while iterating locally.

Usage: tools/bench_diff.py [--file BENCH_engine.json] [--threshold 0.10]
                           [--informational] [--self-test]
"""

import argparse
import io
import json
import os
import sys
import tempfile


def load_records(path):
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise SystemExit(f"error: {path}:{lineno}: bad JSON line: {e}")
            if "rev" not in rec or "name" not in rec:
                raise SystemExit(f"error: {path}:{lineno}: record lacks rev/name")
            records.append(rec)
    return records


def group_by_rev(records):
    """Rev groups in file (= chronological) order; a rev re-appearing later
    starts a fresh group, so re-running on the same commit compares the two
    runs rather than silently merging them."""
    groups = []
    for rec in records:
        if not groups or groups[-1][0] != rec["rev"]:
            groups.append((rec["rev"], []))
        groups[-1][1].append(rec)
    return groups


PHASES = ("adversary", "send", "merge", "deliver", "receive", "round_end")


def phase_line(b, h):
    """The step-phase counters of a pair, base -> head in microseconds per
    round, or None when neither record carries them."""
    parts = []
    for phase in PHASES:
        key = phase + "_us_per_round"
        if b.get(key) is None and h.get(key) is None:
            continue
        fmt = lambda v: "-" if v is None else f"{float(v):.1f}"
        parts.append(f"{phase} {fmt(b.get(key))} -> {fmt(h.get(key))}")
    if not parts:
        return None
    return "    us/round by phase (not gated): " + ", ".join(parts)


def spread(rec):
    """' (median of k, cv c%)' for a repetition record, else ''."""
    if rec.get("repetitions") is None:
        return ""
    cv = rec.get("cv")
    cv_text = "?" if cv is None else f"{float(cv) * 100.0:.1f}%"
    return f" (median of {rec['repetitions']}, cv {cv_text})"


def compare(base_recs, head_recs, threshold, out=sys.stdout):
    """Returns the list of regressed benchmark names."""
    base = {r["name"]: r for r in base_recs}
    head = {r["name"]: r for r in head_recs}
    regressed = []
    for name in sorted(set(base) | set(head)):
        if name not in base or name not in head:
            where = "head" if name not in base else "base"
            print(f"  {name}: only in {where} group, skipped", file=out)
            continue
        b, h = base[name], head[name]
        metric = h.get("metric", "rounds_per_sec")
        if b.get("metric", metric) != metric:
            print(
                f"  {name}: metric mismatch ({b['metric']} vs {metric}), skipped",
                file=out,
            )
            continue
        if b.get("bench_scale", "default") != h.get("bench_scale", "default"):
            print(
                f"  {name}: bench_scale mismatch "
                f"({b.get('bench_scale')} vs {h.get('bench_scale')}), skipped",
                file=out,
            )
            continue
        b_et = str(b.get("engine_threads", "1"))
        h_et = str(h.get("engine_threads", "1"))
        if b_et != h_et:
            print(
                f"  {name}: engine_threads mismatch ({b_et} vs {h_et}), skipped",
                file=out,
            )
            continue
        # Records predating the transport field are lockstep-simulator runs.
        b_tr = b.get("transport", "sim")
        h_tr = h.get("transport", "sim")
        if b_tr != h_tr:
            print(
                f"  {name}: transport mismatch ({b_tr} vs {h_tr}), skipped",
                file=out,
            )
            continue
        if b.get("dirty", False):
            print(
                f"  {name}: baseline record is dirty (uncommitted tree), "
                f"not a trustworthy base, skipped",
                file=out,
            )
            continue
        if h.get("dirty", False):
            print(
                f"  {name}: warning: head record is dirty (uncommitted tree), "
                f"comparing anyway",
                file=out,
            )
        try:
            b_val = float(b[metric])
            h_val = float(h[metric])
        except (KeyError, TypeError, ValueError):
            print(f"  {name}: missing {metric}, skipped", file=out)
            continue
        if b_val <= 0:
            print(f"  {name}: non-positive baseline, skipped", file=out)
            continue
        ratio = h_val / b_val
        verdict = "ok"
        if ratio < 1.0 - threshold:
            verdict = "REGRESSED"
            regressed.append(name)
        print(
            f"  {name}: {b_val:.3f}{spread(b)} -> {h_val:.3f}{spread(h)} {metric} "
            f"({(ratio - 1.0) * 100.0:+.1f}%) {verdict}",
            file=out,
        )
        phases = phase_line(b, h)
        if phases is not None:
            print(phases, file=out)
    return regressed


def run(path, threshold, informational):
    if not os.path.exists(path):
        print(f"bench_diff: {path} not found; nothing to compare")
        return 0
    groups = group_by_rev(load_records(path))
    if len(groups) < 2:
        print(f"bench_diff: fewer than two rev groups in {path}; nothing to compare")
        return 0
    (base_rev, base_recs), (head_rev, head_recs) = groups[-2], groups[-1]
    print(f"bench_diff: {base_rev} (base) vs {head_rev} (head), "
          f"threshold {threshold * 100:.0f}%")
    regressed = compare(base_recs, head_recs, threshold)
    if regressed:
        print(f"bench_diff: {len(regressed)} benchmark(s) regressed "
              f">{threshold * 100:.0f}%: {', '.join(regressed)}")
        if informational:
            print("bench_diff: informational mode, not failing")
            return 0
        return 1
    print("bench_diff: no regression")
    return 0


def self_test():
    """Synthetic-trajectory checks, including the mandatory negative test:
    a >10% drop of the gated metric must exit nonzero."""

    def trajectory(*lines):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for rec in lines:
                fh.write(json.dumps(rec) + "\n")
        return path

    def rec(rev, name, rps, scale="default", dirty=False, engine_threads=None,
            transport=None, metric=None, repetitions=None, cv=None):
        # With `metric`, the value sits under that name, as check_bench.sh
        # writes it; without, it is a record that predates the field. With
        # `repetitions`, the value is the median of that many runs.
        r = {"rev": rev, "name": name, "bench_scale": scale, "dirty": dirty}
        if repetitions is not None:
            r["repetitions"] = repetitions
            r["cv"] = cv
        if metric is None:
            r["rounds_per_sec"] = rps
        else:
            r["metric"] = metric
            r[metric] = rps
        if engine_threads is not None:
            r["engine_threads"] = engine_threads
        if transport is not None:
            r["transport"] = transport
        return r

    failures = []

    def check(label, got, want):
        if got != want:
            failures.append(f"{label}: exit {got}, want {want}")

    # >10% regression on one benchmark -> fail.
    p = trajectory(rec("aaa", "BM_X/256", 100.0), rec("aaa", "BM_X/1024", 10.0),
                   rec("bbb", "BM_X/256", 101.0), rec("bbb", "BM_X/1024", 8.5))
    check("regression", run(p, 0.10, informational=False), 1)
    check("regression-informational", run(p, 0.10, informational=True), 0)
    os.unlink(p)

    # 5% drop is inside the threshold -> pass.
    p = trajectory(rec("aaa", "BM_X/256", 100.0), rec("bbb", "BM_X/256", 95.0))
    check("within-threshold", run(p, 0.10, informational=False), 0)
    os.unlink(p)

    # Improvement -> pass.
    p = trajectory(rec("aaa", "BM_X/256", 100.0), rec("bbb", "BM_X/256", 160.0))
    check("improvement", run(p, 0.10, informational=False), 0)
    os.unlink(p)

    # Single rev group -> nothing to compare -> pass.
    p = trajectory(rec("aaa", "BM_X/256", 100.0))
    check("single-group", run(p, 0.10, informational=False), 0)
    os.unlink(p)

    # Scale mismatch is skipped, not compared -> pass.
    p = trajectory(rec("aaa", "BM_X/256", 100.0),
                   rec("bbb", "BM_X/256", 10.0, scale="ci-smoke"))
    check("scale-mismatch", run(p, 0.10, informational=False), 0)
    os.unlink(p)

    # Same rev re-appearing later forms a fresh group (re-run comparison).
    p = trajectory(rec("aaa", "BM_X/256", 100.0), rec("bbb", "BM_X/256", 99.0),
                   rec("aaa", "BM_X/256", 50.0))
    check("rerun-same-rev", run(p, 0.10, informational=False), 1)
    os.unlink(p)

    # A dirty BASELINE is untrustworthy: skipped even across a huge drop.
    p = trajectory(rec("aaa", "BM_X/256", 100.0, dirty=True),
                   rec("bbb", "BM_X/256", 10.0))
    check("dirty-base-skipped", run(p, 0.10, informational=False), 0)
    os.unlink(p)

    # A dirty HEAD still compares (with a warning): regressions must fail.
    p = trajectory(rec("aaa", "BM_X/256", 100.0),
                   rec("bbb", "BM_X/256", 10.0, dirty=True))
    check("dirty-head-compares", run(p, 0.10, informational=False), 1)
    os.unlink(p)

    # engine_threads context mismatch is skipped (missing counts as "1").
    p = trajectory(rec("aaa", "BM_X/256", 100.0),
                   rec("bbb", "BM_X/256", 10.0, engine_threads="4"))
    check("engine-threads-mismatch", run(p, 0.10, informational=False), 0)
    p2 = trajectory(rec("aaa", "BM_X/256", 100.0, engine_threads="4"),
                    rec("bbb", "BM_X/256", 10.0, engine_threads="4"))
    check("engine-threads-match-compares", run(p2, 0.10, informational=False), 1)
    os.unlink(p)
    os.unlink(p2)

    # Transport mismatch is skipped (missing counts as "sim"): a wall-clock
    # udp run must never gate against a lockstep sim baseline.
    p = trajectory(rec("aaa", "BM_X/256", 100.0),
                   rec("bbb", "BM_X/256", 10.0, transport="udp"))
    check("transport-mismatch", run(p, 0.10, informational=False), 0)
    p2 = trajectory(rec("aaa", "BM_X/256", 100.0, transport="sim"),
                    rec("bbb", "BM_X/256", 10.0))
    check("transport-sim-default-compares", run(p2, 0.10, informational=False), 1)
    os.unlink(p)
    os.unlink(p2)

    # The udp datagram lane (BM_UdpLoopback, recorded by check_bench.sh
    # under metric datagrams_per_sec, with no rounds_per_sec) gates
    # rev-over-rev on that metric once both records are transport=udp.
    udp = {"transport": "udp", "metric": "datagrams_per_sec"}
    p = trajectory(
        rec("aaa", "BM_UdpLoopback/batch:1/bytes:1200", 1000.0, **udp),
        rec("bbb", "BM_UdpLoopback/batch:1/bytes:1200", 500.0, **udp))
    check("udp-lane-regression", run(p, 0.10, informational=False), 1)
    os.unlink(p)
    p = trajectory(
        rec("aaa", "BM_DatagramCodec/lz4:0", 1000.0, transport="udp",
            metric="frames_per_sec"),
        rec("bbb", "BM_DatagramCodec/lz4:0", 980.0, transport="udp",
            metric="frames_per_sec"))
    check("udp-frames-within-threshold", run(p, 0.10, informational=False), 0)
    os.unlink(p)

    # A base record that predates the metric field is read through the
    # head's metric name: a sim row through rounds_per_sec, an old udp row
    # (rate copied into rounds_per_sec and datagrams_per_sec) through
    # datagrams_per_sec. Explicitly different metrics never compare.
    p = trajectory(rec("aaa", "BM_X/256", 100.0),
                   rec("bbb", "BM_X/256", 10.0, metric="rounds_per_sec"))
    check("legacy-rounds-compares", run(p, 0.10, informational=False), 1)
    os.unlink(p)
    old_udp = rec("aaa", "BM_UdpLoopback/batch:1/bytes:1200", 1000.0,
                  transport="udp")
    old_udp["datagrams_per_sec"] = 1000.0
    p = trajectory(old_udp,
                   rec("bbb", "BM_UdpLoopback/batch:1/bytes:1200", 500.0, **udp))
    check("legacy-udp-compares", run(p, 0.10, informational=False), 1)
    os.unlink(p)
    p = trajectory(
        rec("aaa", "BM_DatagramCodec/lz4:0", 1000.0, transport="udp",
            metric="datagrams_per_sec"),
        rec("bbb", "BM_DatagramCodec/lz4:0", 10.0, transport="udp",
            metric="frames_per_sec"))
    check("metric-mismatch-skipped", run(p, 0.10, informational=False), 0)
    os.unlink(p)

    # A benchmark appearing for the first time (head-only name, e.g. the
    # first recording of BM_DatagramCodec) is reported and skipped - a new
    # lane must never fail the gate on its debut.
    p = trajectory(
        rec("aaa", "BM_UdpLoopback/batch:1/bytes:1200", 1000.0, **udp),
        rec("bbb", "BM_UdpLoopback/batch:1/bytes:1200", 1000.0, **udp),
        rec("bbb", "BM_DatagramCodec/lz4:0", 900.0, transport="udp",
            metric="frames_per_sec"))
    check("udp-new-name-skipped", run(p, 0.10, informational=False), 0)
    os.unlink(p)

    # Repetition records (check_bench.sh: the median of 3 runs under the
    # plain name, with its cv) gate on that median, against a single-run
    # record of an older rev or another repetition record.
    reps = {"metric": "rounds_per_sec", "repetitions": 3}
    p = trajectory(rec("aaa", "BM_X/256", 100.0),
                   rec("bbb", "BM_X/256", 97.0, cv=0.20, **reps))
    check("repetitions-median-within-threshold", run(p, 0.10, informational=False), 0)
    os.unlink(p)
    p = trajectory(rec("aaa", "BM_X/256", 100.0, cv=0.01, **reps),
                   rec("bbb", "BM_X/256", 85.0, cv=0.02, **reps))
    check("repetitions-median-regression", run(p, 0.10, informational=False), 1)
    os.unlink(p)

    # Step-phase counters are printed, never gated: a phase that got slower
    # while the metric held passes; a metric drop still fails with them
    # present; records with and without the counters compare as ever.
    def with_phases(r, **us):
        for phase in PHASES:
            r[phase + "_us_per_round"] = us.get(phase)
        return r

    base = with_phases(rec("aaa", "BM_CongosRun/128/", 100.0, **reps),
                       send=400.0, merge=80.0, receive=900.0)
    p = trajectory(base, with_phases(rec("bbb", "BM_CongosRun/128/", 101.0, **reps),
                                     send=800.0, merge=5.0, receive=900.0))
    check("phases-not-gated", run(p, 0.10, informational=False), 0)
    os.unlink(p)
    p = trajectory(base, with_phases(rec("bbb", "BM_CongosRun/128/", 80.0, **reps),
                                     send=300.0, merge=5.0, receive=700.0))
    check("phases-metric-regression", run(p, 0.10, informational=False), 1)
    os.unlink(p)
    p = trajectory(rec("aaa", "BM_CongosRun/128/", 100.0, **reps), base,
                   rec("bbb", "BM_CongosRun/128/", 99.0, **reps))
    check("phases-missing-on-one-side", run(p, 0.10, informational=False), 0)
    os.unlink(p)
    printed = io.StringIO()
    compare([base], [with_phases(rec("bbb", "BM_CongosRun/128/", 120.0, **reps),
                                 send=300.0, merge=5.0)], 0.10, out=printed)
    if "merge 80.0 -> 5.0" not in printed.getvalue() or \
            "receive 900.0 -> -" not in printed.getvalue():
        failures.append("phases-printed: " + printed.getvalue().strip())
    printed = io.StringIO()
    compare([rec("aaa", "BM_X/256", 100.0)], [rec("bbb", "BM_X/256", 100.0)], 0.10,
            out=printed)
    if "by phase" in printed.getvalue():
        failures.append("phases-absent: " + printed.getvalue().strip())

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}", file=sys.stderr)
        return 1
    print("bench_diff self-test: all cases passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--file", default="BENCH_engine.json",
                    help="JSON-lines trajectory file (default: BENCH_engine.json)")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="max tolerated fractional drop (default: 0.10)")
    ap.add_argument("--informational", action="store_true",
                    help="report regressions but always exit 0")
    ap.add_argument("--self-test", action="store_true",
                    help="run built-in synthetic checks and exit")
    args = ap.parse_args()
    if not 0.0 < args.threshold < 1.0:
        ap.error("--threshold must be in (0, 1)")
    if args.self_test:
        return self_test()
    return run(args.file, args.threshold, args.informational)


if __name__ == "__main__":
    sys.exit(main())
