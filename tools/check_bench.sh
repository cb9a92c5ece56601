#!/usr/bin/env sh
# Runs the engine hot-path microbenchmark and appends one JSON record per
# benchmark to BENCH_engine.json (JSON-lines: one record per line, so the
# file accumulates a perf trajectory across commits). Each row runs three
# times; its record holds the median and the spread (see REPETITIONS).
#
# Usage: tools/check_bench.sh [build-dir] [output-file]
#   build-dir    defaults to ./build
#   output-file  defaults to ./BENCH_engine.json
set -eu

BUILD_DIR="${1:-build}"
OUT_FILE="${2:-BENCH_engine.json}"
BENCH_BIN="$BUILD_DIR/bench/micro_engine"

if [ ! -x "$BENCH_BIN" ]; then
  echo "error: $BENCH_BIN not found; build first (cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j)" >&2
  exit 1
fi

# Sanitized builds are 2-20x slower: a record from one would pollute the
# perf trajectory. Detect from the configured cache and refuse.
CACHE="$BUILD_DIR/CMakeCache.txt"
if [ -f "$CACHE" ]; then
  SANITIZE="$(sed -n 's/^CONGOS_SANITIZE:[A-Z]*=//p' "$CACHE")"
  case "$SANITIZE" in
    ""|OFF|Off|off|FALSE|False|false|NO|No|no|0) SANITIZE="" ;;
  esac
  if [ -n "$SANITIZE" ]; then
    echo "error: $BUILD_DIR was configured with CONGOS_SANITIZE=$SANITIZE;" >&2
    echo "       refusing to append sanitized timings to $OUT_FILE." >&2
    echo "       Re-run from an unsanitized build directory." >&2
    exit 1
  fi
fi

# Context recorded with each line: thread count the sweep runner would use
# and the bench scale, so trajectory lines are comparable across machines.
THREADS="${CONGOS_BENCH_THREADS:-$(nproc 2>/dev/null || echo unknown)}"
SCALE="${CONGOS_BENCH_SCALE:-default}"
# Engine thread count: the headline number tracks the round engine
# (DESIGN.md section 12) at 4 threads. Override with CONGOS_ENGINE_THREADS=1
# to run each round's single shard on the calling thread; bench_diff.py
# refuses to compare records whose engine_threads context differs.
ENGINE_THREADS="${CONGOS_ENGINE_THREADS:-4}"
export CONGOS_ENGINE_THREADS="$ENGINE_THREADS"
# Wire codec version (src/wire/wire.h): byte-accounting work in the hot path
# depends on the envelope format, so records stamp which codec produced them.
WIRE_VERSION="$(sed -n 's/^inline constexpr std::uint8_t kWireFormatVersion = \([0-9]*\);.*/\1/p' \
  "$(dirname "$0")/../src/wire/wire.h" 2>/dev/null || true)"
WIRE_VERSION="${WIRE_VERSION:-unknown}"
# Transport the benchmark ran over (DESIGN.md section 13): "sim" is the
# lockstep simulator hot path; the micro_net lane below stamps "udp".
# Wall-clock rounds are not comparable to lockstep rounds, so
# bench_diff.py never compares records across transports.
TRANSPORT="${CONGOS_BENCH_TRANSPORT:-sim}"
# CI runs a reduced-scale smoke (e.g. only /256); records made under a
# non-default filter should set CONGOS_BENCH_SCALE too, so bench_diff.py
# never compares them against full-scale records.
# The default set is the plain-gossip hot path plus the CONGOS headline
# rows (full pipeline with the confidentiality audit) at n = 128 and 256.
FILTER="${CONGOS_BENCH_FILTER:-BM_HotPathRounds|BM_CongosRun/(128|256)/}"

# One run per row cannot tell a regression from host noise, so every row
# runs REPETITIONS times and only google-benchmark's aggregates are kept.
# A record holds the median aggregate under the row's plain name (run_name),
# so it compares with the single-run records of older revs, plus
# `repetitions` and `cv`, the coefficient of variation of the gated metric.
REPETITIONS=3
# jq: the median row of each benchmark, with its cv row as .cv.
JQ_MEDIANS='def medians:
  [.benchmarks[] | select(.run_type == "aggregate")] as $agg
  | $agg[] | select(.aggregate_name == "median") | .run_name as $run
  | . + {cv: [$agg[] | select(.aggregate_name == "cv" and .run_name == $run)][0]};'
count_medians() {
  jq '[.benchmarks[] | select(.aggregate_name == "median")] | length' "$1"
}

TMP_JSON="$(mktemp)"
trap 'rm -f "$TMP_JSON"' EXIT

"$BENCH_BIN" --benchmark_filter="$FILTER" \
  --benchmark_repetitions="$REPETITIONS" --benchmark_report_aggregates_only=true \
  --benchmark_out="$TMP_JSON" --benchmark_out_format=json \
  --benchmark_format=console

GIT_REV="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
# Full SHA plus a dirty marker, so a trajectory line can be tied back to an
# exact tree (the short rev alone is ambiguous across rebases).
GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
GIT_DIRTY=false
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
  GIT_DIRTY=true
fi

# One compact line per benchmark: name, real/cpu time, the gated metric
# (named in `metric`), the step-phase breakdown, context. The six
# <phase>_us_per_round counters (wall time per simulated round in each
# sim::StepPhase) come from BM_CongosRun and are null on rows that do not
# emit them; bench_diff.py prints them beside the metric but never gates on
# them.
jq -c --arg rev "$GIT_REV" --arg sha "$GIT_SHA" --argjson dirty "$GIT_DIRTY" \
  --arg threads "$THREADS" --arg scale "$SCALE" --arg wire "$WIRE_VERSION" \
  --arg ethreads "$ENGINE_THREADS" --arg transport "$TRANSPORT" \
  "$JQ_MEDIANS"'.context.date as $date | medians |
   {date: $date, rev: $rev, sha: $sha, dirty: $dirty, name: .run_name,
    real_time_ms: .real_time, cpu_time_ms: .cpu_time,
    metric: "rounds_per_sec",
    rounds_per_sec: .rounds_per_sec,
    repetitions: .repetitions, cv: .cv.rounds_per_sec,
    adversary_us_per_round: .adversary_us_per_round,
    send_us_per_round: .send_us_per_round,
    merge_us_per_round: .merge_us_per_round,
    deliver_us_per_round: .deliver_us_per_round,
    receive_us_per_round: .receive_us_per_round,
    round_end_us_per_round: .round_end_us_per_round,
    threads: $threads, bench_scale: $scale,
    wire_codec_version: $wire, engine_threads: $ethreads,
    transport: $transport}' \
  "$TMP_JSON" >> "$OUT_FILE"

echo "appended $(count_medians "$TMP_JSON") benchmark record(s) to $OUT_FILE:"
tail -n 2 "$OUT_FILE"

# UDP datagram-path lane (DESIGN.md section 13): transport=udp rows from
# bench/micro_net. Each row names its figure of merit in `metric`
# (datagrams_per_sec for BM_UdpLoopback, frames_per_sec for
# BM_DatagramCodec), which is the field the gate reads; these rows carry no
# rounds_per_sec. The raw counters ride along, including
# send_syscalls_per_dgram - the batching win that holds across machines
# even where cheap syscalls flatten the wall-clock difference.
NET_BIN="$BUILD_DIR/bench/micro_net"
if [ -x "$NET_BIN" ]; then
  NET_FILTER="${CONGOS_BENCH_NET_FILTER:-BM_UdpLoopback|BM_DatagramCodec}"
  TMP_NET_JSON="$(mktemp)"
  "$NET_BIN" --benchmark_filter="$NET_FILTER" \
    --benchmark_repetitions="$REPETITIONS" --benchmark_report_aggregates_only=true \
    --benchmark_out="$TMP_NET_JSON" --benchmark_out_format=json \
    --benchmark_format=console

  jq -c --arg rev "$GIT_REV" --arg sha "$GIT_SHA" --argjson dirty "$GIT_DIRTY" \
    --arg threads "$THREADS" --arg scale "$SCALE" --arg wire "$WIRE_VERSION" \
    --arg ethreads "$ENGINE_THREADS" \
    "$JQ_MEDIANS"'.context.date as $date | medians |
     (if .datagrams_per_sec != null then "datagrams_per_sec"
      else "frames_per_sec" end) as $metric |
     {date: $date, rev: $rev, sha: $sha, dirty: $dirty, name: .run_name,
      real_time_ms: .real_time, cpu_time_ms: .cpu_time,
      metric: $metric,
      repetitions: .repetitions, cv: .cv[$metric],
      datagrams_per_sec: .datagrams_per_sec,
      frames_per_sec: .frames_per_sec,
      send_syscalls_per_dgram: .send_syscalls_per_dgram,
      bytes_per_second: .bytes_per_second,
      threads: $threads, bench_scale: $scale,
      wire_codec_version: $wire, engine_threads: $ethreads,
      transport: "udp"}' \
    "$TMP_NET_JSON" >> "$OUT_FILE"

  echo "appended $(count_medians "$TMP_NET_JSON") transport=udp record(s) to $OUT_FILE:"
  tail -n 2 "$OUT_FILE"
  rm -f "$TMP_NET_JSON"
else
  echo "note: $NET_BIN not built; skipping the transport=udp lane" >&2
fi

# Regression gate: compare the two most recent rev groups in the trajectory.
# CONGOS_BENCH_DIFF_MODE: strict (default, >10% drop fails), informational
# (report only), off.
DIFF_MODE="${CONGOS_BENCH_DIFF_MODE:-strict}"
SCRIPT_DIR="$(dirname "$0")"
case "$DIFF_MODE" in
  off) ;;
  informational)
    python3 "$SCRIPT_DIR/bench_diff.py" --file "$OUT_FILE" --informational ;;
  *)
    python3 "$SCRIPT_DIR/bench_diff.py" --file "$OUT_FILE" ;;
esac
