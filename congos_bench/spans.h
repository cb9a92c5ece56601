// In-memory span recorder for the traced benchmark run, and the self-time
// report over the spans it writes.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions; nothing inside the program is instrumented. They stay in
// memory and are written once, at exit, as JSON lines:
//
//   {"trace":1,"span":3,"parent":1,"name":"round","start_ns":..,"end_ns":..,"calls":1}
//
// A span that accumulates many short calls (the per-round `adversary` and
// `audit.confidentiality` children) starts at its first call and is as long
// as the calls' summed duration, so a parent's self time (its duration minus
// its direct children's) stays exact.
//
// File convention: trace 1 is the traced run. Trace 2 holds one span timed
// with no instrumentation around the same work; the span of the same name in
// trace 1 gives the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace congos::bench {

inline constexpr std::uint64_t kTracedRun = 1;
inline constexpr std::uint64_t kUntracedRun = 2;

std::int64_t now_ns();

struct Span {
  std::uint64_t trace = 0;
  std::uint64_t id = 0;      // 1-based, unique within the file
  std::uint64_t parent = 0;  // 0 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t calls = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class SpanLog {
 public:
  /// Opens a span now; returns its id.
  std::uint64_t begin(std::uint64_t trace, const std::string& name,
                      std::uint64_t parent = 0);
  void end(std::uint64_t id);

  /// Adds one call that ran over [t0, t1) to the accumulating child `*slot`
  /// of `parent`, opening it (and storing its id in *slot) on first use.
  void accumulate(std::uint64_t* slot, const char* name, std::uint64_t parent,
                  std::int64_t t0, std::int64_t t1);

  /// A span measured elsewhere (e.g. the untraced reference run).
  std::uint64_t add(std::uint64_t trace, const std::string& name,
                    std::uint64_t parent, std::int64_t start_ns,
                    std::int64_t end_ns);

  const Span& span(std::uint64_t id) const { return spans_[id - 1]; }
  const std::vector<Span>& spans() const { return spans_; }

  bool write(const std::string& path, std::string* error) const;

 private:
  std::vector<Span> spans_;
};

bool read_spans(const std::string& path, std::vector<Span>* out,
                std::string* error);

struct LayerTime {
  std::string name;
  std::int64_t self_ns = 0;
  std::uint64_t calls = 0;
};

struct TraceReport {
  std::vector<LayerTime> layers;  // trace 1, by first appearance
  std::int64_t wall_ns = 0;       // trace 1 root span
  std::int64_t self_sum_ns = 0;
  /// (traced - untraced) / untraced over the trace-2 span and its namesake
  /// in trace 1.
  double overhead_frac = 0.0;
  /// Self times sum to the traced wall time within 5%.
  bool consistent = false;
};

/// Self time per layer name (a span's duration minus its direct children's,
/// floored at zero, so overlapping children show up as a sum above the wall
/// time). Fails when trace 1 has no single root or trace 2 is missing.
bool build_report(const std::vector<Span>& spans, TraceReport* out,
                  std::string* error);

/// The --report output: self time per layer, the sum check and the overhead.
void print_report(const TraceReport& report);

}  // namespace congos::bench
