#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>

namespace congos::bench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanLog::begin(std::uint64_t trace, const std::string& name,
                             std::uint64_t parent) {
  const std::int64_t t = now_ns();
  return add(trace, name, parent, t, t);
}

void SpanLog::end(std::uint64_t id) {
  Span& s = spans_[id - 1];
  s.end_ns = now_ns();
  s.calls = 1;
}

void SpanLog::accumulate(std::uint64_t* slot, const char* name,
                         std::uint64_t parent, std::int64_t t0,
                         std::int64_t t1) {
  if (*slot == 0) {
    *slot = add(span(parent).trace, name, parent, t0, t0);
    spans_[*slot - 1].calls = 0;
  }
  Span& s = spans_[*slot - 1];
  s.end_ns += t1 - t0;
  ++s.calls;
}

std::uint64_t SpanLog::add(std::uint64_t trace, const std::string& name,
                           std::uint64_t parent, std::int64_t start_ns,
                           std::int64_t end_ns) {
  Span s;
  s.trace = trace;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.calls = 1;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

bool SpanLog::write(const std::string& path, std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    *error = "cannot open " + path;
    return false;
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"trace\":%" PRIu64 ",\"span\":%" PRIu64 ",\"parent\":%" PRIu64
                 ",\"name\":\"%s\",\"start_ns\":%" PRId64 ",\"end_ns\":%" PRId64
                 ",\"calls\":%" PRIu64 "}\n",
                 s.trace, s.id, s.parent, s.name.c_str(), s.start_ns, s.end_ns,
                 s.calls);
  }
  const bool ok = std::fclose(f) == 0;
  if (!ok) *error = "write failed: " + path;
  return ok;
}

namespace {

/// Value text after `"key":` in a flat JSON object line, up to the next ','
/// or '}' (quotes stripped). Span names never contain either.
bool field(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return false;
  std::size_t b = at + needle.size();
  std::size_t e = line.find_first_of(",}", b);
  if (e == std::string::npos) return false;
  if (line[b] == '"') {
    ++b;
    if (e == b || line[e - 1] != '"') return false;
    --e;
  }
  *out = line.substr(b, e - b);
  return true;
}

bool int_field(const std::string& line, const char* key, std::int64_t* out) {
  std::string text;
  if (!field(line, key, &text) || text.empty()) return false;
  char* end = nullptr;
  *out = std::strtoll(text.c_str(), &end, 10);
  return *end == '\0';
}

}  // namespace

bool read_spans(const std::string& path, std::vector<Span>* out,
                std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  out->clear();
  std::string line;
  for (std::size_t lineno = 1; std::getline(in, line); ++lineno) {
    if (line.empty()) continue;
    Span s;
    std::int64_t trace = 0, id = 0, parent = 0, calls = 0;
    if (!int_field(line, "trace", &trace) || !int_field(line, "span", &id) ||
        !int_field(line, "parent", &parent) || !field(line, "name", &s.name) ||
        !int_field(line, "start_ns", &s.start_ns) ||
        !int_field(line, "end_ns", &s.end_ns) ||
        !int_field(line, "calls", &calls) || id <= 0 || parent < 0 ||
        s.end_ns < s.start_ns) {
      *error = path + ":" + std::to_string(lineno) + ": malformed span";
      return false;
    }
    s.trace = static_cast<std::uint64_t>(trace);
    s.id = static_cast<std::uint64_t>(id);
    s.parent = static_cast<std::uint64_t>(parent);
    s.calls = static_cast<std::uint64_t>(calls);
    out->push_back(std::move(s));
  }
  return true;
}

bool build_report(const std::vector<Span>& spans, TraceReport* out,
                  std::string* error) {
  *out = TraceReport{};
  std::map<std::uint64_t, std::int64_t> child_ns;  // parent id -> children
  const Span* root = nullptr;
  const Span* reference = nullptr;
  for (const Span& s : spans) {
    if (s.trace == kTracedRun) {
      if (s.parent == 0) {
        if (root != nullptr) {
          *error = "trace 1 has more than one root span";
          return false;
        }
        root = &s;
      } else {
        child_ns[s.parent] += s.duration_ns();
      }
    } else if (s.trace == kUntracedRun && s.parent == 0) {
      reference = &s;
    }
  }
  if (root == nullptr || reference == nullptr) {
    *error = "need a trace-1 root span and a trace-2 reference span";
    return false;
  }

  std::map<std::string, std::size_t> index;
  const Span* namesake = nullptr;
  for (const Span& s : spans) {
    if (s.trace != kTracedRun) continue;
    if (namesake == nullptr && s.name == reference->name) namesake = &s;
    const auto it = child_ns.find(s.id);
    const std::int64_t children = it == child_ns.end() ? 0 : it->second;
    const std::int64_t self = std::max<std::int64_t>(0, s.duration_ns() - children);
    auto [slot, fresh] = index.emplace(s.name, out->layers.size());
    if (fresh) out->layers.push_back(LayerTime{s.name, 0, 0});
    out->layers[slot->second].self_ns += self;
    out->layers[slot->second].calls += s.calls;
    out->self_sum_ns += self;
  }
  if (namesake == nullptr) {
    *error = "trace 1 has no span named '" + reference->name + "'";
    return false;
  }
  out->wall_ns = root->duration_ns();
  out->overhead_frac =
      reference->duration_ns() > 0
          ? static_cast<double>(namesake->duration_ns() - reference->duration_ns()) /
                static_cast<double>(reference->duration_ns())
          : 0.0;
  const double gap = static_cast<double>(out->self_sum_ns - out->wall_ns);
  out->consistent = out->wall_ns > 0 &&
                    std::abs(gap) <= 0.05 * static_cast<double>(out->wall_ns);
  return true;
}

void print_report(const TraceReport& report) {
  std::printf("%-24s %12s %8s %10s\n", "layer", "self_ms", "share", "calls");
  for (const LayerTime& l : report.layers) {
    std::printf("%-24s %12.3f %7.2f%% %10" PRIu64 "\n", l.name.c_str(),
                static_cast<double>(l.self_ns) / 1e6,
                report.wall_ns > 0 ? 100.0 * static_cast<double>(l.self_ns) /
                                         static_cast<double>(report.wall_ns)
                                   : 0.0,
                l.calls);
  }
  std::printf("self-time sum %.3f ms vs traced wall %.3f ms: %s\n",
              static_cast<double>(report.self_sum_ns) / 1e6,
              static_cast<double>(report.wall_ns) / 1e6,
              report.consistent ? "within 5%" : "OFF BY MORE THAN 5%");
  std::printf("trace_overhead_frac %.6f\n", report.overhead_frac);
}

}  // namespace congos::bench
