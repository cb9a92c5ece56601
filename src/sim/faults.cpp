#include "sim/faults.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace congos::sim {

namespace {

bool parse_double(const std::string& s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != nullptr && *end == '\0' && !s.empty();
}

bool parse_i64(const std::string& s, std::int64_t* out) {
  char* end = nullptr;
  *out = std::strtoll(s.c_str(), &end, 10);
  return end != nullptr && *end == '\0' && !s.empty();
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s.c_str(), &end, 0);
  return end != nullptr && *end == '\0' && !s.empty();
}

bool fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return false;
}

}  // namespace

bool parse_fault_spec(const std::string& spec, FaultConfig* out, std::string* error) {
  FaultConfig cfg;
  bool delay_rate_given = false;
  bool delay_given = false;

  std::stringstream ss(spec);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    const auto colon = item.find(':');
    if (colon == std::string::npos) {
      return fail(error, "fault spec item '" + item + "' is not key:value");
    }
    const std::string key = item.substr(0, colon);
    const std::string val = item.substr(colon + 1);
    if (key == "drop") {
      if (!parse_double(val, &cfg.drop_rate) || cfg.drop_rate < 0.0 ||
          cfg.drop_rate > 1.0) {
        return fail(error, "drop rate must be a probability, got '" + val + "'");
      }
    } else if (key == "dup") {
      if (!parse_double(val, &cfg.dup_rate) || cfg.dup_rate < 0.0 ||
          cfg.dup_rate > 1.0) {
        return fail(error, "dup rate must be a probability, got '" + val + "'");
      }
    } else if (key == "delay") {
      std::int64_t k = 0;
      if (!parse_i64(val, &k) || k < 1) {
        return fail(error, "delay must be a round count >= 1, got '" + val + "'");
      }
      cfg.max_delay = k;
      delay_given = true;
    } else if (key == "delay-rate") {
      if (!parse_double(val, &cfg.delay_rate) || cfg.delay_rate < 0.0 ||
          cfg.delay_rate > 1.0) {
        return fail(error, "delay-rate must be a probability, got '" + val + "'");
      }
      delay_rate_given = true;
    } else if (key == "partition") {
      const auto slash = val.find('/');
      std::int64_t period = 0;
      std::int64_t duration = 0;
      if (slash == std::string::npos || !parse_i64(val.substr(0, slash), &period) ||
          !parse_i64(val.substr(slash + 1), &duration) || period < 1 ||
          duration < 1 || duration > period) {
        return fail(error,
                    "partition wants PERIOD/DURATION with 1 <= DURATION <= PERIOD, "
                    "got '" + val + "'");
      }
      cfg.partition_period = period;
      cfg.partition_duration = duration;
    } else if (key == "seed") {
      if (!parse_u64(val, &cfg.seed)) {
        return fail(error, "seed must be an integer, got '" + val + "'");
      }
    } else {
      return fail(error, "unknown fault key '" + key + "'");
    }
  }

  // `delay:K` alone should mean "some messages are up to K rounds late".
  if (delay_given && !delay_rate_given) cfg.delay_rate = 0.25;

  *out = cfg;
  return true;
}

std::string describe(const FaultConfig& cfg) {
  if (!cfg.enabled()) return "off";
  std::ostringstream os;
  const char* sep = "";
  if (cfg.drop_rate > 0.0) {
    os << sep << "drop:" << cfg.drop_rate;
    sep = ",";
  }
  if (cfg.dup_rate > 0.0) {
    os << sep << "dup:" << cfg.dup_rate;
    sep = ",";
  }
  // max_delay also bounds duplicate lateness, so it matters whenever either
  // knob is on; the explicit delay-rate keeps the string parse round-trippable
  // (a bare `delay:K` implies delay-rate 0.25).
  if (cfg.delay_rate > 0.0 || (cfg.dup_rate > 0.0 && cfg.max_delay > 1)) {
    os << sep << "delay:" << cfg.max_delay << ",delay-rate:" << cfg.delay_rate;
    sep = ",";
  }
  if (cfg.partitions_enabled()) {
    os << sep << "partition:" << cfg.partition_period << "/" << cfg.partition_duration;
    sep = ",";
  }
  os << sep << "seed:" << cfg.seed;
  return os.str();
}

LinkFault draw_link_fault(const FaultConfig& cfg, Rng& rng, Round round, ProcessId from,
                          ProcessId to) {
  if (partition_cuts(cfg, round, from, to)) return {FaultKind::kPartitioned};
  if (cfg.drop_rate > 0.0 && rng.chance(cfg.drop_rate)) return {FaultKind::kDropped};
  const auto lateness = [&] {
    const auto span = static_cast<std::uint64_t>(std::max<Round>(cfg.max_delay, 1));
    return 1 + static_cast<Round>(rng.next_below(span));
  };
  if (cfg.delay_rate > 0.0 && rng.chance(cfg.delay_rate)) {
    return {FaultKind::kDelayed, lateness()};
  }
  if (cfg.dup_rate > 0.0 && rng.chance(cfg.dup_rate)) {
    return {FaultKind::kDuplicated, lateness()};
  }
  return {};
}

}  // namespace congos::sim
