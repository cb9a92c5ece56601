#include "sim/trace.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <sstream>

namespace congos::sim {

void TraceLog::push(Event e) {
  ++seen_;
  events_.push_back(e);
  while (events_.size() > opt_.capacity) events_.pop_front();
}

void TraceLog::push_lifecycle(Kind kind, ProcessId p, Round now, PartialDelivery policy) {
  Event e;
  e.when = now;
  e.kind = kind;
  e.process = p;
  e.policy = policy;
  push(e);
}

void TraceLog::on_crash(ProcessId p, Round now, PartialDelivery policy) {
  push_lifecycle(Kind::kCrash, p, now, policy);
}

void TraceLog::on_restart(ProcessId p, Round now, PartialDelivery policy) {
  push_lifecycle(Kind::kRestart, p, now, policy);
}

void TraceLog::on_inject(const Rumor& rumor, Round now) {
  Event e;
  e.when = now;
  e.kind = Kind::kInject;
  e.process = rumor.uid.source;
  e.rumor = rumor.uid;
  e.dest = rumor.dest.count();
  e.deadline = rumor.deadline;
  push(e);
}

void TraceLog::on_envelope_delivered(const Envelope& env, Round now) {
  ++current_round_deliveries_;
  if (!opt_.record_deliveries) return;
  Event e;
  e.when = now;
  e.kind = Kind::kEnvelopeDelivered;
  e.process = env.to;
  e.service = env.tag.kind;
  e.from = env.from;
  push(e);
}

void TraceLog::on_round_end(Round now) {
  if (rounds_.empty()) first_round_ = now;
  rounds_.push_back(current_round_deliveries_);
  hash_ = fnv1a_u64(hash_, current_round_deliveries_);
  current_round_deliveries_ = 0;
}

void TraceLog::dump(std::ostream& os, std::size_t last_n) const {
  os << "trace: " << seen_ << " lifecycle events total, showing last "
     << std::min(last_n, events_.size()) << "\n";
  const std::size_t start =
      events_.size() > last_n ? events_.size() - last_n : 0;
  for (std::size_t i = start; i < events_.size(); ++i) {
    const Event& e = events_[i];
    os << "  [" << e.when << "] ";
    switch (e.kind) {
      case Kind::kCrash:
        os << "crash   p" << e.process;
        break;
      case Kind::kRestart:
        os << "restart p" << e.process;
        break;
      case Kind::kInject:
        os << "inject  p" << e.process << " rumor (" << e.rumor.source << ","
           << e.rumor.seq << ") |D|=" << e.dest;
        break;
      case Kind::kEnvelopeDelivered:
        os << "deliver p" << e.from << " -> p" << e.process << " ["
           << to_string(e.service) << "]";
        break;
    }
    os << "\n";
  }
  os << "recent rounds (deliveries/round):";
  constexpr std::size_t kRecentRounds = 64;
  const std::size_t from =
      rounds_.size() > kRecentRounds ? rounds_.size() - kRecentRounds : 0;
  for (std::size_t i = from; i < rounds_.size(); ++i) {
    os << " " << first_round_ + static_cast<Round>(i) << ":" << rounds_[i];
  }
  os << "\n";
}

std::string TraceLog::dump_string(std::size_t last_n) const {
  std::ostringstream os;
  dump(os, last_n);
  return os.str();
}

void TraceLog::write_schedule(std::ostream& os) const {
  const auto lifecycle =
      std::count_if(events_.begin(), events_.end(),
                    [](const Event& e) { return e.kind != Kind::kEnvelopeDelivered; });
  os << "# " << lifecycle << " lifecycle events\n";
  char line[160];
  for (const Event& e : events_) {
    switch (e.kind) {
      case Kind::kCrash:
      case Kind::kRestart:
        std::snprintf(line, sizeof line, "round %-6lld %-7s p%-5u policy=%d\n",
                      static_cast<long long>(e.when),
                      e.kind == Kind::kCrash ? "crash" : "restart", e.process,
                      static_cast<int>(e.policy));
        break;
      case Kind::kInject:
        std::snprintf(line, sizeof line,
                      "round %-6lld inject  p%-5u rumor=%u/%llu dests=%zu "
                      "deadline=%lld\n",
                      static_cast<long long>(e.when), e.process, e.rumor.source,
                      static_cast<unsigned long long>(e.rumor.seq), e.dest,
                      static_cast<long long>(e.deadline));
        break;
      case Kind::kEnvelopeDelivered:
        continue;
    }
    os << line;
  }
}

}  // namespace congos::sim
