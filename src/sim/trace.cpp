#include "sim/trace.h"

#include <ostream>
#include <sstream>

namespace congos::sim {

void TraceLog::push(Event e) {
  ++seen_;
  events_.push_back(e);
  while (events_.size() > opt_.capacity) events_.pop_front();
}

void TraceLog::on_crash(ProcessId p, Round now, PartialDelivery /*policy*/) {
  push(Event{now, Kind::kCrash, p, {}, 0});
}

void TraceLog::on_restart(ProcessId p, Round now, PartialDelivery /*policy*/) {
  push(Event{now, Kind::kRestart, p, {}, 0});
}

void TraceLog::on_inject(const Rumor& rumor, Round now) {
  push(Event{now, Kind::kInject, rumor.uid.source, rumor.uid, rumor.dest.count()});
}

void TraceLog::on_envelope_delivered(const Envelope& e, Round now) {
  ++current_round_deliveries_;
  if (opt_.record_deliveries) {
    Event ev{now, Kind::kEnvelopeDelivered, e.to, {}, 0, e.tag.kind, e.from};
    push(ev);
  }
}

void TraceLog::on_round_end(Round now) {
  round_deliveries_.emplace_back(now, current_round_deliveries_);
  current_round_deliveries_ = 0;
  while (round_deliveries_.size() > 64) round_deliveries_.pop_front();
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
  for (const auto& [round, count] : round_deliveries_) {
    os << " " << round << ":" << count;
  }
  os << "\n";
}

std::string TraceLog::dump_string(std::size_t last_n) const {
  std::ostringstream os;
  dump(os, last_n);
  return os.str();
}

}  // namespace congos::sim
