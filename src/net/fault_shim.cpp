#include "net/fault_shim.h"

namespace congos::net {

FaultShim::FaultShim(Transport* inner, const sim::FaultConfig& cfg,
                     ProcessId self)
    : inner_(inner),
      cfg_(cfg),
      self_(self),
      rng_(cfg.seed ^ (0x9e3779b97f4a7c15ull * (self + 1))) {}

std::uint64_t FaultShim::fault_total() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counters_) total += c;
  return total;
}

sim::LinkFault FaultShim::draw(ProcessId to) {
  const sim::LinkFault f = sim::draw_link_fault(cfg_, rng_, now_, self_, to);
  if (f.kind) ++counters_[static_cast<std::size_t>(*f.kind)];
  return f;
}

bool FaultShim::send(ProcessId to, DatagramHandle datagram) {
  if (!cfg_.enabled()) return inner_->send(to, std::move(datagram));
  const sim::LinkFault f = draw(to);
  // A duplicate's held copy shares the buffer with the datagram sent now;
  // neither path mutates the bytes, and the pool only reclaims the buffer
  // once the last handle dies.
  if (f.lateness > 0) held_.push_back(Held{now_ + f.lateness, to, datagram});
  return f.on_time() ? inner_->send(to, std::move(datagram)) : true;
}

void FaultShim::release_due() {
  if (held_.empty()) return;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < held_.size(); ++i) {
    if (held_[i].due <= now_) {
      inner_->send(held_[i].to, std::move(held_[i].datagram));
    } else {
      if (kept != i) held_[kept] = std::move(held_[i]);
      ++kept;
    }
  }
  held_.resize(kept);
}

void FaultShim::set_round(Round now) {
  now_ = now;
  release_due();
}

std::size_t FaultShim::poll(int timeout_ms, DatagramSink& sink) {
  release_due();
  return inner_->poll(timeout_ms, sink);
}

}  // namespace congos::net
