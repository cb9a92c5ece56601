#include "net/sim_transport.h"

#include <utility>

#include "common/assert.h"

namespace congos::net {

/// One process's mailbox: datagrams sent to it this round wait in `sent_`;
/// advance_round() moves them to `ready_`, which poll() drains.
class SimLink::Endpoint final : public Transport {
 public:
  Endpoint(SimLink* link, ProcessId id) : link_(link), id_(id) {}

  bool send(ProcessId to, DatagramHandle datagram) override {
    if (to >= link_->n()) {
      ++stats_.no_route;
      return false;
    }
    ++stats_.datagrams_sent;
    stats_.bytes_sent += datagram->bytes.size();
    link_->endpoints_[to]->sent_.push_back(Mail{id_, std::move(datagram)});
    return true;
  }

  std::size_t poll(int /*timeout_ms*/, DatagramSink& sink) override {
    const std::size_t delivered = ready_.size();
    for (Mail& m : ready_) {
      ++stats_.datagrams_received;
      stats_.bytes_received += m.datagram->bytes.size();
      sink.on_datagram(m.from, m.datagram->bytes);
      m.datagram.reset();  // read in place; now the sender's pool may reuse it
    }
    ready_.clear();
    return delivered;
  }

  const TransportStats& stats() const override { return stats_; }

  void end_round() {
    if (ready_.empty()) {
      std::swap(ready_, sent_);  // the common case keeps both capacities
    } else {
      for (Mail& m : sent_) ready_.push_back(std::move(m));
    }
    sent_.clear();
  }

 private:
  struct Mail {
    ProcessId from = kNoProcess;
    DatagramHandle datagram;
  };

  SimLink* link_;
  ProcessId id_;
  TransportStats stats_;
  std::vector<Mail> sent_;
  std::vector<Mail> ready_;
};

SimLink::SimLink(std::size_t n) {
  endpoints_.reserve(n);
  for (ProcessId p = 0; p < n; ++p) {
    endpoints_.push_back(std::make_unique<Endpoint>(this, p));
  }
}

SimLink::~SimLink() = default;

Transport& SimLink::endpoint(ProcessId p) {
  CONGOS_ASSERT(p < endpoints_.size());
  return *endpoints_[p];
}

void SimLink::advance_round() {
  for (auto& e : endpoints_) e->end_round();
  ++round_;
}

}  // namespace congos::net
