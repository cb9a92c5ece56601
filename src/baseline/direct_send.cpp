#include "baseline/direct_send.h"

#include "common/assert.h"
#include "common/math.h"

namespace congos::baseline {

void DirectSendProcess::on_restart(Round /*now*/) { queue_.clear(); }

void DirectSendProcess::inject(const sim::Rumor& rumor) {
  if (rumor.dest.test(id()) && listener_ != nullptr) {
    listener_->on_rumor_delivered(id(), rumor.uid, rumor.injected_at,
                                  {rumor.data.data(), rumor.data.size()});
  }
  PendingRumor p;
  p.rumor = rumor;
  rumor.dest.for_each([&](std::uint32_t q) {
    if (q != id()) p.targets.push_back(q);
  });
  if (p.targets.empty()) return;
  p.per_round =
      opt_.paced
          ? static_cast<std::size_t>(ceil_div(
                p.targets.size(), static_cast<std::uint64_t>(
                                      std::max<Round>(1, rumor.deadline))))
          : p.targets.size();
  queue_.push_back(std::move(p));
}

void DirectSendProcess::send_phase(Round /*now*/, sim::Sender& out) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    auto body = std::make_shared<BaselineRumorPayload>();
    body->rumor = it->rumor;
    std::size_t sent = 0;
    while (!it->targets.empty() && sent < it->per_round) {
      const ProcessId q = it->targets.back();
      it->targets.pop_back();
      out.send(sim::Envelope{id(), q,
                             sim::ServiceTag{sim::ServiceKind::kBaseline, 0}, body});
      ++sent;
    }
    it = it->targets.empty() ? queue_.erase(it) : std::next(it);
  }
}

void DirectSendProcess::receive_phase(Round now, std::span<const sim::Envelope> inbox) {
  for (const auto& e : inbox) {
    CONGOS_ASSERT_MSG(e.body != nullptr &&
                          e.body->kind() == sim::PayloadKind::kBaselineRumor,
                      "unexpected payload at DirectSendProcess");
    const auto* body = static_cast<const BaselineRumorPayload*>(e.body.get());
    CONGOS_ASSERT_MSG(body->rumor.dest.test(id()),
                      "direct send to a process outside the destination set");
    if (listener_ != nullptr) {
      listener_->on_rumor_delivered(id(), body->rumor.uid, now,
                                    {body->rumor.data.data(), body->rumor.data.size()});
    }
  }
}

}  // namespace congos::baseline
