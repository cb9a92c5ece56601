#include "sim/engine.h"

#include <algorithm>
#include <chrono>

#include "common/assert.h"
#include "common/thread_pool.h"
#include "wire/envelope.h"

namespace congos::sim {

const char* to_string(StepPhase phase) {
  switch (phase) {
    case StepPhase::kAdversary: return "adversary";
    case StepPhase::kSend: return "send";
    case StepPhase::kMerge: return "merge";
    case StepPhase::kDeliver: return "deliver";
    case StepPhase::kReceive: return "receive";
    case StepPhase::kRoundEnd: return "round_end";
  }
  return "?";
}

/// Sender used on the send shards: envelopes land in the shard's private
/// buffer (no shared state touched), each with its exact v1 frame size
/// measured here (header-only SizeSink walk, allocation-free), so the send
/// shards measure in parallel. The driving thread merges the buffers into
/// the network shard by shard in ascending order: process order.
class Engine::ShardSender final : public Sender {
 public:
  ShardSender(ShardBuffer& out, ProcessId from, Round round)
      : out_(out), from_(from), round_(round) {}
  void send(Envelope e) override {
    CONGOS_ASSERT_MSG(e.from == from_, "process spoofed sender id");
    out_.bytes.push_back(wire::encoded_envelope_size(e, round_));
    out_.out.push_back(std::move(e));
  }

 private:
  ShardBuffer& out_;
  ProcessId from_;
  Round round_;
};

/// Fans delivered envelopes out to the delivery observers (receiver
/// observers see them in the receive phase instead). Stack-allocated per
/// step; replaces a per-round std::function closure.
class Engine::DeliveryFanout final : public DeliveryObserver {
 public:
  explicit DeliveryFanout(Engine& engine) : engine_(engine) {}
  void on_delivered(const Envelope& e) override {
    for (auto* obs : engine_.delivery_observers_) {
      obs->on_envelope_delivered(e, engine_.now_);
    }
  }

 private:
  Engine& engine_;
};

/// One send or receive phase as a ShardTask: shard i covers the i-th fixed
/// contiguous chunk of the alive-id list. The partition depends only on
/// (alive set, shard count), never on which thread runs what.
class Engine::PhaseTask final : public ShardTask {
 public:
  PhaseTask(Engine& engine, bool receive) : engine_(engine), receive_(receive) {}

  void run_shard(std::size_t shard) override {
    const std::vector<ProcessId>& ids = engine_.alive_ids_;
    const std::size_t m = ids.size();
    const std::size_t shards = engine_.shard_buffers_.size();
    const std::size_t lo = shard * m / shards;
    const std::size_t hi = (shard + 1) * m / shards;
    if (receive_) {
      for (std::size_t i = lo; i < hi; ++i) engine_.receive(ids[i]);
    } else {
      ShardBuffer& out = engine_.shard_buffers_[shard];
      const Round round = engine_.network_.round();
      for (std::size_t i = lo; i < hi; ++i) {
        const ProcessId p = ids[i];
        ShardSender sender(out, p, round);
        engine_.processes_[p]->send_phase(engine_.now_, sender);
      }
    }
  }

 private:
  Engine& engine_;
  const bool receive_;
};

Engine::Engine(std::vector<std::unique_ptr<Process>> processes, std::uint64_t seed)
    : processes_(std::move(processes)),
      rng_(seed),
      network_(processes_.size(), &stats_),
      alive_(processes_.size(), true),
      alive_count_(processes_.size()),
      alive_since_(processes_.size(), 0),
      lifecycle_event_this_round_(processes_.size()),
      injected_this_round_(processes_.size()),
      out_policy_(processes_.size(), PartialDelivery::kDeliverAll),
      out_filtered_(processes_.size()),
      in_policy_(processes_.size(), PartialDelivery::kDeliverAll),
      in_filtered_(processes_.size()),
      sent_this_round_(processes_.size()),
      shard_buffers_(1) {
  alive_ids_.reserve(processes_.size());
  for (std::size_t p = 0; p < processes_.size(); ++p) {
    CONGOS_ASSERT_MSG(processes_[p] != nullptr, "null process");
    CONGOS_ASSERT_MSG(processes_[p]->id() == p, "process ids must be dense 0..n-1");
    alive_ids_.push_back(static_cast<ProcessId>(p));
  }
}

Engine::~Engine() = default;

void Engine::set_threads(std::size_t threads) {
  CONGOS_ASSERT_MSG(phase_ == Phase::kIdle,
                    "thread count changes only at round boundaries");
  CONGOS_ASSERT_MSG(threads >= 1, "an engine needs at least one thread");
  // The calling thread runs shards too, so k threads are k-1 pool workers,
  // and 2 shards per thread over-decompose for load balance. The partition
  // is fixed, so this stays deterministic.
  pool_ = threads > 1 ? std::make_unique<ThreadPool>(threads - 1) : nullptr;
  shard_buffers_.resize(threads > 1 ? 2 * threads : 1);
}

void Engine::crash(ProcessId p, PartialDelivery policy) {
  CONGOS_ASSERT(p < n());
  CONGOS_ASSERT_MSG(alive_.test(p), "crash of an already-crashed process");
  CONGOS_ASSERT_MSG(!lifecycle_event_this_round_.test(p),
                    "at most one crash/restart per process per round");
  lifecycle_event_this_round_.set(p);
  lifecycle_touched_ = true;
  alive_.reset(p);
  --alive_count_;
  alive_ids_.erase(std::lower_bound(alive_ids_.begin(), alive_ids_.end(), p));
  if (phase_ == Phase::kAfterSends && sent_this_round_.test(p)) {
    // Crash after sending: the adversary controls which in-flight messages
    // survive.
    out_filtered_.set(p);
    out_touched_ = true;
    out_policy_[p] = policy;
  }
  // In any phase: the process no longer receives this round. kDropAll also
  // holds for every later round p stays dead (begin_round() relies on it).
  in_filtered_.set(p);
  in_touched_ = true;
  in_policy_[p] = PartialDelivery::kDropAll;
  notify_crash(p, policy);
}

void Engine::restart(ProcessId p, PartialDelivery policy) {
  CONGOS_ASSERT(p < n());
  CONGOS_ASSERT_MSG(!alive_.test(p), "restart of an alive process");
  CONGOS_ASSERT_MSG(!lifecycle_event_this_round_.test(p),
                    "at most one crash/restart per process per round");
  lifecycle_event_this_round_.set(p);
  lifecycle_touched_ = true;
  alive_.set(p);
  ++alive_count_;
  alive_ids_.insert(std::lower_bound(alive_ids_.begin(), alive_ids_.end(), p), p);
  alive_since_[p] = now_;
  // Some of the messages sent to p this round may be lost (Section 2).
  in_filtered_.set(p);
  in_touched_ = true;
  in_policy_[p] = policy;
  processes_[p]->on_restart(now_);
  notify_restart(p, policy);
}

void Engine::inject(ProcessId p, Rumor rumor) {
  CONGOS_ASSERT(p < n());
  CONGOS_ASSERT_MSG(alive_.test(p), "injection at a crashed process");
  CONGOS_ASSERT_MSG(!injected_this_round_.test(p),
                    "at most one rumor injected per process per round");
  CONGOS_ASSERT_MSG(rumor.uid.source == p, "rumor source must match inject target");
  injected_this_round_.set(p);
  injected_touched_ = true;
  rumor.injected_at = now_;
  for (auto* obs : observers_) obs->on_inject(rumor, now_);
  processes_[p]->inject(rumor);
}

void Engine::notify_crash(ProcessId p, PartialDelivery policy) {
  for (auto* obs : observers_) obs->on_crash(p, now_, policy);
}

void Engine::notify_restart(ProcessId p, PartialDelivery policy) {
  for (auto* obs : observers_) obs->on_restart(p, now_, policy);
}

void Engine::begin_round() {
  // Word-granular clears, each skipped when the previous round never set the
  // flag: the faults-off steady state takes none of these branches.
  if (lifecycle_touched_) {
    lifecycle_event_this_round_.reset_all();
    lifecycle_touched_ = false;
  }
  if (injected_touched_) {
    injected_this_round_.reset_all();
    injected_touched_ = false;
  }
  if (out_touched_) {
    out_filtered_.reset_all();
    out_touched_ = false;
  }
  if (in_touched_) {
    in_filtered_.reset_all();
    in_touched_ = false;
  }
  // Dead processes never receive. Their in_policy_ slots already hold
  // kDropAll (crash() set them), so only the filter bits need marking — one
  // word-wise or_complement.
  if (alive_count_ != n()) {
    in_filtered_.or_complement(alive_);
    in_touched_ = true;
  }
}

void Engine::run_phase(bool receive) {
  PhaseTask task(*this, receive);
  if (pool_ == nullptr) {
    task.run_shard(0);
  } else {
    pool_->run_shards(task, shard_buffers_.size());
  }
}

void Engine::merge_shard_sends() {
  // Fixed merge order: shard 0's envelopes first. The submission order is
  // process order at any shard count, so delivery (and traces) cannot tell
  // how many shards ran.
  for (ShardBuffer& buf : shard_buffers_) {
    for (std::size_t i = 0; i < buf.out.size(); ++i) {
      network_.submit(std::move(buf.out[i]), buf.bytes[i]);
    }
    buf.out.clear();  // both keep capacity: no allocation next round
    buf.bytes.clear();
  }
}

void Engine::receive(ProcessId p) {
  // Every delivered envelope sits in an alive receiver's inbox (dead and
  // crashing receivers have a kDropAll inbound filter), so walking the
  // alive inboxes shows receiver observers each delivery exactly once.
  const std::span<const Envelope> inbox = network_.inbox(p);
  if (!receiver_observers_.empty()) {
    for (const Envelope& e : inbox) {
      for (auto* obs : receiver_observers_) obs->on_envelope_delivered(e, now_);
    }
  }
  processes_[p]->receive_phase(now_, inbox);
}

void Engine::step() {
  // One clock read per phase boundary; each lap charges the time since the
  // previous read to one phase, so the phases sum to the step's wall time.
  using Clock = std::chrono::steady_clock;
  Clock::time_point mark = Clock::now();
  const auto lap = [&](StepPhase phase) {
    const Clock::time_point t = Clock::now();
    phase_ns_[static_cast<std::size_t>(phase)] += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - mark).count());
    mark = t;
  };

  if (!started_) {
    started_ = true;
    for (auto& p : processes_) p->on_start(now_);
  }

  begin_round();
  lap(StepPhase::kRoundEnd);

  phase_ = Phase::kRoundStart;
  if (adversary_ != nullptr) adversary_->at_round_start(*this);
  lap(StepPhase::kAdversary);

  phase_ = Phase::kSending;
  // Exactly the processes alive now participate in the send phase; crash()
  // consults this when the adversary strikes in kAfterSends.
  sent_this_round_ = alive_;
  run_phase(/*receive=*/false);
  lap(StepPhase::kSend);
  merge_shard_sends();
  lap(StepPhase::kMerge);

  phase_ = Phase::kAfterSends;
  if (adversary_ != nullptr) adversary_->after_sends(*this);
  lap(StepPhase::kAdversary);

  phase_ = Phase::kDelivering;
  DeliveryFanout fanout(*this);
  network_.deliver(out_policy_, out_filtered_, in_policy_, in_filtered_, rng_,
                   delivery_observers_.empty() ? nullptr : &fanout);
  lap(StepPhase::kDeliver);

  phase_ = Phase::kReceiving;
  // after_sends may have crashed processes: alive_ids_ is already current.
  run_phase(/*receive=*/true);
  lap(StepPhase::kReceive);

  phase_ = Phase::kRoundEnd;
  if (adversary_ != nullptr) adversary_->at_round_end(*this);
  lap(StepPhase::kAdversary);

  network_.end_round();
  stats_.end_round(now_);
  for (auto* obs : observers_) obs->on_round_end(now_);

  phase_ = Phase::kIdle;
  ++now_;
  lap(StepPhase::kRoundEnd);
}

void Engine::run(Round rounds) {
  stats_.reserve_rounds(static_cast<std::size_t>(rounds));
  for (Round i = 0; i < rounds; ++i) step();
}

}  // namespace congos::sim
