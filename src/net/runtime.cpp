#include "net/runtime.h"

#include <sstream>
#include <utility>

#include "net/control.h"
#include "net/framing.h"
#include "wire/compress.h"
#include "wire/envelope.h"

namespace congos::net {

// Routes one send phase's envelopes into per-destination coalesced
// datagrams. Builders live on the runtime so their buffers persist across
// rounds.
class NodeRuntime::PhaseSender final : public sim::Sender {
 public:
  PhaseSender(NodeRuntime* rt, std::vector<DatagramBuilder>* builders)
      : rt_(rt), builders_(builders) {}

  void send(sim::Envelope e) override {
    if (e.to >= builders_->size()) {
      ++rt_->encode_errors_;
      return;
    }
    const ProcessId to = e.to;
    const bool ok = (*builders_)[to].add(
        e, rt_->now_, [&](DatagramHandle d) { rt_->ship(to, std::move(d)); },
        &rt_->encode_memo_);
    if (!ok) ++rt_->encode_errors_;
  }

 private:
  NodeRuntime* rt_;
  std::vector<DatagramBuilder>* builders_;
};

template <class Append>
void NodeRuntime::log_event(Append&& append) {
  if (log_ == nullptr || replaying_) return;
  line_.clear();
  append(&line_);
  line_.push_back('\n');
  std::fwrite(line_.data(), 1, line_.size(), log_);
}

NodeRuntime::NodeRuntime(const NodeConfig& cfg, Transport* transport,
                         FaultShim* shim)
    : cfg_(cfg), transport_(transport), shim_(shim) {}

NodeRuntime::~NodeRuntime() {
  if (log_ != nullptr) std::fclose(log_);
}

bool NodeRuntime::boot(const char* log_mode, std::string* error) {
  if (cfg_.compress && !wire::lz4_available()) {
    if (error != nullptr) {
      *error = "compression requested but LZ4 is unavailable in this process";
    }
    return false;
  }
  if (!cfg_.log_path.empty()) {
    log_ = std::fopen(cfg_.log_path.c_str(), log_mode);
    if (log_ == nullptr) {
      if (error != nullptr) *error = "cannot open log '" + cfg_.log_path + "'";
      return false;
    }
  }
  last_heard_.assign(cfg_.n, kNoRound);
  ccfg_ = std::make_shared<const core::CongosConfig>(cfg_.congos);
  partitions_ = core::CongosProcess::build_partitions(cfg_.n, *ccfg_);
  // Same per-process seed schedule as harness::run_scenario: process p gets
  // the (p+1)-th draw of a seeder over the system seed, so an in-process
  // cluster and a daemon cluster with equal configs run identical protocols.
  Rng seeder(cfg_.seed);
  std::uint64_t pseed = seeder.next();
  for (ProcessId p = 0; p < cfg_.id; ++p) pseed = seeder.next();
  process_ = std::make_unique<core::CongosProcess>(cfg_.id, ccfg_, partitions_,
                                                   pseed, this);
  return true;
}

bool NodeRuntime::start(std::string* error) {
  if (!boot("w", error)) return false;
  // A fresh run never appends to a stale file from an earlier one.
  if (!cfg_.state_path.empty() && !state_.create(cfg_.state_path, error)) {
    return false;
  }
  process_->on_start(0);
  run_send_phase();
  return true;
}

bool NodeRuntime::resume(const NodeCheckpoint& ck, std::string* error) {
  if (started()) {
    if (error != nullptr) *error = "resume on an already-started runtime";
    return false;
  }
  if (ck.id != cfg_.id || ck.n != cfg_.n || ck.seed != cfg_.seed ||
      ck.tau != cfg_.congos.tau ||
      ck.allow_degenerate != cfg_.congos.allow_degenerate ||
      !(ck.retransmit == cfg_.congos.retransmit) ||
      ck.max_rounds != cfg_.max_rounds) {
    if (error != nullptr) {
      *error = "state file config binding does not match this daemon's flags";
    }
    return false;
  }
  if (clock_bound_ &&
      !validate_checkpoint_clock(ck, epoch_ms_, round_ms_, error)) {
    return false;
  }
  // Append: the pre-crash event-log lines are the audit evidence for
  // everything this incarnation is about to *not* re-log.
  if (!boot("a", error)) return false;

  // Replay the journal through the live phase machinery. Determinism in
  // (seed, journal) makes the result byte-identical to the pre-crash state;
  // replaying_ keeps the re-run invisible on the wire and in the log.
  replaying_ = true;
  process_->on_start(0);
  run_send_phase();
  std::size_t next = 0;
  for (Round r = 0; r < ck.round; ++r) {
    // Journal order within a round is live order: injections landed after
    // send_phase(r), frames were consumed by receive_phase(r) in tick().
    while (next < ck.events.size() && ck.events[next].round == r) {
      apply_journal_event(ck.events[next++]);
    }
    tick();
  }
  // Events at the checkpoint round itself are the pending inbox (and any
  // round-R injections): applied, not yet consumed - exactly where the
  // previous incarnation stood between send_phase(R) and receive_phase(R).
  while (next < ck.events.size()) apply_journal_event(ck.events[next++]);
  replaying_ = false;

  resume_count_ = ck.resume_count + 1;
  resumed_at_ = ck.round;
  // Unless the daemon named the cluster clock, stay on the one the state
  // was written under.
  if (!clock_bound_) {
    epoch_ms_ = ck.epoch_ms;
    round_ms_ = ck.round_ms;
  }
  return cfg_.state_path.empty() ||
         state_.rewrite(cfg_.state_path, binding(), ck.events, error);
}

void NodeRuntime::apply_journal_event(const CheckpointEvent& e) {
  if (e.kind == CheckpointEvent::Kind::kInject) {
    sim::Rumor rumor;
    rumor.uid = RumorUid{cfg_.id, e.seq};
    rumor.data = e.data;
    rumor.deadline = e.deadline;
    rumor.dest = e.dest;
    rumor.injected_at = now_;
    ++injections_;
    process_->inject(rumor);
    return;
  }
  wire::DecodedEnvelope dec;
  if (!wire::decode_envelope(e.frame.data(), e.frame.size(), &dec, nullptr,
                             &rumor_memo_) ||
      dec.env.to != cfg_.id) {
    // The frame was validated when first accepted and the file passed its
    // checksum, so this can only be a logic regression - surface it.
    ++decode_errors_;
    return;
  }
  ++frames_received_;
  if (dec.env.from < last_heard_.size()) last_heard_[dec.env.from] = now_;
  inbox_.push_back(std::move(dec.env));
}

void NodeRuntime::set_clock_binding(std::int64_t epoch_ms, std::int64_t round_ms) {
  clock_bound_ = true;
  epoch_ms_ = epoch_ms;
  round_ms_ = round_ms;
}

NodeCheckpoint NodeRuntime::binding() const {
  NodeCheckpoint ck;
  ck.id = cfg_.id;
  ck.n = cfg_.n;
  ck.seed = cfg_.seed;
  ck.tau = cfg_.congos.tau;
  ck.allow_degenerate = cfg_.congos.allow_degenerate;
  ck.retransmit = cfg_.congos.retransmit;
  ck.max_rounds = cfg_.max_rounds;
  ck.epoch_ms = epoch_ms_;
  ck.round_ms = round_ms_;
  ck.round = now_;
  ck.resume_count = resume_count_;
  return ck;
}

NodeCheckpoint NodeRuntime::make_checkpoint() const {
  NodeCheckpoint ck = binding();
  ck.events = journal_;
  return ck;
}

bool NodeRuntime::save_checkpoint(std::string* error) {
  if (cfg_.state_path.empty()) {
    if (error != nullptr) *error = "no state_path configured";
    return false;
  }
  if (!state_.append(binding(), journal_, error)) return false;
  journal_.clear();  // on disk now; capacity stays for the next interval
  ++checkpoint_writes_;
  last_checkpoint_round_ = now_;
  return true;
}

void NodeRuntime::handle_datagram(ProcessId /*from_hint*/,
                                  std::span<const std::uint8_t> datagram) {
  std::span<const std::uint8_t> frames;
  switch (unwrap_datagram(datagram, &decompress_scratch_, &frames)) {
    case DatagramKind::kPlain:
      break;
    case DatagramKind::kDecompressed:
      ++compressed_received_;
      break;
    case DatagramKind::kUnsupported:
      ++unsupported_datagrams_;
      return;
    case DatagramKind::kMalformed:
      ++malformed_datagrams_;
      return;
  }
  FrameSplitter splitter(frames);
  std::span<const std::uint8_t> frame;
  for (;;) {
    const FrameSplitter::Status st = splitter.next(&frame);
    if (st == FrameSplitter::Status::kDone) return;
    if (st != FrameSplitter::Status::kFrame) {
      ++malformed_datagrams_;
      return;
    }
    wire::DecodedEnvelope dec;
    if (!wire::decode_envelope(frame.data(), frame.size(), &dec, nullptr,
                               &rumor_memo_)) {
      ++decode_errors_;
      continue;
    }
    if (dec.env.to != cfg_.id) {
      ++misrouted_;
      continue;
    }
    ++frames_received_;
    if (dec.env.from < last_heard_.size()) last_heard_[dec.env.from] = now_;
    log_event([&](std::string* out) { append_recv_event(out, now_, frame); });
    if (!cfg_.state_path.empty()) {
      CheckpointEvent ev;
      ev.round = now_;
      ev.kind = CheckpointEvent::Kind::kRecv;
      ev.frame.assign(frame.begin(), frame.end());
      journal_.push_back(std::move(ev));
    }
    inbox_.push_back(std::move(dec.env));
  }
}

void NodeRuntime::run_send_phase() {
  if (builders_.size() != cfg_.n) {
    builders_.assign(cfg_.n, DatagramBuilder(dgram_pool_));
  }
  PhaseSender sender(this, &builders_);
  process_->send_phase(now_, sender);
  for (ProcessId to = 0; to < builders_.size(); ++to) {
    builders_[to].finish([&](DatagramHandle d) { ship(to, std::move(d)); });
  }
  encode_memo_.release();
}

void NodeRuntime::ship(ProcessId to, DatagramHandle d) {
  if (replaying_) return;  // already on the wire in the previous incarnation
  if (cfg_.compress && compress_datagram(&d->bytes, &compress_scratch_)) {
    ++datagrams_compressed_;
  }
  transport_->send(to, std::move(d));
}

void NodeRuntime::tick() {
  process_->receive_phase(now_, inbox_);
  inbox_.clear();
  ++now_;
  rumor_memo_.expire(now_);
  if (shim_ != nullptr) shim_->set_round(now_);
  if (!done()) run_send_phase();
}

void NodeRuntime::advance_to(Round target) {
  if (cfg_.max_rounds > 0 && target > cfg_.max_rounds) target = cfg_.max_rounds;
  while (now_ < target) tick();
}

bool NodeRuntime::inject(std::uint64_t seq, Round deadline, DynamicBitset dest,
                         std::vector<std::uint8_t> data) {
  if (dest.size() != cfg_.n) return false;
  sim::Rumor rumor;
  rumor.uid = RumorUid{cfg_.id, seq};
  rumor.data = std::move(data);
  rumor.deadline = deadline;
  rumor.dest = std::move(dest);
  rumor.injected_at = now_;
  log_event([&](std::string* out) { append_inject_event(out, now_, rumor); });
  if (!cfg_.state_path.empty()) {
    CheckpointEvent ev;
    ev.round = now_;
    ev.kind = CheckpointEvent::Kind::kInject;
    ev.seq = seq;
    ev.deadline = deadline;
    ev.dest = rumor.dest;
    ev.data = rumor.data;
    journal_.push_back(std::move(ev));
  }
  ++injections_;
  process_->inject(rumor);
  return true;
}

void NodeRuntime::on_rumor_delivered(ProcessId at, const RumorUid& uid,
                                     Round when,
                                     std::span<const std::uint8_t> data) {
  ++deliveries_;
  log_event([&](std::string* out) {
    append_deliver_event(out, when, at, uid, data);
  });
}

bool NodeRuntime::healthy() const {
  return decode_errors_ == 0 && malformed_datagrams_ == 0 &&
         encode_errors_ == 0 && misrouted_ == 0 &&
         unsupported_datagrams_ == 0 &&
         (process_ == nullptr || process_->filter_drops() == 0);
}

std::string NodeRuntime::stats_json() const {
  const TransportStats& t = transport_->stats();
  std::ostringstream out;
  out << "{\"id\":" << cfg_.id << ",\"n\":" << cfg_.n
      << ",\"rounds\":" << now_ << ",\"healthy\":" << (healthy() ? "true" : "false")
      << ",\"injections\":" << injections_ << ",\"deliveries\":" << deliveries_
      << ",\"frames_received\":" << frames_received_
      << ",\"decode_errors\":" << decode_errors_
      << ",\"malformed_datagrams\":" << malformed_datagrams_
      << ",\"misrouted\":" << misrouted_
      << ",\"encode_errors\":" << encode_errors_
      << ",\"datagrams_compressed\":" << datagrams_compressed_
      << ",\"compressed_received\":" << compressed_received_
      << ",\"unsupported_datagrams\":" << unsupported_datagrams_
      << ",\"uptime_rounds\":" << (now_ - resumed_at_)
      << ",\"resume_count\":" << resume_count_
      << ",\"checkpoint_writes\":" << checkpoint_writes_
      << ",\"last_checkpoint_round\":" << last_checkpoint_round_;
  // Peer liveness: last round an accepted frame arrived from each peer
  // (-1 = never heard). The cluster supervisor reads this to distinguish a
  // resumed peer (last_heard advances again) from a silent one.
  std::size_t peers_heard = 0;
  out << ",\"last_heard\":[";
  for (std::size_t p = 0; p < last_heard_.size(); ++p) {
    if (p != 0) out << ",";
    if (last_heard_[p] == kNoRound) {
      out << -1;
    } else {
      out << last_heard_[p];
      ++peers_heard;
    }
  }
  out << "],\"peers_heard\":" << peers_heard
      << ",\"transport\":{\"datagrams_sent\":" << t.datagrams_sent
      << ",\"datagrams_received\":" << t.datagrams_received
      << ",\"bytes_sent\":" << t.bytes_sent
      << ",\"bytes_received\":" << t.bytes_received
      << ",\"send_errors\":" << t.send_errors << ",\"no_route\":" << t.no_route
      << ",\"queue_overflow\":" << t.queue_overflow
      << ",\"queue_hwm\":" << t.queue_hwm
      << ",\"send_syscalls\":" << t.send_syscalls
      << ",\"recv_syscalls\":" << t.recv_syscalls << "}";
  if (process_ != nullptr) {
    const core::CgCounters& c = process_->counters();
    out << ",\"congos\":{\"injected\":" << c.injected
        << ",\"confirmed\":" << c.confirmed << ",\"shoots\":" << c.shoots
        << ",\"delivered\":" << c.delivered
        << ",\"reassembled\":" << c.reassembled
        << ",\"filter_drops\":" << process_->filter_drops()
        << ",\"duplicates_suppressed\":" << process_->duplicates_suppressed()
        << "}";
  }
  if (shim_ != nullptr) {
    out << ",\"faults\":{\"dropped\":" << shim_->faults(sim::FaultKind::kDropped)
        << ",\"duplicated\":" << shim_->faults(sim::FaultKind::kDuplicated)
        << ",\"delayed\":" << shim_->faults(sim::FaultKind::kDelayed)
        << ",\"partitioned\":"
        << shim_->faults(sim::FaultKind::kPartitioned) << "}";
  }
  out << "}";
  return out.str();
}


void NodeRuntime::flush_log() {
  if (log_ != nullptr) std::fflush(log_);
}

}  // namespace congos::net
