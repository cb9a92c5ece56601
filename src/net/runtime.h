// NodeRuntime: one CONGOS process driven by a Transport instead of the
// lockstep simulator (DESIGN.md section 13).
//
// The runtime hosts an unmodified core::CongosProcess and reproduces the
// engine's per-round contract around it: send_phase(r) at the start of
// round r, receive_phase(r) at the round's end with every envelope that
// arrived during the round's wall-clock window. Outbound envelopes are
// framed with the versioned wire codec and coalesced into datagrams per
// destination (net/framing.h); inbound datagrams are split, decoded,
// checksum-verified and buffered as the next receive_phase's inbox. The
// driving loop - wall-clock boundaries in congos_d, explicit calls in the
// in-process tests - decides *when* rounds advance; the runtime only
// guarantees the protocol sees the same phase order it sees under
// sim::Engine.
//
// Every observable event (injection, application-level delivery, received
// frame) is appended to a key=value event log (net/control.h), which is
// what harness::ClusterRunner feeds to the QoD and confidentiality
// auditors after the run - the audits run on observed traffic, not on
// simulator introspection.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "congos/congos_process.h"
#include "net/checkpoint.h"
#include "net/fault_shim.h"
#include "net/framing.h"
#include "net/transport.h"
#include "sim/faults.h"
#include "wire/envelope.h"

namespace congos::net {

struct NodeConfig {
  ProcessId id = 0;
  std::size_t n = 0;
  std::uint64_t seed = 1;
  core::CongosConfig congos;
  /// Total rounds to run (horizon + drain); 0 = until stopped externally.
  Round max_rounds = 0;
  /// Event-log path; empty = no log (unit tests that audit in-process).
  std::string log_path;
  /// LZ4-compress coalesced outbound datagrams (net/framing.h container).
  /// Receivers always accept both plain and compressed datagrams, so nodes
  /// with different settings interoperate; start() fails when compression
  /// is requested but LZ4 is unavailable in this process.
  bool compress = false;
  /// Durable state file (net/checkpoint.h); empty = no file and no
  /// journal. When set, every state mutation is journaled, start() empties
  /// the file, and each save_checkpoint() appends the events since the
  /// previous save, so a SIGKILLed daemon can rejoin via resume(). Saved
  /// events leave memory.
  std::string state_path;
};

class NodeRuntime final : public sim::DeliveryListener {
 public:
  /// `transport` is not owned and must outlive the runtime. Pass `shim`
  /// when `transport` is (or wraps) a FaultShim so the runtime can advance
  /// its round clock; stats pick the fault counters up from there too.
  NodeRuntime(const NodeConfig& cfg, Transport* transport,
              FaultShim* shim = nullptr);
  ~NodeRuntime() override;

  NodeRuntime(const NodeRuntime&) = delete;
  NodeRuntime& operator=(const NodeRuntime&) = delete;

  /// Builds the process stack and runs round 0's send phase. Returns false
  /// (with *error) when the event log cannot be opened.
  bool start(std::string* error);
  bool started() const { return process_ != nullptr; }

  /// Rebuilds this node's state from a decoded checkpoint instead of
  /// start(): the journal is replayed through the same phase contract with
  /// outbound datagrams and event logging suppressed, which reproduces the
  /// exact pre-crash state (process, retransmission timers, pending inbox)
  /// because the protocol is deterministic in (seed, journal). The event
  /// log is reopened in append mode so pre-crash audit evidence survives,
  /// and a state file is rewritten whole with the resumed state (dropping
  /// any torn tail) before saves append to it again. Fails when the
  /// checkpoint's config binding does not match `cfg` - resuming under
  /// different flags would silently diverge.
  bool resume(const NodeCheckpoint& ck, std::string* error);

  /// Binds the shared RoundClock parameters stamped into checkpoints (the
  /// daemon calls this when the `start` command arrives); resume() uses it
  /// to reject state files from a different cluster run.
  void set_clock_binding(std::int64_t epoch_ms, std::int64_t round_ms);

  /// Current state as a checkpoint value (config + clock binding + the
  /// events journaled since the last save). A node journals only when it
  /// has a state file, so without one the view holds no events;
  /// read_checkpoint_file() returns a node's whole history.
  NodeCheckpoint make_checkpoint() const;

  /// Appends the events journaled since the previous save to
  /// cfg.state_path as one batch and fsyncs; the save counts only once the
  /// fsync returns. Costs the events since the last save, not the history.
  bool save_checkpoint(std::string* error);

  /// Journal events held in memory: the events since the last save (none
  /// without a state file).
  std::size_t journal_events() const { return journal_.size(); }

  Round now() const { return now_; }
  bool done() const { return cfg_.max_rounds > 0 && now_ >= cfg_.max_rounds; }

  /// Feed one received datagram (any number of frames) into the pending
  /// inbox. Safe to call between ticks only (single-threaded loop).
  void handle_datagram(ProcessId from_hint, std::span<const std::uint8_t> datagram);

  /// Run round boundaries until now() == min(target, max_rounds): each tick
  /// closes the current round (receive_phase over the buffered inbox) and
  /// opens the next (send_phase). Catch-up after a stall processes every
  /// skipped round individually - protocols see all their scheduled rounds.
  void advance_to(Round target);

  /// Inject a rumor sourced at this node (stamps injected_at = now()).
  /// Returns false, injecting and logging nothing, unless `dest` has
  /// exactly n bits (net::validate_inject).
  bool inject(std::uint64_t seq, Round deadline, DynamicBitset dest,
              std::vector<std::uint8_t> data);

  // -- health / stats ---------------------------------------------------------

  std::uint64_t frames_received() const { return frames_received_; }
  std::uint64_t decode_errors() const { return decode_errors_; }
  std::uint64_t malformed_datagrams() const { return malformed_datagrams_; }
  std::uint64_t encode_errors() const { return encode_errors_; }
  std::uint64_t deliveries() const { return deliveries_; }
  std::uint64_t injections() const { return injections_; }
  std::uint64_t datagrams_compressed() const { return datagrams_compressed_; }
  std::uint64_t compressed_received() const { return compressed_received_; }
  std::uint64_t unsupported_datagrams() const { return unsupported_datagrams_; }

  /// Resumes this incarnation chain has been through (0 = first boot).
  std::uint32_t resume_count() const { return resume_count_; }
  /// Round this incarnation came up at (0 on a fresh start).
  Round resumed_at() const { return resumed_at_; }
  std::uint64_t checkpoint_writes() const { return checkpoint_writes_; }
  /// Round of the last successful save_checkpoint(), or -1 when none.
  Round last_checkpoint_round() const { return last_checkpoint_round_; }
  /// Peer liveness: last round an accepted frame arrived from each peer
  /// (kNoRound = never heard). The supervisor reads this out of stats JSON
  /// to tell a resumed peer from a silent one.
  const std::vector<Round>& last_heard() const { return last_heard_; }

  /// Local invariants that must hold on a healthy node: every frame decoded,
  /// no unencodable payloads, no group-filter drops in the gossip stack.
  bool healthy() const;

  /// One-line stats JSON (the daemon's stats dump / `stats` control reply).
  std::string stats_json() const;

  /// Flushes the event log to disk (the daemon calls this per round).
  void flush_log();

  // -- sim::DeliveryListener --------------------------------------------------
  void on_rumor_delivered(ProcessId at, const RumorUid& uid, Round when,
                          std::span<const std::uint8_t> data) override;

 private:
  class PhaseSender;

  void tick();
  void run_send_phase();
  /// Final hop of one outbound datagram: optional LZ4 wrap, then the
  /// transport takes the handle (zero copy all the way to the socket).
  /// No-op while replaying a checkpoint journal (the bytes already went
  /// over the wire in the previous incarnation).
  void ship(ProcessId to, DatagramHandle d);
  /// Writes one event-log line, built by `append(std::string*)` in a
  /// reused buffer; no-op without a log or while replaying a journal.
  template <class Append>
  void log_event(Append&& append);
  /// Shared start()/resume() setup: log file, partitions, process stack.
  bool boot(const char* log_mode, std::string* error);
  /// Re-applies one journaled mutation at its original round during resume.
  void apply_journal_event(const CheckpointEvent& e);
  /// Config + clock binding and progress, without events.
  NodeCheckpoint binding() const;

  NodeConfig cfg_;
  Transport* transport_;
  FaultShim* shim_;
  std::shared_ptr<const core::CongosConfig> ccfg_;
  std::shared_ptr<const partition::PartitionSet> partitions_;
  std::unique_ptr<core::CongosProcess> process_;
  Round now_ = 0;
  std::vector<sim::Envelope> inbox_;
  std::vector<DatagramBuilder> builders_;  // one per destination, reused
  /// Backs the builders' datagram buffers; warm after the first rounds, so
  /// steady-state sends allocate nothing (tests/test_net_alloc.cpp).
  DatagramPool dgram_pool_;
  std::vector<std::uint8_t> compress_scratch_;
  std::vector<std::uint8_t> decompress_scratch_;
  std::FILE* log_ = nullptr;
  std::string line_;
  /// Gossip rumors this node has decoded, so a re-pushed rumor is taken
  /// from here instead of decoded again; expired once per round.
  gossip::RumorDecodeMemo rumor_memo_;
  /// The last body the send phase encoded; released when the phase ends.
  wire::BodyEncodeMemo encode_memo_;

  std::uint64_t frames_received_ = 0;
  std::uint64_t decode_errors_ = 0;
  std::uint64_t malformed_datagrams_ = 0;
  std::uint64_t misrouted_ = 0;
  std::uint64_t encode_errors_ = 0;
  std::uint64_t deliveries_ = 0;
  std::uint64_t injections_ = 0;
  std::uint64_t datagrams_compressed_ = 0;
  std::uint64_t compressed_received_ = 0;
  /// Compressed datagrams dropped because this process lacks LZ4; nonzero
  /// means a capability mismatch in the cluster - flagged unhealthy.
  std::uint64_t unsupported_datagrams_ = 0;

  // -- crash/restart survival (DESIGN.md section 14) --------------------------
  /// Ordered state mutations (injections and accepted frames) the state
  /// file does not hold yet; kept only when there is a state file. Journal
  /// plus state file *is* the durable state.
  std::vector<CheckpointEvent> journal_;
  CheckpointLog state_;
  /// True while resume() re-runs the journal: sends and log lines are
  /// suppressed, everything else executes exactly as it did live.
  bool replaying_ = false;
  std::uint32_t resume_count_ = 0;
  Round resumed_at_ = 0;
  std::uint64_t checkpoint_writes_ = 0;
  Round last_checkpoint_round_ = -1;
  bool clock_bound_ = false;
  std::int64_t epoch_ms_ = 0;
  std::int64_t round_ms_ = 0;
  std::vector<Round> last_heard_;
};

}  // namespace congos::net
