// Durable daemon checkpoints: the on-disk state file behind congos_d
// --state/--resume (DESIGN.md section 14).
//
// The file does not serialize the service stack field by field. A
// CongosProcess is deterministic in (seed, injection sequence, per-round
// inbox contents) - the exact property PR 3's replay subsystem proves and
// the golden traces pin - so the checkpoint stores those *inputs* instead:
// the node's config binding, the shared RoundClock epoch, and the ordered
// journal of every event that mutated the process (rumor injections and
// accepted envelope frames, stamped with the runtime round they happened
// in). NodeRuntime::resume() reconstructs the live state by re-running the
// engine phase contract over the journal with outbound datagrams and event
// logging suppressed; the result is byte-identical to the state at the
// checkpoint round, including the partially buffered inbox of the round in
// progress (tests/test_checkpoint.cpp pins this over a SimLink cluster).
//
// Confidentiality by construction: the journal holds exactly the bytes the
// process legitimately held - its own injected rumors (it is their source)
// and the envelope frames addressed to it that already crossed the wire.
// A curious reader of the file learns nothing a wiretap of that node's
// inbound link plus its own injections would not reveal, which is what the
// cluster auditor re-checks offline by replaying every checkpointed frame
// through the confidentiality auditor (harness/cluster.cpp).
//
// File layout (replay/codec.h conventions: little-endian, length-prefixed,
// fully bounds-checked reader; the binding, batch head and event records
// are each one field walk in checkpoint.cpp). The file is an append-only
// journal: each save appends one batch holding only the events since the
// previous save.
//
//   header (kCheckpointHeaderBytes):
//     u64 magic "CGDSTATE", u32 version (kCheckpointVersion),
//     config binding + clock binding (see NodeCheckpoint)
//   then per batch (kCheckpointBatchOverhead bytes plus its events):
//     u64 body length L, u64 ~L (a torn write leaves the pair short or
//                                 intact, never inconsistent)
//     L-byte body: i64 round reached, u32 resume_count,
//                  u64 event count, then per event: i64 round, u8 kind, fields
//     u64 FNV-1a over header ++ length pair ++ body
//
// A decoded file is the concatenation of its batches: every batch's events,
// and the round and resume_count of the last one. The reader tells a torn
// tail from corruption by position. A short or checksum-bad *final* batch
// is what a crash mid-append leaves, so the state as of the batch before it
// is returned. A bad batch with more bytes after it, or a length pair
// whose halves disagree, is corruption and the file is rejected, as is a
// file with no complete batch. An unknown version is rejected up front;
// checksummed batches are then validated: unknown event kinds,
// non-monotone event or batch rounds, and events past their batch's round
// are rejected - a corrupted or tampered state file degrades into a clean
// load error, never into a trusted resume.
// Staleness (a file from a different cluster run) is caught by
// validate_checkpoint_clock(): the shared epoch the runner distributes must
// match the one the file was written under.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "common/types.h"
#include "congos/config.h"

namespace congos::net {

inline constexpr std::uint64_t kCheckpointMagic = 0x4554415453444743ull;  // "CGDSTATE"
/// Version 2: the append-only batch layout above (version 1 was one
/// whole-file record with a single trailing checksum).
inline constexpr std::uint32_t kCheckpointVersion = 2;
/// Fixed size of the header: magic, version, config and clock binding.
inline constexpr std::size_t kCheckpointHeaderBytes = 74;
/// Bytes a batch adds beyond its encoded events: length pair, round,
/// resume_count, event count and checksum trailer.
inline constexpr std::size_t kCheckpointBatchOverhead = 44;

/// One journaled state mutation, in the order it happened.
struct CheckpointEvent {
  enum class Kind : std::uint8_t { kInject = 0, kRecv = 1 };

  Round round = 0;
  Kind kind = Kind::kInject;

  // kInject: one locally sourced rumor (seq/deadline/dest/data).
  std::uint64_t seq = 0;
  Round deadline = 0;
  DynamicBitset dest;
  std::vector<std::uint8_t> data;

  // kRecv: one accepted envelope frame, verbatim wire bytes.
  std::vector<std::uint8_t> frame;

  friend bool operator==(const CheckpointEvent&, const CheckpointEvent&) = default;
};

struct NodeCheckpoint {
  // -- config binding: a resume must match the daemon's own flags ------------
  ProcessId id = 0;
  std::uint64_t n = 0;
  std::uint64_t seed = 0;
  std::uint32_t tau = 0;
  bool allow_degenerate = true;
  core::RetransmitConfig retransmit;
  Round max_rounds = 0;

  // -- clock binding: rejects state files from a different cluster run -------
  std::int64_t epoch_ms = 0;
  std::int64_t round_ms = 0;

  // -- progress ---------------------------------------------------------------
  /// Runtime round the checkpoint was taken at: send_phase(round) has run,
  /// receive_phase(round) has not; kRecv events at `round` are the pending
  /// inbox.
  Round round = 0;
  /// Resumes this state has already been through (0 on first incarnation).
  std::uint32_t resume_count = 0;

  std::vector<CheckpointEvent> events;

  friend bool operator==(const NodeCheckpoint&, const NodeCheckpoint&) = default;
};

/// Serializes `ck` whole: the header plus one batch holding every event.
std::vector<std::uint8_t> encode_checkpoint(const NodeCheckpoint& ck);

/// Strict parse + validation of a whole file; returns the concatenation of
/// its batches (a torn final batch is dropped, see the layout above). On
/// failure *error says what was rejected.
bool decode_checkpoint(const std::uint8_t* data, std::size_t len,
                       NodeCheckpoint* out, std::string* error);
bool decode_checkpoint(const std::vector<std::uint8_t>& bytes, NodeCheckpoint* out,
                       std::string* error);

/// Atomic durable whole-file write: encode_checkpoint(ck) lands in
/// `path + ".tmp"`, is fsynced, then renamed over `path`, so a crash
/// mid-write leaves the previous file (or nothing), never a torn one.
bool write_checkpoint_file(const std::string& path, const NodeCheckpoint& ck,
                           std::string* error);

/// Reads and fully validates `path`.
bool read_checkpoint_file(const std::string& path, NodeCheckpoint* out,
                          std::string* error);

/// The open state file of one running node. Each append() adds one batch
/// and fsyncs, so a save costs the events since the previous one, not the
/// whole history.
class CheckpointLog {
 public:
  CheckpointLog() = default;
  ~CheckpointLog();
  CheckpointLog(const CheckpointLog&) = delete;
  CheckpointLog& operator=(const CheckpointLog&) = delete;

  /// Fresh start: opens `path` emptied, discarding any stale file. The
  /// first append() writes the header in front of its batch.
  bool create(const std::string& path, std::string* error);

  /// Resume: atomically replaces `path` with the whole resumed state - the
  /// header plus one batch holding `events` at `at.round` - the way
  /// write_checkpoint_file does, and opens it for appending. The rewrite
  /// drops any torn tail before the first append lands behind it.
  bool rewrite(const std::string& path, const NodeCheckpoint& at,
               std::span<const CheckpointEvent> events, std::string* error);

  /// Appends one batch holding `events`, stamped with `at.round` and
  /// `at.resume_count` (`at.events` is not read), and fsyncs before
  /// returning true. `at`'s binding fills the header while the file is
  /// still empty. On failure the file is cut back to its last durable size,
  /// so a retry never lands behind a torn batch.
  bool append(const NodeCheckpoint& at, std::span<const CheckpointEvent> events,
              std::string* error);

  /// Durable bytes in the file: everything up to the last successful append.
  std::uint64_t size() const { return size_; }

 private:
  int fd_ = -1;
  std::uint64_t size_ = 0;
  /// FNV-1a state over the file's header; every batch trailer continues it.
  std::uint64_t header_fnv_ = 0;
  /// A failed append may have left bytes past size_ that could not be cut.
  bool dirty_tail_ = false;
};

/// Staleness gate: true iff the file was written under the same shared
/// RoundClock the cluster runner just distributed. A mismatch means the
/// state belongs to an earlier run and must not be rejoined.
bool validate_checkpoint_clock(const NodeCheckpoint& ck, std::int64_t epoch_ms,
                               std::int64_t round_ms, std::string* error);

}  // namespace congos::net
