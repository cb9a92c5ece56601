#include "net/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/assert.h"
#include "common/fnv.h"
#include "replay/codec.h"
#include "wire/wire.h"

namespace congos::net {

namespace {

/// Length pair in front of each batch body, and the trailer behind it.
constexpr std::size_t kBatchLengthBytes = 16;
constexpr std::size_t kBatchTrailerBytes = 8;
/// Body fields ahead of the events: round, resume_count, event count.
constexpr std::size_t kBatchFieldBytes = 8 + 4 + 8;
static_assert(kCheckpointBatchOverhead ==
              kBatchLengthBytes + kBatchFieldBytes + kBatchTrailerBytes);

// Field walks (replay/codec.h): each record lists its fields once, for
// both ByteWriter and ByteReader.

/// A bitset as its universe and its sorted member indices.
template <class S, wire::SameBase<DynamicBitset> B>
void fields(S& s, B& b) {
  std::uint64_t universe = b.size();
  std::vector<std::uint32_t> idx;
  if constexpr (!S::kReading) idx = b.to_vector();
  s.u64(universe);
  s.vec_u32(idx);
  if constexpr (S::kReading) {
    for (std::uint32_t i : idx) {
      if (i >= universe) s.fail();
    }
    if (s.ok()) b = DynamicBitset::from_indices(universe, idx);
  }
}

template <class S, wire::SameBase<CheckpointEvent> E>
void fields(S& s, E& e) {
  s.i64(e.round);
  s.enum8(e.kind, CheckpointEvent::Kind::kRecv);
  if (e.kind == CheckpointEvent::Kind::kInject) {
    s.u64(e.seq);
    s.i64(e.deadline);
    fields(s, e.dest);
    s.bytes(e.data);
  } else {
    s.bytes(e.frame);
  }
}

/// The header behind magic and version: the config and clock binding.
/// Progress (round, resume_count, events) lives in the batches.
template <class S, wire::SameBase<NodeCheckpoint> C>
void fields(S& s, C& ck) {
  s.u32(ck.id);
  s.u64(ck.n);
  s.u64(ck.seed);
  s.u32(ck.tau);
  s.boolean(ck.allow_degenerate);
  s.boolean(ck.retransmit.enabled);
  s.i32(ck.retransmit.budget);
  s.i64(ck.retransmit.max_link_delay);
  s.i64(ck.max_rounds);
  s.i64(ck.epoch_ms);
  s.i64(ck.round_ms);
}

/// The body fields of a batch ahead of its events.
struct BatchHead {
  Round round = 0;
  std::uint32_t resume_count = 0;
  std::uint64_t events = 0;
};

template <class S, wire::SameBase<BatchHead> H>
void fields(S& s, H& h) {
  s.i64(h.round);
  s.u32(h.resume_count);
  s.u64(h.events);
}

/// Encoded size of one event, so a batch is reserved in one allocation.
std::size_t event_bytes(const CheckpointEvent& e) {
  std::size_t bytes = 8 + 1;  // round, kind
  if (e.kind == CheckpointEvent::Kind::kInject) {
    // seq, deadline, bitset (universe, index count, u32 indices), data
    bytes += 8 + 8 + 16 + 4 * e.dest.count() + 8 + e.data.size();
  } else {
    bytes += 8 + e.frame.size();
  }
  return bytes;
}

void append_header(replay::ByteWriter& w, const NodeCheckpoint& ck) {
  w.u64(kCheckpointMagic);
  w.u32(kCheckpointVersion);
  fields(w, ck);
  CONGOS_ASSERT(w.bytes().size() == kCheckpointHeaderBytes);
}

/// Appends one batch to `w`; its trailer continues `header_fnv`, which
/// binds every batch to the header it was written under.
void append_batch(replay::ByteWriter& w, std::uint64_t header_fnv, Round round,
                  std::uint32_t resume_count, std::span<const CheckpointEvent> events) {
  std::size_t body = kBatchFieldBytes;
  for (const CheckpointEvent& e : events) body += event_bytes(e);
  const std::size_t start = w.bytes().size();
  w.reserve(start + kBatchLengthBytes + body + kBatchTrailerBytes);
  w.u64(body);
  w.u64(~static_cast<std::uint64_t>(body));
  const BatchHead head{round, resume_count, events.size()};
  fields(w, head);
  for (const CheckpointEvent& e : events) fields(w, e);
  CONGOS_ASSERT(w.bytes().size() == start + kBatchLengthBytes + body);
  w.u64(fnv1a(w.bytes().data() + start, kBatchLengthBytes + body, header_fnv));
}

/// Header plus one batch holding `events`.
std::vector<std::uint8_t> encode_whole(const NodeCheckpoint& at,
                                       std::span<const CheckpointEvent> events) {
  replay::ByteWriter w;
  append_header(w, at);
  const std::uint64_t header_fnv = fnv1a(w.bytes().data(), w.bytes().size());
  append_batch(w, header_fnv, at.round, at.resume_count, events);
  return w.take();
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int b = 0; b < 8; ++b) v |= static_cast<std::uint64_t>(p[b]) << (8 * b);
  return v;
}

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

bool set_errno_error(std::string* error, const std::string& what, int err) {
  return set_error(error, what + ": " + std::strerror(err));
}

/// pwrite() all of `len` bytes at `offset`, riding out short writes.
bool write_at(int fd, const std::uint8_t* data, std::size_t len, std::uint64_t offset) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n = ::pwrite(fd, data + done, len - done,
                               static_cast<off_t>(offset + done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<std::size_t>(n);
  }
  return true;
}

/// Write-temp, fsync, rename: a crash mid-write leaves the previous file
/// (or nothing), never a torn one.
bool write_file_atomically(const std::string& path,
                           const std::vector<std::uint8_t>& bytes,
                           std::string* error) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return set_errno_error(error, "cannot open '" + tmp + "'", errno);
  if (!write_at(fd, bytes.data(), bytes.size(), 0)) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return set_errno_error(error, "write '" + tmp + "'", saved);
  }
  // fsync before rename: the rename must never promote a file whose bytes
  // are still only in the page cache, or a machine crash could leave a
  // "complete" name pointing at torn contents.
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return set_errno_error(error, "fsync '" + tmp + "'", saved);
  }
  if (::close(fd) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return set_errno_error(error, "close '" + tmp + "'", saved);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return set_errno_error(error, "rename to '" + path + "'", saved);
  }
  return true;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const NodeCheckpoint& ck) {
  return encode_whole(ck, ck.events);
}

bool decode_checkpoint(const std::uint8_t* data, std::size_t len,
                       NodeCheckpoint* out, std::string* error) {
  if (len < kCheckpointHeaderBytes) {
    return set_error(error, "state file truncated (no complete header)");
  }
  replay::ByteReader h(data, kCheckpointHeaderBytes);
  if (h.u64() != kCheckpointMagic) {
    return set_error(error, "not a congos_d state file (bad magic)");
  }
  const std::uint32_t version = h.u32();
  if (version != kCheckpointVersion) {
    return set_error(error, "unsupported state file version " + std::to_string(version));
  }

  // The binding is read here but trusted only once a batch checksum - which
  // covers the header - has verified it.
  NodeCheckpoint ck;
  fields(h, ck);
  CONGOS_ASSERT(h.ok() && h.remaining() == 0);
  const std::uint64_t header_fnv = fnv1a(data, kCheckpointHeaderBytes);

  std::size_t off = kCheckpointHeaderBytes;
  std::size_t batches = 0;
  Round prev = 0;
  while (off < len) {
    const std::size_t left = len - off;
    if (left < kBatchLengthBytes) break;  // torn inside the length pair
    const std::uint64_t body = load_u64(data + off);
    if (load_u64(data + off + 8) != ~body) {
      // A torn append leaves a prefix of correct bytes, so a complete but
      // inconsistent length pair is damage, wherever it sits.
      return set_error(error, "state file batch length corrupted");
    }
    const std::size_t framing = kBatchLengthBytes + kBatchTrailerBytes;
    if (left < framing || body > left - framing) break;  // short final batch
    const std::size_t sealed = kBatchLengthBytes + static_cast<std::size_t>(body);
    const std::size_t end = off + sealed + kBatchTrailerBytes;
    if (fnv1a(data + off, sealed, header_fnv) != load_u64(data + off + sealed)) {
      if (end == len) break;  // bad final batch: a torn tail
      return set_error(error, "state file checksum mismatch (corrupted)");
    }

    // The batch is sealed; now validate what it says.
    replay::ByteReader r(data + off + kBatchLengthBytes, static_cast<std::size_t>(body));
    BatchHead head;
    fields(r, head);
    const Round round = head.round;
    if (batches > 0 && (round < ck.round || head.resume_count < ck.resume_count)) {
      return set_error(error, "state file batch rounds not monotone");
    }
    for (std::uint64_t i = 0; i < head.events && r.ok(); ++i) {
      CheckpointEvent e;
      fields(r, e);
      if (!r.ok()) break;
      // Semantic validation: the journal is an ordered history of one run.
      if (e.round < prev || e.round < 0) {
        return set_error(error, "state file journal rounds not monotone");
      }
      if (e.round > round) {
        return set_error(error, "state file journal event past checkpoint round");
      }
      prev = e.round;
      ck.events.push_back(std::move(e));
    }
    if (!r.ok() || r.remaining() != 0) {
      return set_error(error, "state file batch malformed");
    }
    // Later events may not predate this save: it was taken at `round`.
    prev = round;
    ck.round = round;
    ck.resume_count = head.resume_count;
    ++batches;
    off = end;
  }
  if (batches == 0) {
    return set_error(error, "state file truncated or corrupted (no complete batch)");
  }
  if (ck.n == 0 || ck.id >= ck.n || ck.round < 0 || ck.round_ms <= 0) {
    return set_error(error, "state file config binding out of range");
  }
  if (ck.max_rounds > 0 && ck.round > ck.max_rounds) {
    return set_error(error, "state file round past max_rounds");
  }
  *out = std::move(ck);
  return true;
}

bool decode_checkpoint(const std::vector<std::uint8_t>& bytes, NodeCheckpoint* out,
                       std::string* error) {
  return decode_checkpoint(bytes.data(), bytes.size(), out, error);
}

bool write_checkpoint_file(const std::string& path, const NodeCheckpoint& ck,
                           std::string* error) {
  return write_file_atomically(path, encode_checkpoint(ck), error);
}

bool read_checkpoint_file(const std::string& path, NodeCheckpoint* out,
                          std::string* error) {
  std::vector<std::uint8_t> bytes;
  return replay::read_whole_file(path, &bytes, error) &&
         decode_checkpoint(bytes, out, error);
}

CheckpointLog::~CheckpointLog() {
  if (fd_ >= 0) ::close(fd_);
}

bool CheckpointLog::create(const std::string& path, std::string* error) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  size_ = 0;
  dirty_tail_ = false;
  if (fd_ < 0) return set_errno_error(error, "cannot open '" + path + "'", errno);
  return true;
}

bool CheckpointLog::rewrite(const std::string& path, const NodeCheckpoint& at,
                            std::span<const CheckpointEvent> events,
                            std::string* error) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  const std::vector<std::uint8_t> bytes = encode_whole(at, events);
  if (!write_file_atomically(path, bytes, error)) return false;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd_ < 0) return set_errno_error(error, "cannot reopen '" + path + "'", errno);
  size_ = bytes.size();
  header_fnv_ = fnv1a(bytes.data(), kCheckpointHeaderBytes);
  dirty_tail_ = false;
  return true;
}

bool CheckpointLog::append(const NodeCheckpoint& at,
                           std::span<const CheckpointEvent> events,
                           std::string* error) {
  if (fd_ < 0) return set_error(error, "state file is not open");
  if (dirty_tail_) {
    if (::ftruncate(fd_, static_cast<off_t>(size_)) != 0) {
      return set_errno_error(error, "cannot cut the torn state file tail", errno);
    }
    dirty_tail_ = false;
  }
  replay::ByteWriter w;
  if (size_ == 0) {
    append_header(w, at);
    header_fnv_ = fnv1a(w.bytes().data(), w.bytes().size());
  }
  append_batch(w, header_fnv_, at.round, at.resume_count, events);
  const std::vector<std::uint8_t>& bytes = w.bytes();
  // The batch counts as saved only once fsync returns: a crash before that
  // leaves at worst a torn tail, which readers drop.
  if (!write_at(fd_, bytes.data(), bytes.size(), size_) || ::fsync(fd_) != 0) {
    const int saved = errno;
    dirty_tail_ = ::ftruncate(fd_, static_cast<off_t>(size_)) != 0;
    return set_errno_error(error, "append to state file", saved);
  }
  size_ += bytes.size();
  return true;
}

bool validate_checkpoint_clock(const NodeCheckpoint& ck, std::int64_t epoch_ms,
                               std::int64_t round_ms, std::string* error) {
  if (ck.epoch_ms != epoch_ms) {
    return set_error(error,
                     "stale state file: epoch " + std::to_string(ck.epoch_ms) +
                         " does not match cluster epoch " + std::to_string(epoch_ms));
  }
  if (ck.round_ms != round_ms) {
    return set_error(error,
                     "stale state file: round-ms " + std::to_string(ck.round_ms) +
                         " does not match cluster round-ms " + std::to_string(round_ms));
  }
  return true;
}

}  // namespace congos::net
