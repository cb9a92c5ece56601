#include "net/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/fnv.h"
#include "replay/codec.h"

namespace congos::net {

namespace {

void put_bitset(replay::ByteWriter& w, const DynamicBitset& b) {
  w.u64(b.size());
  w.vec_u32(b.to_vector());
}

DynamicBitset get_bitset(replay::ByteReader& r) {
  const std::uint64_t universe = r.u64();
  const std::vector<std::uint32_t> idx = r.vec_u32();
  if (!r.ok()) return {};
  for (std::uint32_t i : idx) {
    if (i >= universe) {
      r.fail();
      return {};
    }
  }
  return DynamicBitset::from_indices(universe, idx);
}

void put_bytes(replay::ByteWriter& w, const std::vector<std::uint8_t>& v) {
  w.u64(v.size());
  for (std::uint8_t b : v) w.u8(b);
}

std::vector<std::uint8_t> get_bytes(replay::ByteReader& r) {
  const std::uint64_t n = r.u64();
  if (n > r.remaining()) {
    r.fail();
    return {};
  }
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = r.u8();
  return v;
}

bool set_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const NodeCheckpoint& ck) {
  replay::ByteWriter w;
  w.u64(kCheckpointMagic);
  w.u32(kCheckpointVersion);

  w.u32(ck.id);
  w.u64(ck.n);
  w.u64(ck.seed);
  w.u32(ck.tau);
  w.boolean(ck.allow_degenerate);
  w.boolean(ck.retransmit.enabled);
  w.u32(static_cast<std::uint32_t>(ck.retransmit.budget));
  w.i64(ck.retransmit.max_link_delay);
  w.i64(ck.max_rounds);

  w.u64(static_cast<std::uint64_t>(ck.epoch_ms));
  w.i64(ck.round_ms);

  w.i64(ck.round);
  w.u32(ck.resume_count);

  w.u64(ck.events.size());
  for (const CheckpointEvent& e : ck.events) {
    w.i64(e.round);
    w.u8(static_cast<std::uint8_t>(e.kind));
    if (e.kind == CheckpointEvent::Kind::kInject) {
      w.u64(e.seq);
      w.i64(e.deadline);
      put_bitset(w, e.dest);
      put_bytes(w, e.data);
    } else {
      put_bytes(w, e.frame);
    }
  }

  // Whole-file integrity trailer over everything written so far.
  const std::vector<std::uint8_t>& body = w.bytes();
  w.u64(fnv1a(body.data(), body.size()));
  return w.take();
}

bool decode_checkpoint(const std::uint8_t* data, std::size_t len,
                       NodeCheckpoint* out, std::string* error) {
  // The checksum gate runs first: anything shorter than the trailer, or
  // whose trailer disagrees with the body hash, is rejected before a single
  // field is interpreted.
  if (len < 8) return set_error(error, "state file truncated (no checksum)");
  const std::size_t body_len = len - 8;
  std::uint64_t stored = 0;
  for (int b = 0; b < 8; ++b) {
    stored |= static_cast<std::uint64_t>(data[body_len + b]) << (8 * b);
  }
  if (fnv1a(data, body_len) != stored) {
    return set_error(error, "state file checksum mismatch (corrupted)");
  }

  replay::ByteReader r(data, body_len);
  if (r.u64() != kCheckpointMagic) {
    return set_error(error, "not a congos_d state file (bad magic)");
  }
  const std::uint32_t version = r.u32();
  if (version != kCheckpointVersion) {
    return set_error(error, "unsupported state file version " + std::to_string(version));
  }

  NodeCheckpoint ck;
  ck.id = r.u32();
  ck.n = r.u64();
  ck.seed = r.u64();
  ck.tau = r.u32();
  ck.allow_degenerate = r.boolean();
  ck.retransmit.enabled = r.boolean();
  ck.retransmit.budget = static_cast<int>(r.u32());
  ck.retransmit.max_link_delay = r.i64();
  ck.max_rounds = r.i64();

  ck.epoch_ms = static_cast<std::int64_t>(r.u64());
  ck.round_ms = r.i64();

  ck.round = r.i64();
  ck.resume_count = r.u32();

  const std::uint64_t count = r.u64();
  Round prev = 0;
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    CheckpointEvent e;
    e.round = r.i64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(CheckpointEvent::Kind::kRecv)) {
      return set_error(error, "state file has unknown event kind");
    }
    e.kind = static_cast<CheckpointEvent::Kind>(kind);
    if (e.kind == CheckpointEvent::Kind::kInject) {
      e.seq = r.u64();
      e.deadline = r.i64();
      e.dest = get_bitset(r);
      e.data = get_bytes(r);
    } else {
      e.frame = get_bytes(r);
    }
    if (!r.ok()) break;
    // Semantic validation: the journal is an ordered history of one run.
    if (e.round < prev || e.round < 0) {
      return set_error(error, "state file journal rounds not monotone");
    }
    if (e.round > ck.round) {
      return set_error(error, "state file journal event past checkpoint round");
    }
    prev = e.round;
    ck.events.push_back(std::move(e));
  }
  if (!r.ok() || r.remaining() != 0) {
    return set_error(error, "state file truncated or malformed");
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
  const std::vector<std::uint8_t> bytes = encode_checkpoint(ck);
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return set_error(error, "cannot open '" + tmp + "': " + std::strerror(errno));
  }
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return set_error(error, "write '" + tmp + "': " + std::strerror(saved));
    }
    off += static_cast<std::size_t>(n);
  }
  // fsync before rename: the rename must never promote a file whose bytes
  // are still only in the page cache, or a machine crash could leave a
  // "complete" name pointing at torn contents.
  if (::fsync(fd) != 0) {
    const int saved = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return set_error(error, "fsync '" + tmp + "': " + std::strerror(saved));
  }
  if (::close(fd) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return set_error(error, "close '" + tmp + "': " + std::strerror(saved));
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::unlink(tmp.c_str());
    return set_error(error, "rename to '" + path + "': " + std::strerror(saved));
  }
  return true;
}

bool read_checkpoint_file(const std::string& path, NodeCheckpoint* out,
                          std::string* error) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return set_error(error, "cannot open state file '" + path + "'");
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  const bool read_ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!read_ok) {
    return set_error(error, "cannot read state file '" + path + "'");
  }
  return decode_checkpoint(bytes, out, error);
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
