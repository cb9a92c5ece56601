#include "net/control.h"

#include <array>
#include <charconv>
#include <cstring>
#include <sstream>

#include "wire/wire.h"

namespace congos::net {

namespace {
constexpr char kHexDigits[] = "0123456789abcdef";

/// The two hex digits of every byte value, back to back.
constexpr std::array<char, 512> kHexPairs = [] {
  std::array<char, 512> t{};
  for (std::size_t b = 0; b < 256; ++b) {
    t[2 * b] = kHexDigits[b >> 4];
    t[2 * b + 1] = kHexDigits[b & 0xF];
  }
  return t;
}();

/// Largest id an event line may name (kNoProcess is not a process).
constexpr std::int64_t kMaxProcessId = std::int64_t{kNoProcess} - 1;

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

template <class Int>
void append_int(std::string* out, Int v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

void append_bitset_hex(std::string* out, const DynamicBitset& b) {
  wire::WriteSink s;
  s.bitset(b);
  append_hex(out, s.data());
}
}  // namespace

void append_hex(std::string* out, std::span<const std::uint8_t> bytes) {
  const std::size_t at = out->size();
  out->resize(at + 2 * bytes.size());
  char* p = out->data() + at;
  for (const std::uint8_t b : bytes) {
    std::memcpy(p, &kHexPairs[2 * std::size_t{b}], 2);
    p += 2;
  }
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string out;
  append_hex(&out, bytes);
  return out;
}

bool from_hex(const std::string& hex, std::vector<std::uint8_t>* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_val(hex[i]);
    const int lo = hex_val(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<std::uint8_t>((hi << 4) | lo));
  }
  return true;
}

std::string bitset_to_hex(const DynamicBitset& b) {
  std::string out;
  append_bitset_hex(&out, b);
  return out;
}

bool bitset_from_hex(const std::string& hex, DynamicBitset* out) {
  std::vector<std::uint8_t> bytes;
  if (!from_hex(hex, &bytes)) return false;
  wire::ReadSink s(bytes);
  s.bitset(*out);
  return s.ok() && s.remaining() == 0;
}

std::int64_t Line::get_int(const std::string& key, bool* ok) const {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    *ok = false;
    return 0;
  }
  std::int64_t v = 0;
  const auto [ptr, ec] = std::from_chars(
      it->second.data(), it->second.data() + it->second.size(), v);
  if (ec != std::errc{} || ptr != it->second.data() + it->second.size()) {
    *ok = false;
    return 0;
  }
  return v;
}

std::string Line::get(const std::string& key, bool* ok) const {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    *ok = false;
    return {};
  }
  return it->second;
}

bool parse_line(const std::string& text, Line* out) {
  out->verb.clear();
  out->kv.clear();
  std::istringstream in(text);
  if (!(in >> out->verb)) return false;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return false;
    // A repeated key is ambiguous, not a later value winning.
    if (!out->kv.emplace(token.substr(0, eq), token.substr(eq + 1)).second) {
      return false;
    }
  }
  return true;
}

std::string encode_start(const StartCommand& cmd) {
  std::ostringstream out;
  out << "start epoch=" << cmd.epoch_ms << " round-ms=" << cmd.round_ms
      << " peers=";
  for (std::size_t i = 0; i < cmd.peer_ports.size(); ++i) {
    if (i > 0) out << ',';
    out << cmd.peer_ports[i];
  }
  return out.str();
}

bool parse_start(const Line& line, StartCommand* out, std::string* error) {
  bool ok = true;
  out->epoch_ms = line.get_int("epoch", &ok);
  out->round_ms = line.get_int("round-ms", &ok);
  const std::string peers = line.get("peers", &ok);
  if (!ok || line.verb != "start" || out->round_ms <= 0) {
    if (error != nullptr) *error = "bad start command";
    return false;
  }
  out->peer_ports.clear();
  std::size_t pos = 0;
  while (pos <= peers.size()) {
    const std::size_t comma = peers.find(',', pos);
    const std::string part =
        peers.substr(pos, comma == std::string::npos ? comma : comma - pos);
    unsigned v = 0;
    const auto [ptr, ec] =
        std::from_chars(part.data(), part.data() + part.size(), v);
    if (ec != std::errc{} || ptr != part.data() + part.size() || v == 0 ||
        v > 65535) {
      if (error != nullptr) *error = "bad peer port '" + part + "'";
      return false;
    }
    out->peer_ports.push_back(static_cast<std::uint16_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

std::string encode_inject(const InjectCommand& cmd) {
  std::ostringstream out;
  out << "inject seq=" << cmd.seq << " deadline=" << cmd.deadline
      << " dest=" << bitset_to_hex(cmd.dest) << " data=" << to_hex(cmd.data);
  return out.str();
}

bool parse_inject(const Line& line, InjectCommand* out, std::string* error) {
  bool ok = true;
  const std::int64_t seq = line.get_int("seq", &ok);
  out->seq = static_cast<std::uint64_t>(seq);
  out->deadline = line.get_int("deadline", &ok);
  const std::string dest = line.get("dest", &ok);
  const std::string data = line.get("data", &ok);
  if (!ok || line.verb != "inject" || seq < 0 || out->deadline <= 0 ||
      !bitset_from_hex(dest, &out->dest) || !from_hex(data, &out->data)) {
    if (error != nullptr) *error = "bad inject command";
    return false;
  }
  return true;
}

bool validate_inject(const InjectCommand& cmd, std::size_t n,
                     std::string* error) {
  if (cmd.dest.size() == n) return true;
  if (error != nullptr) {
    *error = "dest has " + std::to_string(cmd.dest.size()) +
             " bits, expected n=" + std::to_string(n);
  }
  return false;
}

void append_inject_event(std::string* out, Round round,
                         const sim::Rumor& rumor) {
  out->append("inject round=");
  append_int(out, round);
  out->append(" src=");
  append_int(out, rumor.uid.source);
  out->append(" seq=");
  append_int(out, rumor.uid.seq);
  out->append(" deadline=");
  append_int(out, rumor.deadline);
  out->append(" dest=");
  append_bitset_hex(out, rumor.dest);
  out->append(" data=");
  append_hex(out, rumor.data);
}

void append_deliver_event(std::string* out, Round round, ProcessId at,
                          const RumorUid& uid,
                          std::span<const std::uint8_t> data) {
  out->append("deliver round=");
  append_int(out, round);
  out->append(" at=");
  append_int(out, at);
  out->append(" src=");
  append_int(out, uid.source);
  out->append(" seq=");
  append_int(out, uid.seq);
  out->append(" data=");
  append_hex(out, data);
}

void append_recv_event(std::string* out, Round round,
                       std::span<const std::uint8_t> frame) {
  out->append("recv round=");
  append_int(out, round);
  out->append(" frame=");
  append_hex(out, frame);
}

bool parse_inject_event(const Line& line, sim::Rumor* out, Round* round,
                        std::string* error) {
  bool ok = true;
  *round = line.get_int("round", &ok);
  const std::int64_t src = line.get_int("src", &ok);
  const std::int64_t seq = line.get_int("seq", &ok);
  out->uid.source = static_cast<ProcessId>(src);
  out->uid.seq = static_cast<std::uint64_t>(seq);
  out->deadline = line.get_int("deadline", &ok);
  const std::string dest = line.get("dest", &ok);
  const std::string data = line.get("data", &ok);
  if (!ok || line.verb != "inject" || src < 0 || src > kMaxProcessId ||
      seq < 0 || !bitset_from_hex(dest, &out->dest) ||
      !from_hex(data, &out->data)) {
    if (error != nullptr) *error = "bad inject event";
    return false;
  }
  out->injected_at = *round;
  return true;
}

}  // namespace congos::net
