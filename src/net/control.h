// congos_d control protocol and event-log line format (DESIGN.md
// section 13).
//
// Both are single text lines of `verb key=value ...` - trivially greppable
// when a cluster run goes wrong, and parsed by the same helpers on both
// sides. The control channel is a second UDP socket on 127.0.0.1: the
// cluster runner sends commands, the daemon acks each one (`ok <verb>`)
// so the runner can retry a lost command instead of hanging.
//
//   start epoch=<wall ms> round-ms=<ms> peers=<port0,port1,...>
//   inject seq=<q> deadline=<rounds> dest=<hex bitset> data=<hex bytes>
//   stats          -> daemon replies with its stats JSON line
//   stop           -> daemon finishes the current round, dumps stats, exits
//
// The daemon's event log reuses the same encoding, one line per event:
//
//   inject round=<r> src=<p> seq=<q> deadline=<d> dest=<hex> data=<hex>
//   deliver round=<r> at=<p> src=<p> seq=<q> data=<hex>
//   recv round=<r> frame=<hex envelope frame>
//
// `recv` lines are the observed traffic: every envelope frame the daemon
// decoded, re-hexed verbatim, which is what lets the cluster runner replay
// the traffic through the confidentiality auditor offline. Bitsets are
// hex of their canonical wire encoding (wire::WriteSink::bitset), so the
// destination set round-trips exactly.
//
// The cluster runner's <workdir>/lifecycle.log uses the same
// `verb key=value` encoding for crash/restart supervision (DESIGN.md
// section 14); these lines feed the QoD auditor's continuously-alive
// admissibility rule:
//
//   crash round=<r> id=<i> scheduled=<0|1> code=<exit or 128+sig>
//   restart round=<r> id=<i> resume=1
//   respawn-failed round=<r> id=<i>
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/bitset.h"
#include "sim/rumor.h"

namespace congos::net {

// -- hex / bitset helpers ----------------------------------------------------

std::string to_hex(std::span<const std::uint8_t> bytes);
/// Appends the lowercase hex of `bytes` to *out (to_hex without a string).
void append_hex(std::string* out, std::span<const std::uint8_t> bytes);
bool from_hex(const std::string& hex, std::vector<std::uint8_t>* out);

/// Canonical wire encoding of a bitset, hexed (round-trips size exactly).
std::string bitset_to_hex(const DynamicBitset& b);
bool bitset_from_hex(const std::string& hex, DynamicBitset* out);

// -- line parsing ------------------------------------------------------------

/// A parsed `verb key=value ...` line. Values never contain spaces; keys
/// are unique.
struct Line {
  std::string verb;
  std::map<std::string, std::string> kv;

  bool has(const std::string& key) const { return kv.count(key) != 0; }
  /// Missing/malformed keys latch *ok to false and return the fallback.
  std::int64_t get_int(const std::string& key, bool* ok) const;
  std::string get(const std::string& key, bool* ok) const;
};

/// False for an empty line, a token that is not `key=value` with a
/// non-empty key, or a key given twice.
bool parse_line(const std::string& text, Line* out);

// -- control commands --------------------------------------------------------

struct StartCommand {
  std::int64_t epoch_ms = 0;
  std::int64_t round_ms = 20;
  /// Data-socket port of every process, indexed by ProcessId.
  std::vector<std::uint16_t> peer_ports;
};

std::string encode_start(const StartCommand& cmd);
bool parse_start(const Line& line, StartCommand* out, std::string* error);

struct InjectCommand {
  std::uint64_t seq = 0;
  Round deadline = 0;
  DynamicBitset dest;
  std::vector<std::uint8_t> data;
};

std::string encode_inject(const InjectCommand& cmd);
bool parse_inject(const Line& line, InjectCommand* out, std::string* error);

/// An injection is only well-formed for a daemon of `n` processes when its
/// destination set has exactly n bits: a narrower set makes peers index
/// past it, a wider one names processes that do not exist.
bool validate_inject(const InjectCommand& cmd, std::size_t n,
                     std::string* error);

// -- event-log lines ---------------------------------------------------------

// Each appends one event line, without its newline, to *out. The runtime
// reuses one buffer for every line it logs.
void append_inject_event(std::string* out, Round round, const sim::Rumor& rumor);
void append_deliver_event(std::string* out, Round round, ProcessId at,
                          const RumorUid& uid, std::span<const std::uint8_t> data);
void append_recv_event(std::string* out, Round round,
                       std::span<const std::uint8_t> frame);

/// Parses an `inject` event back into a Rumor (injected_at = round).
bool parse_inject_event(const Line& line, sim::Rumor* out, Round* round,
                        std::string* error);

}  // namespace congos::net
