#include "replay/repro.h"

#include <cstdio>

#include "replay/codec.h"
#include "wire/wire.h"

namespace congos::replay {

namespace {

void set_error(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

// --------------------------------------------------------------- field walks
// One walk per record drives both ByteWriter (encode) and ByteReader
// (decode); see replay/codec.h.

template <class S, wire::SameBase<core::CongosConfig> C>
void fields(S& s, C& c) {
  s.u32(c.tau);
  s.f64(c.partition_c);
  s.f64(c.fanout_exponent);
  s.f64(c.fanout_c);
  s.i32(c.gossip_fanout);
  s.enum8(c.gossip_strategy, gossip::GossipStrategy::kPushPull);
  s.i64(c.direct_threshold);
  s.i64(c.max_effective_deadline);
  s.f64(c.gd_alive_factor);
  s.boolean(c.allow_degenerate);
  s.u64(c.partition_seed);
}

template <class S, wire::SameBase<adversary::Continuous::Options> O>
void fields(S& s, O& o) {
  s.f64(o.inject_prob);
  s.u64(o.dest_min);
  s.u64(o.dest_max);
  s.vec_i64(o.deadlines);
  s.u64(o.payload_len);
  s.i64(o.last_injection_round);
  s.boolean(o.opaque_ids);
}

template <class S, wire::SameBase<adversary::Theorem1::Options> O>
void fields(S& s, O& o) {
  s.f64(o.x);
  s.i64(o.dmax);
  s.u64(o.payload_len);
}

template <class S, wire::SameBase<adversary::RandomChurn::Options> O>
void fields(S& s, O& o) {
  s.f64(o.crash_prob);
  s.f64(o.restart_prob);
  s.u64(o.min_alive);
  s.vec_u32(o.protected_ids);
}

template <class S, wire::SameBase<adversary::CrashOnService::Options> O>
void fields(S& s, O& o) {
  s.enum8(o.target, sim::ServiceKind::kOther);
  s.u64(o.per_round_budget);
  s.u64(o.total_budget);
  s.u64(o.min_alive);
  s.vec_u32(o.protected_ids);
  s.i64(o.restart_after);
}

template <class S, wire::SameBase<adversary::CrashSenders::Options> O>
void fields(S& s, O& o) {
  s.enum8(o.target, sim::ServiceKind::kOther);
  s.u64(o.per_round_budget);
  s.u64(o.total_budget);
  s.u64(o.min_alive);
  s.vec_u32(o.protected_ids);
  s.enum8(o.delivery, sim::PartialDelivery::kRandom);
}

// v2 additions: the link-fault plan and the retransmission knobs are part of
// the execution's pure-function inputs, so replay must restore both.
template <class S, wire::SameBase<sim::FaultConfig> F>
void fields(S& s, F& f) {
  s.f64(f.drop_rate);
  s.f64(f.dup_rate);
  s.f64(f.delay_rate);
  s.i64(f.max_delay);
  s.i64(f.partition_period);
  s.i64(f.partition_duration);
  s.u64(f.seed);
}

template <class S, wire::SameBase<core::RetransmitConfig> R>
void fields(S& s, R& rt) {
  s.boolean(rt.enabled);
  s.i32(rt.budget);
  s.i64(rt.max_link_delay);
}

/// The whole config as `version` laid it out (encode() always writes
/// kReproVersion).
template <class S, wire::SameBase<harness::ScenarioConfig> C>
void fields(S& s, C& cfg, std::uint32_t version) {
  const auto walk = [&s](auto& record) { fields(s, record); };
  s.u64(cfg.n);
  s.u64(cfg.seed);
  s.i64(cfg.rounds);
  s.enum8(cfg.protocol, harness::Protocol::kPlainGossip);
  fields(s, cfg.congos);
  s.enum8(cfg.workload, harness::WorkloadKind::kTheorem1);
  fields(s, cfg.continuous);
  fields(s, cfg.theorem1);
  s.optional(cfg.churn, walk);
  s.optional(cfg.crash_on_service, walk);
  s.optional(cfg.crash_senders, walk);
  s.i64(cfg.measure_from);
  s.f64(cfg.lazy_fraction);
  s.i32(cfg.baseline_fanout);
  s.boolean(cfg.audit_confidentiality);
  s.i64(cfg.min_drain);
  // v2 extension (after every v1 field, so v1 readers of old files and this
  // reader of v1 files agree on the prefix).
  if (version >= 2) {
    fields(s, cfg.faults);
    fields(s, cfg.congos.retransmit);
  }
}

/// Everything after the config. Versions 1-3 kept an adversary decision
/// trace between `reason` and `round_deliveries`; `skip_decisions` runs
/// there for them (decode() passes the skip, encode() never needs it).
template <class S, wire::SameBase<ReproFile> F, class Skip>
void fields(S& s, F& file, std::uint32_t version, Skip&& skip_decisions) {
  s.str(file.label);
  s.str(file.reason);
  if (version < 4) skip_decisions();
  s.vec_u64(file.round_deliveries);
  s.u64(file.trace_hash);
  s.u64(file.total_messages);
  s.u64(file.total_bytes);
  s.u64(file.injected);
  s.u64(file.crashes);
  s.u64(file.restarts);
  s.u64(file.leaks);
  s.u64(file.foreign_fragments);
  s.u64(file.qod_delivered_on_time);
  s.u64(file.qod_late);
  s.u64(file.qod_missing);
  s.u64(file.qod_data_mismatches);
  if (version >= 2) {
    for (auto& count : file.faults_by_kind) s.u64(count);
    s.u64(file.duplicates_suppressed);
  }
  if (version >= 3) s.u32(file.wire_codec_version);
}

// Size of one version 1-3 decision record: round (i64), kind (u8), process
// (u32), policy (u8), rumor source (u32) and seq (u64), destination count
// (u64) and deadline (i64). Version 4 stores none.
constexpr std::uint64_t kLegacyDecisionBytes = 42;

}  // namespace

bool is_recordable(const harness::ScenarioConfig& cfg, std::string* why) {
  if (cfg.workload == harness::WorkloadKind::kContinuous && cfg.continuous.dest_gen) {
    set_error(why, "continuous.dest_gen is a custom std::function and cannot "
                   "be serialized");
    return false;
  }
  if (!cfg.extra_adversaries.empty()) {
    set_error(why, "extra_adversaries are external components and cannot be "
                   "serialized");
    return false;
  }
  return true;
}

std::vector<std::uint8_t> encode(const ReproFile& file) {
  ByteWriter w;
  w.u32(kReproMagic);
  w.u32(kReproVersion);
  fields(w, file.config, kReproVersion);
  fields(w, file, kReproVersion, [] {});
  std::vector<std::uint8_t> bytes = w.take();
  const std::uint64_t checksum = fnv1a(bytes.data(), bytes.size());
  for (int b = 0; b < 8; ++b) {
    bytes.push_back(static_cast<std::uint8_t>(checksum >> (8 * b)));
  }
  return bytes;
}

bool decode(const std::vector<std::uint8_t>& bytes, ReproFile* out,
            std::string* error) {
  if (bytes.size() < 16) {
    set_error(error, "file too short to be a .repro");
    return false;
  }
  // Magic before checksum, so "not a .repro at all" and "damaged .repro"
  // read differently in error reports.
  const std::size_t body_len = bytes.size() - 8;
  ByteReader r(bytes.data(), body_len);
  if (r.u32() != kReproMagic) {
    set_error(error, "bad magic (not a .repro file)");
    return false;
  }
  std::uint64_t stored = 0;
  for (int b = 0; b < 8; ++b) {
    stored |= static_cast<std::uint64_t>(bytes[body_len + b]) << (8 * b);
  }
  if (fnv1a(bytes.data(), body_len) != stored) {
    set_error(error, "checksum mismatch (truncated or corrupted file)");
    return false;
  }
  const std::uint32_t version = r.u32();
  if (version < 1 || version > kReproVersion) {
    set_error(error, "unsupported .repro format version");
    return false;
  }

  ReproFile file;
  fields(r, file.config, version);
  if (!r.ok()) {
    set_error(error, "malformed scenario config section");
    return false;
  }
  bool decisions_ok = true;
  fields(r, file, version, [&] {
    // Skip the decision trace: re-execution regenerates it.
    const std::uint64_t n_decisions = r.u64();
    decisions_ok = r.ok() && n_decisions <= r.remaining() / kLegacyDecisionBytes &&
                   r.raw(n_decisions * kLegacyDecisionBytes) != nullptr;
    if (!decisions_ok) r.fail();
  });
  if (!decisions_ok) {
    set_error(error, "malformed decision trace");
    return false;
  }
  if (version < 4) (void)r.str();  // the rendered trace tail
  if (!r.ok()) {
    set_error(error, "malformed trailer section");
    return false;
  }
  if (r.remaining() != 0) {
    set_error(error, "trailing garbage after .repro payload");
    return false;
  }
  *out = std::move(file);
  return true;
}

bool write_file(const std::string& path, const ReproFile& file) {
  const std::vector<std::uint8_t> bytes = encode(file);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t written = std::fwrite(bytes.data(), 1, bytes.size(), f);
  const bool closed = std::fclose(f) == 0;
  return written == bytes.size() && closed;
}

bool read_file(const std::string& path, ReproFile* out, std::string* error) {
  std::vector<std::uint8_t> bytes;
  return read_whole_file(path, &bytes, error) && decode(bytes, out, error);
}

}  // namespace congos::replay
