#include "replay/repro.h"

#include <cstdio>

#include "replay/codec.h"

namespace congos::replay {

namespace {

void set_error(std::string* error, const char* msg) {
  if (error != nullptr) *error = msg;
}

template <typename Enum>
bool checked_enum(ByteReader& r, Enum* out, std::uint8_t max_value) {
  const std::uint8_t v = r.u8();
  if (!r.ok() || v > max_value) {
    r.fail();
    return false;
  }
  *out = static_cast<Enum>(v);
  return true;
}

// --------------------------------------------------------------- sub-configs

void put_congos(ByteWriter& w, const core::CongosConfig& c) {
  w.u32(c.tau);
  w.f64(c.partition_c);
  w.f64(c.fanout_exponent);
  w.f64(c.fanout_c);
  w.u32(static_cast<std::uint32_t>(c.gossip_fanout));
  w.u8(static_cast<std::uint8_t>(c.gossip_strategy));
  w.i64(c.direct_threshold);
  w.i64(c.max_effective_deadline);
  w.f64(c.gd_alive_factor);
  w.boolean(c.allow_degenerate);
  w.u64(c.partition_seed);
}

bool get_congos(ByteReader& r, core::CongosConfig* c) {
  c->tau = r.u32();
  c->partition_c = r.f64();
  c->fanout_exponent = r.f64();
  c->fanout_c = r.f64();
  c->gossip_fanout = static_cast<int>(r.u32());
  if (!checked_enum(r, &c->gossip_strategy,
                    static_cast<std::uint8_t>(gossip::GossipStrategy::kPushPull))) {
    return false;
  }
  c->direct_threshold = r.i64();
  c->max_effective_deadline = r.i64();
  c->gd_alive_factor = r.f64();
  c->allow_degenerate = r.boolean();
  c->partition_seed = r.u64();
  return r.ok();
}

void put_continuous(ByteWriter& w, const adversary::Continuous::Options& o) {
  w.f64(o.inject_prob);
  w.u64(o.dest_min);
  w.u64(o.dest_max);
  w.vec_i64(o.deadlines);
  w.u64(o.payload_len);
  w.i64(o.last_injection_round);
  w.boolean(o.opaque_ids);
}

bool get_continuous(ByteReader& r, adversary::Continuous::Options* o) {
  o->inject_prob = r.f64();
  o->dest_min = r.u64();
  o->dest_max = r.u64();
  o->deadlines = r.vec_i64();
  o->payload_len = r.u64();
  o->last_injection_round = r.i64();
  o->opaque_ids = r.boolean();
  return r.ok();
}

void put_theorem1(ByteWriter& w, const adversary::Theorem1::Options& o) {
  w.f64(o.x);
  w.i64(o.dmax);
  w.u64(o.payload_len);
}

bool get_theorem1(ByteReader& r, adversary::Theorem1::Options* o) {
  o->x = r.f64();
  o->dmax = r.i64();
  o->payload_len = r.u64();
  return r.ok();
}

void put_churn(ByteWriter& w, const adversary::RandomChurn::Options& o) {
  w.f64(o.crash_prob);
  w.f64(o.restart_prob);
  w.u64(o.min_alive);
  w.vec_u32(o.protected_ids);
}

bool get_churn(ByteReader& r, adversary::RandomChurn::Options* o) {
  o->crash_prob = r.f64();
  o->restart_prob = r.f64();
  o->min_alive = r.u64();
  o->protected_ids = r.vec_u32();
  return r.ok();
}

void put_crash_on_service(ByteWriter& w, const adversary::CrashOnService::Options& o) {
  w.u8(static_cast<std::uint8_t>(o.target));
  w.u64(o.per_round_budget);
  w.u64(o.total_budget);
  w.u64(o.min_alive);
  w.vec_u32(o.protected_ids);
  w.i64(o.restart_after);
}

bool get_crash_on_service(ByteReader& r, adversary::CrashOnService::Options* o) {
  if (!checked_enum(r, &o->target, static_cast<std::uint8_t>(sim::ServiceKind::kOther))) {
    return false;
  }
  o->per_round_budget = r.u64();
  o->total_budget = r.u64();
  o->min_alive = r.u64();
  o->protected_ids = r.vec_u32();
  o->restart_after = r.i64();
  return r.ok();
}

void put_crash_senders(ByteWriter& w, const adversary::CrashSenders::Options& o) {
  w.u8(static_cast<std::uint8_t>(o.target));
  w.u64(o.per_round_budget);
  w.u64(o.total_budget);
  w.u64(o.min_alive);
  w.vec_u32(o.protected_ids);
  w.u8(static_cast<std::uint8_t>(o.delivery));
}

bool get_crash_senders(ByteReader& r, adversary::CrashSenders::Options* o) {
  if (!checked_enum(r, &o->target, static_cast<std::uint8_t>(sim::ServiceKind::kOther))) {
    return false;
  }
  o->per_round_budget = r.u64();
  o->total_budget = r.u64();
  o->min_alive = r.u64();
  o->protected_ids = r.vec_u32();
  return checked_enum(r, &o->delivery,
                      static_cast<std::uint8_t>(sim::PartialDelivery::kRandom));
}

// v2 additions: the link-fault plan and the retransmission knobs are part of
// the execution's pure-function inputs, so replay must restore both.
void put_faults(ByteWriter& w, const sim::FaultConfig& f) {
  w.f64(f.drop_rate);
  w.f64(f.dup_rate);
  w.f64(f.delay_rate);
  w.i64(f.max_delay);
  w.i64(f.partition_period);
  w.i64(f.partition_duration);
  w.u64(f.seed);
}

bool get_faults(ByteReader& r, sim::FaultConfig* f) {
  f->drop_rate = r.f64();
  f->dup_rate = r.f64();
  f->delay_rate = r.f64();
  f->max_delay = r.i64();
  f->partition_period = r.i64();
  f->partition_duration = r.i64();
  f->seed = r.u64();
  return r.ok();
}

void put_retransmit(ByteWriter& w, const core::RetransmitConfig& rt) {
  w.boolean(rt.enabled);
  w.u32(static_cast<std::uint32_t>(rt.budget));
  w.i64(rt.max_link_delay);
}

bool get_retransmit(ByteReader& r, core::RetransmitConfig* rt) {
  rt->enabled = r.boolean();
  rt->budget = static_cast<int>(r.u32());
  rt->max_link_delay = r.i64();
  return r.ok();
}

void put_config(ByteWriter& w, const harness::ScenarioConfig& cfg) {
  w.u64(cfg.n);
  w.u64(cfg.seed);
  w.i64(cfg.rounds);
  w.u8(static_cast<std::uint8_t>(cfg.protocol));
  put_congos(w, cfg.congos);
  w.u8(static_cast<std::uint8_t>(cfg.workload));
  put_continuous(w, cfg.continuous);
  put_theorem1(w, cfg.theorem1);
  w.boolean(cfg.churn.has_value());
  if (cfg.churn) put_churn(w, *cfg.churn);
  w.boolean(cfg.crash_on_service.has_value());
  if (cfg.crash_on_service) put_crash_on_service(w, *cfg.crash_on_service);
  w.boolean(cfg.crash_senders.has_value());
  if (cfg.crash_senders) put_crash_senders(w, *cfg.crash_senders);
  w.i64(cfg.measure_from);
  w.f64(cfg.lazy_fraction);
  w.u32(static_cast<std::uint32_t>(cfg.baseline_fanout));
  w.boolean(cfg.audit_confidentiality);
  w.i64(cfg.min_drain);
  // v2 extension (after every v1 field, so v1 readers of old files and this
  // reader of v1 files agree on the prefix).
  put_faults(w, cfg.faults);
  put_retransmit(w, cfg.congos.retransmit);
}

bool get_config(ByteReader& r, harness::ScenarioConfig* cfg, std::uint32_t version) {
  cfg->n = r.u64();
  cfg->seed = r.u64();
  cfg->rounds = r.i64();
  if (!checked_enum(r, &cfg->protocol,
                    static_cast<std::uint8_t>(harness::Protocol::kPlainGossip))) {
    return false;
  }
  if (!get_congos(r, &cfg->congos)) return false;
  if (!checked_enum(r, &cfg->workload,
                    static_cast<std::uint8_t>(harness::WorkloadKind::kTheorem1))) {
    return false;
  }
  if (!get_continuous(r, &cfg->continuous)) return false;
  if (!get_theorem1(r, &cfg->theorem1)) return false;
  if (r.boolean()) {
    cfg->churn.emplace();
    if (!get_churn(r, &*cfg->churn)) return false;
  }
  if (r.boolean()) {
    cfg->crash_on_service.emplace();
    if (!get_crash_on_service(r, &*cfg->crash_on_service)) return false;
  }
  if (r.boolean()) {
    cfg->crash_senders.emplace();
    if (!get_crash_senders(r, &*cfg->crash_senders)) return false;
  }
  cfg->measure_from = r.i64();
  cfg->lazy_fraction = r.f64();
  cfg->baseline_fanout = static_cast<int>(r.u32());
  cfg->audit_confidentiality = r.boolean();
  cfg->min_drain = r.i64();
  if (version >= 2) {
    if (!get_faults(r, &cfg->faults)) return false;
    if (!get_retransmit(r, &cfg->congos.retransmit)) return false;
  }
  return r.ok();
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
  put_config(w, file.config);
  w.str(file.label);
  w.str(file.reason);
  w.vec_u64(file.round_deliveries);
  w.u64(file.trace_hash);
  w.u64(file.total_messages);
  w.u64(file.total_bytes);
  w.u64(file.injected);
  w.u64(file.crashes);
  w.u64(file.restarts);
  w.u64(file.leaks);
  w.u64(file.foreign_fragments);
  w.u64(file.qod_delivered_on_time);
  w.u64(file.qod_late);
  w.u64(file.qod_missing);
  w.u64(file.qod_data_mismatches);
  for (std::size_t f = 0; f < sim::kNumFaultKinds; ++f) {
    w.u64(file.faults_by_kind[f]);
  }
  w.u64(file.duplicates_suppressed);
  w.u32(file.wire_codec_version);  // v3

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
  if (!get_config(r, &file.config, version)) {
    set_error(error, "malformed scenario config section");
    return false;
  }
  file.label = r.str();
  file.reason = r.str();
  if (version < 4) {
    // Skip the decision trace: re-execution regenerates it.
    const std::uint64_t n_decisions = r.u64();
    if (!r.ok() || n_decisions > r.remaining() / kLegacyDecisionBytes ||
        r.raw(n_decisions * kLegacyDecisionBytes) == nullptr) {
      set_error(error, "malformed decision trace");
      return false;
    }
  }
  file.round_deliveries = r.vec_u64();
  file.trace_hash = r.u64();
  file.total_messages = r.u64();
  file.total_bytes = r.u64();
  file.injected = r.u64();
  file.crashes = r.u64();
  file.restarts = r.u64();
  file.leaks = r.u64();
  file.foreign_fragments = r.u64();
  file.qod_delivered_on_time = r.u64();
  file.qod_late = r.u64();
  file.qod_missing = r.u64();
  file.qod_data_mismatches = r.u64();
  if (version >= 2) {
    for (std::size_t f = 0; f < sim::kNumFaultKinds; ++f) {
      file.faults_by_kind[f] = r.u64();
    }
    file.duplicates_suppressed = r.u64();
  }
  if (version >= 3) {
    file.wire_codec_version = r.u32();
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
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    set_error(error, "cannot open file");
    return false;
  }
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return decode(bytes, out, error);
}

}  // namespace congos::replay
