// Self-contained reproduction artifacts (.repro files).
//
// A simulated run is a pure function of its ScenarioConfig, so a ReproFile
// stores the config and fingerprints of the run to check a re-execution
// against:
//
//   * the full ScenarioConfig (protocol, CONGOS knobs, workload and failure
//     pattern options, seeds, link faults, retransmission),
//   * the per-round delivered-envelope counts and their FNV-1a hash (the
//     same golden-trace hash the regression tests pin, recorded by
//     sim::TraceLog),
//   * a summary of the original ScenarioResult,
//   * a label and a free-form reason string.
//
// Nothing that re-execution regenerates is stored: not the adversary's
// crash/restart/inject choices, not a rendered trace, and never process
// state (it reaches gigabytes). congos_replay re-executes the config to show
// any of them. The binary layout is versioned ("CGRP" magic + format
// version) and ends in a whole-file FNV-1a checksum; decode() rejects
// truncation, corruption and unknown versions. Each record is one field
// walk in repro.cpp that encode() and decode() both drive. See DESIGN.md
// section 7.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.h"
#include "sim/network.h"

namespace congos::replay {

inline constexpr std::uint32_t kReproMagic = 0x50524743;  // "CGRP" little-endian
/// Version 2 added the link-fault config, the retransmission config and the
/// fault counter totals; version 3 added the wire codec version the original
/// run's byte accounting used; version 4 dropped the adversary decision
/// trace and the rendered trace tail, which re-execution regenerates.
/// decode() still accepts versions 1-3: it skips their decision records and
/// tail, and defaults the fields they lack (fault plan "off", counters zero,
/// wire_codec_version 0 = "byte totals predate the wire codec").
inline constexpr std::uint32_t kReproVersion = 4;

struct ReproFile {
  harness::ScenarioConfig config;

  /// Where the artifact came from (sweep label, grid index) and why it was
  /// written (auditor verdict). Informational only.
  std::string label;
  std::string reason;

  /// Per-round delivered-envelope counts of the original run, and their
  /// FNV-1a hash (replay must reproduce this hash byte-identically).
  std::vector<std::uint64_t> round_deliveries;
  std::uint64_t trace_hash = 0;

  /// Key aggregates of the original ScenarioResult; a complete replay must
  /// reproduce them (harness::replay_file).
  std::uint64_t total_messages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t injected = 0;
  std::uint64_t crashes = 0;
  std::uint64_t restarts = 0;
  std::uint64_t leaks = 0;
  std::uint64_t foreign_fragments = 0;
  std::uint64_t qod_delivered_on_time = 0;
  std::uint64_t qod_late = 0;
  std::uint64_t qod_missing = 0;
  std::uint64_t qod_data_mismatches = 0;

  /// v2: link-fault counter totals of the original run (zero for v1 files
  /// and fault-free runs). Indexed by sim::FaultKind.
  std::uint64_t faults_by_kind[sim::kNumFaultKinds] = {};
  std::uint64_t duplicates_suppressed = 0;

  /// v3: wire::kWireFormatVersion at record time. total_bytes above is only
  /// comparable across runs that serialized with the same codec version;
  /// 0 means the file predates the wire codec (its byte counts came from a
  /// fixed-width estimate, not from encoded frames).
  std::uint32_t wire_codec_version = 0;
};

/// A config is recordable iff the execution is a pure function of its
/// serializable fields: no custom destination generator (std::function) and
/// no external adversary components. Returns false and explains in `why`
/// (when non-null) otherwise. extra_observers are passive and do not block
/// recording.
bool is_recordable(const harness::ScenarioConfig& cfg, std::string* why = nullptr);

/// Serialize to the versioned checksummed byte layout.
std::vector<std::uint8_t> encode(const ReproFile& file);

/// Parse bytes produced by encode(). Returns false on bad magic, unknown
/// version, checksum mismatch, truncation, or out-of-range enum values;
/// `error` (when non-null) describes the first problem found.
bool decode(const std::vector<std::uint8_t>& bytes, ReproFile* out,
            std::string* error = nullptr);

/// encode() + atomic-ish write (write to path, no temp file: artifacts land
/// in per-run directories). Returns false on I/O failure.
bool write_file(const std::string& path, const ReproFile& file);

/// Slurp + decode(). Returns false on I/O or parse failure.
bool read_file(const std::string& path, ReproFile* out,
               std::string* error = nullptr);

}  // namespace congos::replay
