// KnowledgeTracker: a ground-truth model of what every process has *seen*.
//
// Fed by the confidentiality auditor from actually-delivered envelopes (not
// from protocol state): a process "knows" fragment (uid, l, g) once a
// delivered message carried that fragment's payload bytes, and "knows" rumor
// uid once it saw the whole datum or a complete fragment set for some
// partition. The tracker is deliberately independent of the protocol code it
// audits.
#pragma once

#include <cstdint>

#include "common/flat_map.h"
#include "common/flat_set.h"
#include "common/types.h"
#include "congos/fragment.h"

namespace congos::audit {

class KnowledgeTracker {
 public:
  explicit KnowledgeTracker(std::size_t n) : n_(n), frags_(n), full_(n) {}

  std::size_t n() const { return n_; }

  /// Process p saw the payload bytes of fragment `key` (num_groups of the
  /// fragment's partition supplied for reconstruction accounting). Returns
  /// true iff this replaced a different group count p had recorded for the
  /// rumor.
  bool note_fragment(ProcessId p, const core::FragmentKey& key, GroupIndex num_groups);

  /// Process p saw the whole rumor datum.
  void note_full(ProcessId p, const RumorUid& uid);

  /// True iff p saw the whole datum directly.
  bool knows_full(ProcessId p, const RumorUid& uid) const;

  /// Groups of (uid, partition) whose fragments p has seen, as a bitmask.
  std::uint64_t fragment_mask(ProcessId p, const RumorUid& uid,
                              PartitionIndex l) const;

  /// True iff p can reconstruct the rumor: saw it fully, or holds all groups
  /// of some partition.
  bool can_reconstruct(ProcessId p, const RumorUid& uid) const;

  /// True iff the union of the coalition's fragments covers all groups of
  /// some partition (or some member knows the rumor outright).
  bool coalition_can_reconstruct(const std::vector<ProcessId>& coalition,
                                 const RumorUid& uid) const;

  /// All (partition -> group mask) knowledge of p about uid.
  const FlatMap<PartitionIndex, std::uint64_t>* partition_masks(
      ProcessId p, const RumorUid& uid) const;

 private:
  struct PerRumor {
    GroupIndex num_groups = 0;
    FlatMap<PartitionIndex, std::uint64_t> masks;  // group bitmask
  };

  std::size_t n_;
  std::vector<FlatMap<RumorUid, PerRumor>> frags_;  // per process
  std::vector<FlatSet<RumorUid>> full_;             // per process
};

}  // namespace congos::audit
