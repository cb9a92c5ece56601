// ConfidentialityAuditor: machine-checks Definition 2 (and its collusion
// variant) on every execution.
//
// Registered as an ExecutionObserver, it inspects every *delivered* envelope,
// feeds a KnowledgeTracker with the rumor data and fragment payloads each
// process has seen, and flags:
//   * kFullLeak          - a process outside rho.D (and not the source) saw
//                          the whole datum;
//   * kFragmentSetLeak   - such a process saw all groups' fragments of some
//                          partition (it can XOR them into the datum);
//   * kForeignFragment   - such a process saw a fragment of a group it does
//                          not belong to (stronger, structural invariant of
//                          CONGOS: [PROXY:CONFIDENTIAL] + [GD:CONFIDENTIAL]);
//   * coalition queries  - whether any coalition of <= tau curious processes
//                          could pool fragments into the datum (Lemma 14).
//
// The auditor is protocol-independent: it knows the wire payload types, not
// the protocol state. Plain (non-confidential) gossip runs produce nonzero
// kFullLeak counts by design - that is experiment E2's contrast column.
//
// Gossip re-delivers each fragment to each process many times, so almost
// every sighting is a repeat: the same fragment key (uid, partition, group),
// at the same process, with the same group count. Once the rumor is injected
// a repeat cannot change what the process knows, so it cannot complete a
// fragment set; its only effect is the kForeignFragment its first judged
// sighting produced, pushed again (every sighting counts). The auditor keeps
// that verdict per (process, fragment key) and settles a repeat with one
// hash probe. Keys are values taken off the wire, never payload addresses or
// protocol state. If some process ever sees two group counts for one rumor,
// a repeat can move the tracker's count back, so every later sighting takes
// the full path.
#pragma once

#include <array>
#include <vector>

#include "audit/knowledge.h"
#include "partition/partition.h"
#include "sim/engine.h"

namespace congos::audit {

enum class ViolationKind : std::uint8_t {
  kFullLeak,
  kFragmentSetLeak,
  kForeignFragment,
};

struct Violation {
  ViolationKind kind = ViolationKind::kFullLeak;
  ProcessId process = kNoProcess;
  RumorUid rumor;
  Round when = 0;
};

class ConfidentialityAuditor final : public sim::ExecutionObserver {
 public:
  /// `partitions` may be null (baseline protocols); when provided, the
  /// foreign-fragment structural check is enabled.
  ConfidentialityAuditor(std::size_t n,
                         const partition::PartitionSet* partitions = nullptr);

  // -- ExecutionObserver ------------------------------------------------------
  void on_inject(const sim::Rumor& rumor, Round now) override;
  void on_envelope_delivered(const sim::Envelope& e, Round now) override;

  // -- results ---------------------------------------------------------------

  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t count(ViolationKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }
  /// Confidentiality violations in the paper's sense (Definition 2): a
  /// non-destination learned (or could reconstruct) a rumor.
  std::uint64_t leaks() const {
    return count(ViolationKind::kFullLeak) + count(ViolationKind::kFragmentSetLeak);
  }

  const KnowledgeTracker& knowledge() const { return knowledge_; }

  /// True iff some coalition of `tau` *curious* processes (outside the
  /// rumor's destination set and source) can reconstruct `uid`. Exact under
  /// CONGOS's structural invariant (each curious process holds at most its
  /// own group per partition): a partition is breakable iff every group's
  /// fragment escaped to some curious process and tau >= num_groups.
  bool breakable_by_coalition(const RumorUid& uid, std::size_t tau) const;

  /// Smallest curious coalition able to reconstruct `uid` (0 if a single
  /// curious process knows it outright; SIZE_MAX if impossible so far).
  std::size_t min_breaking_coalition(const RumorUid& uid) const;

  /// Minimum of min_breaking_coalition over every injected rumor: the size
  /// of the smallest coalition that could break *some* rumor (SIZE_MAX when
  /// no rumor is breakable). Lemma 14 predicts > tau for CONGOS.
  std::size_t weakest_rumor_coalition() const;

  /// Payload types the auditor did not recognize (should stay 0 in tests of
  /// protocols the auditor supports).
  std::uint64_t unknown_payloads() const { return unknown_payloads_; }

 private:
  struct RumorInfo {
    DynamicBitset dest;
    ProcessId source = kNoProcess;
  };

  /// Verdict of a judged sighting of an injected rumor's fragment.
  struct Sighting {
    GroupIndex num_groups = 0;
    bool foreign = false;  // pushed kForeignFragment
  };

  std::size_t n_;
  const partition::PartitionSet* partitions_;
  KnowledgeTracker knowledge_;
  FlatMap<RumorUid, RumorInfo> rumors_;
  std::vector<FlatMap<core::FragmentKey, Sighting, core::FragmentKeyHash>>
      sightings_;  // per process
  bool group_counts_vary_ = false;  // disables the repeat path for good
  std::vector<Violation> violations_;
  std::array<std::uint64_t, 3> counts_{};  // per ViolationKind
  std::uint64_t unknown_payloads_ = 0;

  bool curious(ProcessId p, const RumorUid& uid) const;
  void flag(ViolationKind kind, ProcessId p, const RumorUid& uid, Round now);
  void saw_fragment(ProcessId p, const core::Fragment& frag, Round now);
  void saw_full(ProcessId p, const RumorUid& uid, Round now);
};

}  // namespace congos::audit
