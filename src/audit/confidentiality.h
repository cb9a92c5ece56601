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
// protocol state.
//
// The repeat path is disabled per process, not per run. Its one hazard is a
// repeat that moves the tracker's group count for (p, uid) back to its own
// count, which can complete a set a second time. That count is written only
// by sightings at p, so the hazard exists only once p itself has seen two
// group counts for some rumor (KnowledgeTracker::note_fragment reports it).
// Until then every fragment p saw of a rumor carried the count the tracker
// holds, so a repeat whose count matches its first judged sighting leaves
// the tracker, curious() and the foreign verdict exactly as the full path
// would. What other processes saw never enters p's verdicts.
//
// Gossip repeats whole records, too: every holder re-pushes the one shared
// rumor record every round, so most GossipMsg rumors a process receives are
// records it has already judged. Each Slot keeps a memo of the FragmentBody
// and ProxyShareBody rumors it judged clean: every fragment's rumor was
// injected by then (so each fragment left a sighting) and the judgment
// flagged nothing (so no sighting is foreign). The memo is keyed by (service
// tag, gid), walked in gid order beside the batch, and holds the record's
// handle. A hit needs the same gid and the same record, and is settled from
// the batch entry alone (it carries the body's kind), without reading the
// record or the body. Records are immutable and the held handle keeps the
// record from being freed, so its body is the one that was judged, and
// every fragment in it would take the repeat path with a clean verdict: no
// effect at all. Another record under a known gid (a swapped body, or the
// same body in a record decoded afresh) is judged again. Metadata bodies
// (hit-set shares, reports) are settled from the entry's kind as well. The memo obeys the
// repeat path's rule, so it stops answering, and is dropped, once p has seen
// two group counts. An entry leaves at p's next gossip delivery in a round
// past its rumor's deadline_at, so the memo holds only live rumors.
//
// Threading. All mutable state of a sighting lives with its receiver: the
// tracker's per-process entries and one Slot per process (sightings, the
// repeat flag, pending violations, counters). rumors_ is written only by
// on_inject, which the engine calls before delivery. So on_envelope_delivered
// may run concurrently for envelopes with *different* receivers, with no
// locks, as the engine's receiver observers do (Engine::add_receiver_observer,
// DESIGN.md section 12). Every other member, queries included, must run with
// no delivery in flight.
//
// violations() has one canonical order: round, then receiving process, then
// sighting order at that process. It is the order the engine's serial receive
// loop produces, and no thread count and no interleaving of receivers can
// change it. Direct callers (the offline wire audit, tests) get the same order
// whatever order they feed envelopes in across receivers.
#pragma once

#include <array>
#include <limits>
#include <vector>

#include "audit/knowledge.h"
#include "gossip/continuous_gossip.h"
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
  /// Folds the round's per-process violations into violations(), so the
  /// merge stays one append per round.
  void on_round_end(Round now) override;

  // -- results ---------------------------------------------------------------

  /// Every violation, in the canonical order (header comment).
  const std::vector<Violation>& violations() const;
  std::uint64_t count(ViolationKind kind) const;
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
  std::uint64_t unknown_payloads() const;

  /// True iff process p has seen two group counts for one rumor, so its
  /// repeat sightings take the full path from then on.
  bool group_counts_vary(ProcessId p) const { return slots_[p].group_counts_vary; }

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

  /// A GossipMsg rumor record judged clean (header comment).
  struct CleanBody {
    std::uint64_t gid = 0;
    Round deadline_at = 0;
    gossip::GossipRumorPtr rumor;  // held: the record cannot be freed
  };
  /// Clean bodies of one gossip service, ascending by gid.
  struct CleanRun {
    sim::ServiceTag tag;
    std::vector<CleanBody> bodies;
  };

  /// Everything a sighting at one process writes; only that process's
  /// receiver touches it.
  struct Slot {
    FlatMap<core::FragmentKey, Sighting, core::FragmentKeyHash> sightings;
    std::vector<CleanRun> clean;  // one run per gossip service tag
    /// Earliest deadline_at in `clean` (the largest Round when empty).
    Round clean_expiry = std::numeric_limits<Round>::max();
    /// Violations flagged here since the last merge, in sighting order.
    /// Mutable so the lazy merge behind violations() can drain it.
    mutable std::vector<Violation> pending;
    std::array<std::uint64_t, 3> counts{};  // per ViolationKind
    std::uint64_t unknown_payloads = 0;
    bool group_counts_vary = false;  // disables p's repeat path for good
  };

  std::size_t n_;
  const partition::PartitionSet* partitions_;
  KnowledgeTracker knowledge_;
  FlatMap<RumorUid, RumorInfo> rumors_;
  std::vector<Slot> slots_;  // per process
  mutable std::vector<Violation> violations_;  // merged, canonical order

  bool curious(ProcessId p, const RumorUid& uid) const;
  void flag(ViolationKind kind, ProcessId p, const RumorUid& uid, Round now);
  void merge_pending() const;
  /// True iff the sighting is settled: the fragment's rumor was injected,
  /// so a verdict for its key is on record.
  bool saw_fragment(ProcessId p, const core::Fragment& frag, Round now);
  void saw_gossip(ProcessId p, const sim::Envelope& e, Round now);
  /// Drops the clean bodies of `slot` whose deadline_at is before `now`.
  static void expire_clean(Slot& slot, Round now);
  void saw_full(ProcessId p, const RumorUid& uid, Round now);
};

}  // namespace congos::audit
