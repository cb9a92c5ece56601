// Continuous gossip service: our realization of the black box the paper
// imports from [13] (Georgiou, Gilbert, Kowalski, "Meeting the Deadline",
// PODC'10 / Dist. Comp. 2011).
//
// Interface contract used by CONGOS (Section 4.2):
//   * rumors are injected at any time with an absolute deadline and a
//     destination set within a fixed universe (the group, for GroupGossip[l],
//     or [n] for AllGossip);
//   * an admissible rumor (source continuously alive) reaches every
//     continuously-alive destination by its deadline;
//   * per-round message complexity stays bounded.
//
// Realization (documented as a substitution in DESIGN.md section 2): an
// epidemic push protocol - every process holding active rumors forwards all
// of them to `fanout` uniformly random universe members per round. Two
// delivery modes:
//   * best-effort (default): delivery is w.h.p. within O(log |U|) rounds;
//     CONGOS layers its own confirmation + direct-send fallback on top, so
//     end-to-end QoD stays deterministic (exactly the paper's structure).
//   * guaranteed: destinations ack the origin on first receipt and the origin
//     direct-sends to unacked destinations in the round before the deadline,
//     making delivery deterministic for admissible rumors. Used by baselines
//     that have no outer fallback.
//
// All traffic passes a Filter pinned to the universe; in a correct build the
// filter never fires (tests assert this).
#pragma once

#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/bitset.h"
#include "common/flat_map.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/types.h"
#include "gossip/filter.h"
#include "sim/message.h"
#include "sim/process.h"
#include "wire/wire.h"

namespace congos::gossip {

/// A rumor as carried by the gossip service. `body` is opaque to the service
/// (fragments, metadata records, ...).
struct GossipRumor {
  std::uint64_t gid = 0;  // unique within a service instance
  ProcessId origin = kNoProcess;
  Round deadline_at = 0;  // absolute round
  DynamicBitset dest;     // subset of the universe
  sim::PayloadPtr body;
};

/// A rumor record is immutable once inject() or the wire reader builds it,
/// and every holder shares it by handle (DESIGN.md section 9).
using GossipRumorPtr = std::shared_ptr<const GossipRumor>;

/// One rumor in a batch or a rumor store: the handle, and the record's gid,
/// deadline and body kind copied inline, so that merge walks, expiry checks
/// and a reader's dispatch on the body kind never dereference the record.
/// The constructor keeps the copies equal to the record's fields.
struct RumorEntry {
  std::uint64_t gid = 0;
  Round deadline_at = 0;
  GossipRumorPtr rumor;
  sim::PayloadKind body_kind = sim::PayloadKind::kOpaque;  // kOpaque: null body

  RumorEntry() = default;
  explicit RumorEntry(GossipRumorPtr r)
      : gid(r->gid),
        deadline_at(r->deadline_at),
        rumor(std::move(r)),
        body_kind(rumor->body ? rumor->body->kind() : sim::PayloadKind::kOpaque) {}
};

/// Builds a record from `r` and returns its entry.
inline RumorEntry make_entry(GossipRumor r) {
  return RumorEntry(std::make_shared<const GossipRumor>(std::move(r)));
}

/// Wire payload: a batch of rumors pushed to one peer. One batch is shared
/// between every same-round recipient (push targets, pull repliers, expander
/// neighbors), so its serialized size is memoized: the payload is immutable
/// once handed to a Sender, and encoded_size() is re-queried per recipient by
/// the byte accounting.
struct GossipMsg final : sim::Payload {
  GossipMsg() : sim::Payload(sim::PayloadKind::kGossipMsg) {}

  std::vector<RumorEntry> rumors;

  std::uint64_t encoded_size() const override;  // defined after the walk

  /// PayloadPool recycle hook: a recycled message starts empty.
  void reuse() {
    rumors.clear();
    reset_wire_memo();
  }

  /// Must be called after any in-place mutation of `rumors` (the merge pass
  /// reuses one message object across rounds): the count-keyed memo
  /// cannot see content changes that keep the rumor count constant.
  void reset_wire_memo() const { cached_for_count_ = SIZE_MAX; }

 private:
  mutable std::uint64_t cached_encoded_size_ = 0;
  // Memo is invalidated when the rumor count changes; mutating a rumor
  // in place after a size query is still forbidden (see the class
  // comment: payloads are immutable once handed to a Sender).
  mutable std::size_t cached_for_count_ = SIZE_MAX;
};

/// Wire payload: receipt acknowledgements (guaranteed mode only).
struct GossipAck final : sim::Payload {
  GossipAck() : sim::Payload(sim::PayloadKind::kGossipAck) {}

  std::vector<std::uint64_t> gids;

  std::uint64_t encoded_size() const override;

  void reuse() { gids.clear(); }
};

/// Dissemination strategy.
///
/// * kEpidemicPush - classic randomized gossip: `fanout` uniform targets per
///   round. Matches the randomized protocols the paper cites [19-21].
/// * kExpander - deterministic: a circulant expander graph over the universe
///   (skip offsets derived from a shared seed, degree max(fanout, log2 m));
///   active processes push to all their neighbors every round. This mirrors
///   [13]'s derandomization, which "replaces random choices with carefully
///   chosen expander graphs", and makes the per-round message count of the
///   black box deterministic.
/// * kPushPull - randomized push-pull a la Karp et al. [19]: alongside the
///   pushes, every universe member (even one holding nothing) sends one pull
///   request to a random peer each round; peers answer with their active
///   rumors. Pull closes the "last stragglers" tail that pure push pays
///   Theta(log n) extra rounds for, at the cost of a steady request load.
enum class GossipStrategy : std::uint8_t { kEpidemicPush, kExpander, kPushPull };

/// Wire payload: a pull request (kPushPull); the receiver responds next
/// round with its active rumors.
struct GossipPull final : sim::Payload {
  GossipPull() : sim::Payload(sim::PayloadKind::kGossipPull) {}

  std::uint64_t encoded_size() const override { return 0; }  // stateless body

  void reuse() {}  // stateless; PayloadPool recycle hook
};

// ---------------------------------------------------------------------------
// Codec field walks (src/wire/wire.h). Batches delta-encode their gids: a
// service keeps its push batch in ascending gid order, so the per-rumor gid
// shrinks from a fixed 8 bytes to (usually) 1 byte.
// ---------------------------------------------------------------------------

/// Fields of one rumor record, gid excluded (the containing batch encodes
/// gids as deltas).
template <class S, wire::SameBase<GossipRumor> R>
void wire_rumor_fields(S& s, R& r) {
  s.varint32(r.origin);
  s.zigzag(r.deadline_at);
  s.bitset(r.dest);
  s.nested(r.body);
}

/// Byte-exact decode memo for gossip rumors (DESIGN.md section 13.1).
///
/// Continuous gossip re-pushes every active rumor to `fanout` peers each
/// round, so a daemon receives the same rumor record many times. The memo
/// maps an absolute gid, within a scope naming the frame's service, to the
/// rumor's encoded field bytes (gid excluded) and the record decoded from
/// them. A hit needs the next bytes of the frame to equal the stored bytes
/// exactly, and hands back the stored record: records are immutable, so
/// every frame that repeats a rumor yields the one record. The field walk
/// is self-delimiting and reads nothing but those bytes, so a hit yields
/// what a fresh decode would; the key only decides which entry is compared.
/// (Every gossip service of a process numbers its rumors from the same
/// counter layout, so without the scope the services' gids would collide
/// and evict each other: misses, never wrong rumors.) Entries leave once
/// their deadline has passed (expire()), and at most kMaxEntries are held,
/// so a peer sending far-future deadlines cannot grow it without bound. Not
/// thread-safe: one memo per decoding thread (one per daemon).
class RumorDecodeMemo {
 public:
  static constexpr std::size_t kMaxEntries = std::size_t{1} << 14;

  /// On a hit, consumes the rumor's field bytes from `s` and returns the
  /// memoized record of `gid`; returns null on a miss.
  GossipRumorPtr lookup(wire::ReadSink& s, std::uint64_t scope, std::uint64_t gid);
  /// Records `r`, decoded from `fields`, replacing any entry for its key.
  void remember(std::uint64_t scope, GossipRumorPtr r, const std::uint8_t* fields,
                std::size_t len);
  /// Drops every entry whose deadline_at is before `now`.
  void expire(Round now);

  std::size_t size() const { return entries_.size(); }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }

 private:
  struct Key {
    std::uint64_t scope = 0;
    std::uint64_t gid = 0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return FlatHash<std::uint64_t>{}(k.gid ^ (k.scope * 0x9e3779b97f4a7c15ull));
    }
  };
  struct Entry {
    std::vector<std::uint8_t> fields;
    GossipRumorPtr rumor;
  };
  FlatMap<Key, Entry, KeyHash> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// Reads the record of `gid` behind a handle: the memo's record on a hit,
/// otherwise one built here (one make_shared) and offered to the memo.
inline GossipRumorPtr read_rumor(wire::ReadSink& s, std::uint64_t gid) {
  RumorDecodeMemo* memo = s.rumor_memo();
  const std::uint64_t scope = s.rumor_memo_scope();
  if (memo != nullptr) {
    if (GossipRumorPtr hit = memo->lookup(s, scope, gid)) return hit;
  }
  const std::uint8_t* at = s.cursor();
  const std::size_t from = s.pos();
  auto r = std::make_shared<GossipRumor>();
  r->gid = gid;
  wire_rumor_fields(s, *r);
  if (memo != nullptr && s.ok()) memo->remember(scope, r, at, s.pos() - from);
  return r;
}

template <class S, wire::SameBase<GossipMsg> M>
void wire_fields(S& s, M& m) {
  s.seq(m.rumors);
  std::uint64_t prev = 0;
  for (auto& e : m.rumors) {
    if (!s.ok()) return;
    if constexpr (S::kReading) {
      std::uint64_t delta = 0;
      s.varint(delta);
      prev += delta;  // unsigned wrap-around restores any gid
      e = RumorEntry(read_rumor(s, prev));
    } else {
      s.varint(e.gid - prev);  // small for sorted batches; lossless regardless
      prev = e.gid;
      wire_rumor_fields(s, *e.rumor);
    }
  }
}

/// Ack gids are in arbitrary arrival order, so deltas are zigzag-signed.
template <class S, wire::SameBase<GossipAck> A>
void wire_fields(S& s, A& a) {
  s.seq(a.gids);
  std::uint64_t prev = 0;
  for (auto& g : a.gids) {
    if (!s.ok()) return;
    if constexpr (S::kReading) {
      std::int64_t delta = 0;
      s.zigzag(delta);
      g = prev + static_cast<std::uint64_t>(delta);
    } else {
      s.zigzag(static_cast<std::int64_t>(g - prev));
    }
    prev = g;
  }
}

template <class S, wire::SameBase<GossipPull> P>
void wire_fields(S&, P&) {}  // stateless

inline std::uint64_t GossipMsg::encoded_size() const {
  if (cached_for_count_ != rumors.size()) {
    wire::SizeSink s;
    wire_fields(s, *this);
    cached_encoded_size_ = s.size();
    cached_for_count_ = rumors.size();
  }
  return cached_encoded_size_;
}

inline std::uint64_t GossipAck::encoded_size() const {
  wire::SizeSink s;
  wire_fields(s, *this);
  return s.size();
}

struct GossipConfig {
  sim::ServiceTag tag;      // kGroupGossip/partition or kAllGossip
  DynamicBitset universe;   // membership filter; must include the host
  int fanout = 3;           // push targets per round while active
  bool guaranteed = false;  // ack + origin fallback mode
  GossipStrategy strategy = GossipStrategy::kEpidemicPush;
  /// Seed for the deterministic expander graph; must be identical at every
  /// member of the universe (it is common knowledge, like the partitions).
  std::uint64_t graph_seed = 0xeca17e5eedULL;
};

/// Deterministic circulant out-neighbors of `self` within `universe`:
/// the member at rank i points at ranks (i + skip_k) mod m for `degree`
/// distinct skips derived from `seed`. Every member computes the same graph
/// locally. Exposed for tests (connectivity/diameter properties).
std::vector<ProcessId> expander_neighbors(ProcessId self, const DynamicBitset& universe,
                                          int degree, std::uint64_t seed);

class ContinuousGossipService {
 public:
  using DeliverFn = std::function<void(Round, const GossipRumor&)>;

  /// `rng` must outlive the service (typically the host process's rng).
  ContinuousGossipService(ProcessId self, GossipConfig cfg, Rng* rng, DeliverFn deliver);

  /// Crash-restart: drop all state (no durable storage). `now` is read from
  /// the global clock.
  void reset(Round now);

  /// Inject a rumor originated at this process. Returns its gid.
  /// `deadline_at` is absolute and must be >= now.
  std::uint64_t inject(Round now, sim::PayloadPtr body, DynamicBitset dest,
                       Round deadline_at);

  /// Host's send phase hook.
  void send_phase(Round now, sim::Sender& out);

  /// Host routes envelopes whose tag matches cfg.tag here.
  void on_envelope(Round now, const sim::Envelope& e);

  // -- introspection --------------------------------------------------------

  std::size_t known_active(Round now) const;
  /// The record this service holds under `gid` (in the batch or not yet
  /// merged), or null.
  GossipRumorPtr record(std::uint64_t gid) const;
  std::uint64_t filter_drops() const { return filter_.drops(); }
  /// Incoming rumors absorbed by gid-idempotence (re-pushes, fault-layer
  /// duplicates, retransmissions). Survives reset(): it describes the
  /// experiment, not protocol state.
  std::uint64_t duplicates_suppressed() const { return duplicates_suppressed_; }
  const sim::ServiceTag& tag() const { return cfg_.tag; }
  const DynamicBitset& universe() const { return cfg_.universe; }

 private:
  /// Guaranteed mode: the ack state of a rumor whose origin is this process
  /// (injected here, or injected by an earlier incarnation and heard back).
  struct Originated {
    std::uint64_t gid = 0;
    Round deadline_at = 0;
    DynamicBitset acked;
    bool fallback_sent = false;
  };

  ProcessId self_;
  GossipConfig cfg_;
  Rng* rng_;
  DeliverFn deliver_;
  Filter filter_;

  /// Universe members other than self_ (the sampling population).
  std::size_t peer_count_ = 0;
  /// True when the universe is the whole process space: then the i-th peer
  /// in ascending order is simply i + (i >= self_) and no materialized list
  /// is needed. A plain n-process system holds n of these services, so the
  /// list would be O(n^2) memory across the system (17 GB at n = 65536);
  /// the closed form makes it zero. Sparse universes (congos groups) still
  /// materialize `sparse_peers_` — they are a fraction of n each.
  bool full_universe_ = false;
  std::vector<ProcessId> sparse_peers_;  // universe minus self, ascending
  /// The i-th universe member other than self_, ascending; identical to the
  /// previously materialized peers_[i] for both universe shapes, so sampled
  /// targets (and hence traces) are unchanged.
  ProcessId peer_at(std::size_t i) const {
    return full_universe_ ? static_cast<ProcessId>(i + (i >= self_ ? 1 : 0))
                          : sparse_peers_[i];
  }
  std::vector<ProcessId> neighbors_;  // expander out-neighbors (kExpander)
  /// Acks to emit next send phase (guaranteed mode): (origin, gid), ascending
  /// by origin and in arrival order within one. A flat vector keeps its
  /// capacity across rounds, so acking allocates nothing after warm-up.
  std::vector<std::pair<ProcessId, std::uint64_t>> pending_acks_;
  // pull requests to answer next send phase (kPushPull)
  std::vector<ProcessId> pending_pulls_;
  Round epoch_start_ = 0;
  std::uint64_t counter_ = 0;
  std::uint64_t duplicates_suppressed_ = 0;

  // -- the rumor store (DESIGN.md sections 5 and 9) -------------------------
  // Each accepted rumor is held exactly once, as an entry whose handle points
  // at the one record every holder shares: in `fresh_` until the next send
  // phase, then in the push batch until its deadline passes. The batch is
  // pushed whole every round, so ascending gid order in it is what keeps
  // batch contents (and hence traces) deterministic.
  PayloadPool<GossipMsg> msg_pool_;
  PayloadPool<GossipAck> ack_pool_;
  PayloadPool<GossipPull> pull_pool_;
  /// Every rumor known at the last send phase, ascending by gid (expired ones
  /// leave at the next send phase). Null until the first rumor arrives, so
  /// building a system allocates no batches.
  std::shared_ptr<GossipMsg> batch_;
  std::span<const RumorEntry> batch_rumors() const {
    return batch_ ? std::span<const RumorEntry>(batch_->rumors)
                  : std::span<const RumorEntry>();
  }
  static constexpr Round kNeverExpires = std::numeric_limits<Round>::max();
  /// Earliest deadline in the batch: no rumor expires before it.
  Round batch_min_deadline_ = kNeverExpires;
  /// Rumors accepted since the last send phase, ascending by gid. They wait
  /// here because the batch is shared with the inboxes it was pushed to
  /// until Network::end_round(), and a payload is immutable once sent.
  std::vector<RumorEntry> fresh_;
  /// The merge pass's output buffer, swapped with the batch's rumors.
  std::vector<RumorEntry> merge_scratch_;
  std::vector<Originated> originated_;       // ascending by gid
  std::vector<std::uint32_t> pick_scratch_;  // push-target sample buffer

  std::uint64_t next_gid(Round now);
  /// Takes a live rumor whose gid is not in the batch: records its entry in
  /// `fresh_` unless it is already there (then it only counts as a
  /// duplicate), and delivers a new one locally when this process is a
  /// destination. Returns true iff the rumor was new. on_envelope() settles
  /// repeats of batch rumors before calling this.
  bool accept(Round now, const RumorEntry& r);
  /// Start of each send phase: drops expired rumors and merges `fresh_` into
  /// the batch, in place when this service holds the only reference and
  /// into a fresh pooled batch otherwise. Skipped when nothing is new and
  /// nothing expires.
  void merge_fresh(Round now);
  /// Guaranteed mode: direct-sends each own rumor whose deadline is next
  /// round to every destination that has not acked it.
  void send_fallbacks(Round now, sim::Sender& out);
};

}  // namespace congos::gossip
