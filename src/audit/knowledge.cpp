#include "audit/knowledge.h"

#include "common/assert.h"

namespace congos::audit {

namespace {
constexpr std::uint64_t full_mask(GroupIndex groups) {
  return (groups >= 64) ? ~0ull : ((1ull << groups) - 1);
}
}  // namespace

bool KnowledgeTracker::note_fragment(ProcessId p, const core::FragmentKey& key,
                                     GroupIndex num_groups) {
  CONGOS_ASSERT(p < n_);
  CONGOS_ASSERT_MSG(key.group < 64, "group bitmask limited to 64 groups");
  PerRumor& pr = frags_[p][key.rumor];
  const bool moved = !pr.masks.empty() && pr.num_groups != num_groups;
  pr.num_groups = num_groups;
  pr.masks[key.partition] |= (1ull << key.group);
  return moved;
}

void KnowledgeTracker::note_full(ProcessId p, const RumorUid& uid) {
  CONGOS_ASSERT(p < n_);
  full_[p].insert(uid);
}

bool KnowledgeTracker::knows_full(ProcessId p, const RumorUid& uid) const {
  return full_[p].contains(uid);
}

std::uint64_t KnowledgeTracker::fragment_mask(ProcessId p, const RumorUid& uid,
                                              PartitionIndex l) const {
  auto it = frags_[p].find(uid);
  if (it == frags_[p].end()) return 0;
  auto mit = it->second.masks.find(l);
  return mit == it->second.masks.end() ? 0 : mit->second;
}

bool KnowledgeTracker::can_reconstruct(ProcessId p, const RumorUid& uid) const {
  if (knows_full(p, uid)) return true;
  auto it = frags_[p].find(uid);
  if (it == frags_[p].end()) return false;
  const std::uint64_t want = full_mask(it->second.num_groups);
  for (const auto& [l, mask] : it->second.masks) {
    if ((mask & want) == want) return true;
  }
  return false;
}

bool KnowledgeTracker::coalition_can_reconstruct(
    const std::vector<ProcessId>& coalition, const RumorUid& uid) const {
  GroupIndex groups = 0;
  FlatMap<PartitionIndex, std::uint64_t> merged;
  for (ProcessId p : coalition) {
    if (knows_full(p, uid)) return true;
    auto it = frags_[p].find(uid);
    if (it == frags_[p].end()) continue;
    groups = std::max(groups, it->second.num_groups);
    for (const auto& [l, mask] : it->second.masks) merged[l] |= mask;
  }
  if (groups == 0) return false;
  const std::uint64_t want = full_mask(groups);
  for (const auto& [l, mask] : merged) {
    if ((mask & want) == want) return true;
  }
  return false;
}

const FlatMap<PartitionIndex, std::uint64_t>*
KnowledgeTracker::partition_masks(ProcessId p, const RumorUid& uid) const {
  auto it = frags_[p].find(uid);
  return it == frags_[p].end() ? nullptr : &it->second.masks;
}

}  // namespace congos::audit
