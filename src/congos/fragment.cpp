#include "congos/fragment.h"

#include "common/assert.h"

namespace congos::core {

std::vector<FragmentPtr> split_rumor(const sim::Rumor& rumor, PartitionIndex l,
                                     GroupIndex num_groups, Round expires_at,
                                     Round dline, Rng& rng) {
  CONGOS_ASSERT(num_groups >= 2);
  auto shares = coding::split(rumor.data, num_groups, rng);
  std::vector<FragmentPtr> frags;
  frags.reserve(num_groups);
  for (GroupIndex g = 0; g < num_groups; ++g) {
    auto f = std::make_shared<Fragment>();
    f->meta.key = FragmentKey{rumor.uid, l, g};
    f->meta.dest = rumor.dest;
    f->meta.expires_at = expires_at;
    f->meta.dline = dline;
    f->meta.num_groups = num_groups;
    f->data = std::move(shares[g]);
    frags.push_back(std::move(f));
  }
  return frags;
}

}  // namespace congos::core
