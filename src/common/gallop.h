// Galloping (exponential) search over an ascending random-access range.
//
// Merge walks of one sorted batch against another sorted run (the gossip
// service's own push batch, the confidentiality auditor's clean-body memo,
// GroupDistribution's hit set) keep a cursor into that run and ask for the
// next key's position from there.
// Batches mostly repeat that run in order, so the answer is usually at the
// cursor itself: one compare. Galloping keeps a far jump at O(log distance)
// and a key behind the cursor at one binary search, so no batch shape costs
// more than a lower_bound over the whole run.
#pragma once

#include <algorithm>
#include <functional>
#include <iterator>

namespace congos {

/// The first position in the ascending range [first, last) whose projected
/// key is not below `key`, exactly as std::ranges::lower_bound finds it,
/// searched forward from `hint` (which must lie in [first, last]). Any hint
/// gives the exact answer; a good one makes it cheap.
template <std::random_access_iterator It, class T, class Proj = std::identity>
It gallop_lower_bound(It first, It hint, It last, const T& key, Proj proj = {}) {
  if (hint != first && !(std::invoke(proj, *std::prev(hint)) < key)) {
    return std::ranges::lower_bound(first, hint, key, {}, proj);  // behind hint
  }
  // Every element before `lo` is below `key`.
  It lo = hint;
  It hi = hint;
  std::iter_difference_t<It> step = 1;
  while (hi != last && std::invoke(proj, *hi) < key) {
    lo = std::next(hi);
    hi = (last - hi > step) ? hi + step : last;
    step *= 2;
  }
  return std::ranges::lower_bound(lo, hi, key, {}, proj);
}

}  // namespace congos
