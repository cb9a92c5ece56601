// Unit tests for the deterministic flat hash containers and the payload
// pool (common/flat_map.h, common/flat_set.h, common/pool.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/flat_set.h"
#include "common/pool.h"
#include "common/rng.h"

namespace congos {
namespace {

TEST(FlatMap, BasicOperations) {
  FlatMap<std::uint64_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.find(1), m.end());

  auto [it, inserted] = m.try_emplace(1, 10);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->second, 10);
  EXPECT_FALSE(m.try_emplace(1, 99).second);
  EXPECT_EQ(m.find(1)->second, 10);

  m[2] = 20;
  m[2] = 21;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.find(2)->second, 21);
  EXPECT_TRUE(m.contains(2));
  EXPECT_FALSE(m.contains(3));

  EXPECT_EQ(m.erase(1), 1u);
  EXPECT_EQ(m.erase(1), 0u);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_FALSE(m.contains(1));
  EXPECT_TRUE(m.contains(2));
}

TEST(FlatMap, IterationIsInsertionOrder) {
  FlatMap<std::uint64_t, int> m;
  const std::vector<std::uint64_t> keys = {41, 7, 99, 3, 1000000007ull, 0};
  for (std::size_t i = 0; i < keys.size(); ++i) m[keys[i]] = static_cast<int>(i);
  std::vector<std::uint64_t> seen;
  for (const auto& [k, v] : m) seen.push_back(k);
  EXPECT_EQ(seen, keys);
}

TEST(FlatMap, EraseIteratorSweepVisitsEverySurvivor) {
  FlatMap<std::uint64_t, int> m;
  for (std::uint64_t k = 0; k < 100; ++k) m[k] = static_cast<int>(k);
  // The `it = m.erase(it)` idiom from ConfidentialGossipService::gc().
  for (auto it = m.begin(); it != m.end();) {
    if (it->first % 3 == 0) {
      it = m.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(m.size(), 66u);
  std::vector<std::uint64_t> seen;
  for (const auto& [k, v] : m) {
    EXPECT_NE(k % 3, 0u);
    seen.push_back(k);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(FlatMap, MatchesUnorderedMapUnderRandomChurn) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(123);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.next_below(500);
    switch (rng.next_below(3)) {
      case 0: {
        const std::uint64_t v = rng.next();
        flat.try_emplace(key, v);
        ref.try_emplace(key, v);
        break;
      }
      case 1:
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      case 2: {
        const auto fit = flat.find(key);
        const auto rit = ref.find(key);
        ASSERT_EQ(fit == flat.end(), rit == ref.end());
        if (rit != ref.end()) {
          EXPECT_EQ(fit->second, rit->second);
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  for (const auto& [k, v] : ref) {
    ASSERT_TRUE(flat.contains(k));
    EXPECT_EQ(flat.find(k)->second, v);
  }
}

/// Pathological hasher: every key collides, so every operation walks (and
/// backward-shifts through) one long probe chain.
struct CollidingHash {
  std::size_t operator()(int) const noexcept { return 42; }
};

TEST(FlatMap, SurvivesFullHashCollisions) {
  FlatMap<int, int, CollidingHash> m;
  for (int k = 0; k < 64; ++k) m[k] = k * 2;
  for (int k = 0; k < 64; ++k) {
    ASSERT_TRUE(m.contains(k));
    EXPECT_EQ(m.find(k)->second, k * 2);
  }
  for (int k = 0; k < 64; k += 2) EXPECT_EQ(m.erase(k), 1u);
  for (int k = 0; k < 64; ++k) EXPECT_EQ(m.contains(k), k % 2 == 1);
  for (int k = 1; k < 64; k += 2) EXPECT_EQ(m.find(k)->second, k * 2);
}

TEST(FlatMap, NonTrivialKeysAndValues) {
  FlatMap<std::string, std::vector<int>> m;
  m.try_emplace("alpha").first->second.push_back(1);
  m["beta"] = {2, 3};
  m.try_emplace("alpha").first->second.push_back(4);
  EXPECT_EQ(m.find("alpha")->second, (std::vector<int>{1, 4}));
  EXPECT_EQ(m.find("beta")->second, (std::vector<int>{2, 3}));
  FlatMap<std::string, std::vector<int>> copy = m;
  m.erase("alpha");
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_TRUE(copy.contains("alpha"));
}

TEST(FlatMap, ReserveAvoidsRehashAndKeepsContents) {
  FlatMap<std::uint64_t, int> m;
  m.reserve(1000);
  for (std::uint64_t k = 0; k < 1000; ++k) m[k * 7919] = static_cast<int>(k);
  for (std::uint64_t k = 0; k < 1000; ++k) {
    ASSERT_EQ(m.find(k * 7919)->second, static_cast<int>(k));
  }
}

TEST(FlatSet, BasicOperationsAndOrder) {
  FlatSet<std::uint32_t> s;
  EXPECT_TRUE(s.insert(5).second);
  EXPECT_FALSE(s.insert(5).second);
  EXPECT_TRUE(s.insert(2).second);
  EXPECT_TRUE(s.insert(9).second);
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(4));
  const std::vector<std::uint32_t> seen(s.begin(), s.end());
  EXPECT_EQ(seen, (std::vector<std::uint32_t>{5, 2, 9}));
  EXPECT_EQ(s.erase(5), 1u);
  EXPECT_EQ(s.erase(5), 0u);
  EXPECT_EQ(s.size(), 2u);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(s.contains(2));
}

TEST(FlatSet, MatchesUnorderedSetUnderRandomChurn) {
  FlatSet<std::uint64_t> flat;
  std::unordered_set<std::uint64_t> ref;
  Rng rng(321);
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.next_below(400);
    if (rng.chance(0.6)) {
      EXPECT_EQ(flat.insert(key).second, ref.insert(key).second);
    } else {
      EXPECT_EQ(flat.erase(key), ref.erase(key));
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  for (auto k : ref) ASSERT_TRUE(flat.contains(k));
}

struct PooledThing {
  std::vector<int> data;
  void reuse() { data.clear(); }
};

TEST(PayloadPool, RecyclesObjectAndKeepsCapacity) {
  PayloadPool<PooledThing> pool;
  auto h = pool.acquire();
  PooledThing* raw = h.get();
  h->data.assign(100, 7);
  const std::size_t cap = h->data.capacity();
  h.reset();
  ASSERT_EQ(pool.idle(), 1u);

  auto h2 = pool.acquire();
  EXPECT_EQ(h2.get(), raw);          // same object came back
  EXPECT_TRUE(h2->data.empty());     // ... cleared by reuse()
  EXPECT_GE(h2->data.capacity(), cap);  // ... with its buffer intact
  EXPECT_EQ(pool.idle(), 0u);
}

TEST(PayloadPool, SteadyStateCyclesAllocateNothingNew) {
  PayloadPool<PooledThing> pool;
  pool.acquire().reset();  // warm up: one object + one control block cached
  PooledThing* warm = nullptr;
  {
    auto h = pool.acquire();
    warm = h.get();
  }
  for (int i = 0; i < 1000; ++i) {
    auto h = pool.acquire();
    ASSERT_EQ(h.get(), warm);  // always the single cached object
  }
}

TEST(PayloadPool, HandlesOutliveThePool) {
  std::shared_ptr<PooledThing> survivor;
  {
    PayloadPool<PooledThing> pool;
    survivor = pool.acquire();
    survivor->data.push_back(1);
  }
  // The pool object is gone; the handle (whose deleter owns the core) must
  // still be usable and destructible.
  EXPECT_EQ(survivor->data.size(), 1u);
  survivor.reset();
}

// Move-only: a copy would make two owners recycle into one core, and the
// services that embed a pool must not be clonable by accident.
static_assert(!std::is_copy_constructible_v<PayloadPool<PooledThing>>);
static_assert(std::is_nothrow_move_constructible_v<PayloadPool<PooledThing>>);

TEST(PayloadPool, ConvertsToConstPointer) {
  PayloadPool<PooledThing> pool;
  std::shared_ptr<const PooledThing> as_const = pool.acquire();
  EXPECT_NE(as_const, nullptr);
  as_const.reset();
  EXPECT_EQ(pool.idle(), 1u);
}

}  // namespace
}  // namespace congos
