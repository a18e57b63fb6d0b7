// common::FlatMap unit tests: probing/tombstone mechanics, rehash behavior,
// deterministic iteration, and a differential fuzz against
// std::unordered_map (the container it replaced on the hot path).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/flat_map.h"
#include "common/rng.h"

namespace gocast {
namespace {

using common::FlatMap;

TEST(FlatMap, InsertFindErase) {
  FlatMap<int, int> map;
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(1));
  EXPECT_EQ(map.find(1), map.end());

  auto [it, inserted] = map.try_emplace(1, 10);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(it->first, 1);
  EXPECT_EQ(it->second, 10);
  EXPECT_EQ(map.size(), 1u);

  auto [it2, inserted2] = map.try_emplace(1, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(it2->second, 10) << "try_emplace must not overwrite";

  EXPECT_EQ(map.erase(1), 1u);
  EXPECT_EQ(map.erase(1), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(1));
}

TEST(FlatMap, SubscriptInsertsDefaultAndUpdates) {
  FlatMap<int, std::uint64_t> map;
  EXPECT_EQ(map[7], 0u);
  map[7] = 42;
  EXPECT_EQ(map[7], 42u);
  map[7] += 1;
  EXPECT_EQ(map.find(7)->second, 43u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlatMap, GrowthKeepsAllElements) {
  FlatMap<int, int> map;
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) map[i] = i * 3;
  EXPECT_EQ(map.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(map.contains(i)) << i;
    EXPECT_EQ(map.find(i)->second, i * 3);
  }
  EXPECT_FALSE(map.contains(kN));
}

TEST(FlatMap, ReservePreventsRehashDuringFill) {
  FlatMap<int, int> map;
  map.reserve(1000);
  const std::size_t cap = map.capacity();
  ASSERT_GT(cap, 0u);
  for (int i = 0; i < 1000; ++i) map[i] = i;
  EXPECT_EQ(map.capacity(), cap) << "reserve(n) must cover n inserts";
}

// try_emplace/operator[] on a present key must never rehash, even when the
// table sits exactly at the load threshold where the next NEW key would —
// matches std::unordered_map's rule that lookup of an existing key never
// invalidates references.
TEST(FlatMap, ExistingKeyAccessNeverInvalidates) {
  FlatMap<int, int> map;
  map[0] = 0;
  // Fill until one more new key would trigger a rehash.
  int key = 1;
  while ((map.size() + 1) * 8 <= map.capacity() * 7) {
    map[key] = key;
    ++key;
  }
  const std::size_t cap = map.capacity();
  int* ref = &map[0];
  for (int k = 0; k < key; ++k) {
    map[k] = k;
    auto [it, inserted] = map.try_emplace(k, -1);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(it->second, k);
  }
  EXPECT_EQ(map.capacity(), cap) << "existing-key access rehashed";
  EXPECT_EQ(ref, &map[0]) << "existing-key access moved elements";
  EXPECT_EQ(*ref, 0);
}

// Steady-state churn at constant size must not grow the table: tombstones
// are reclaimed by same-capacity rehash, not by doubling forever.
TEST(FlatMap, TombstoneChurnKeepsCapacityBounded) {
  FlatMap<std::uint64_t, int> map;
  for (std::uint64_t i = 0; i < 100; ++i) map[i] = 1;
  const std::size_t cap_after_fill = map.capacity();
  for (std::uint64_t round = 0; round < 200; ++round) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      EXPECT_EQ(map.erase(round * 100 + i), 1u);
      map[(round + 1) * 100 + i] = 1;
    }
    EXPECT_EQ(map.size(), 100u);
  }
  // Allow one doubling of slack, but 20k churned keys must not accumulate.
  EXPECT_LE(map.capacity(), cap_after_fill * 2)
      << "tombstones were never reclaimed";
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(map.contains(200 * 100 + i));
  }
}

// Growth past the scratch-retention cap must free the outgrown slot array:
// the accounted bytes are exactly the live table's.
TEST(FlatMap, GrowthReleasesOutgrownSlotArray) {
  using Map = FlatMap<std::uint64_t, std::array<std::uint64_t, 3>>;
  Map map;
  for (std::uint64_t i = 0; i < 1500; ++i) map[i] = {i, i, i};
  ASSERT_EQ(map.capacity(), 2048u);
  const std::size_t live =
      map.capacity() * (sizeof(Map::value_type) + sizeof(std::uint8_t)) +
      (map.capacity() / 64) * sizeof(std::uint64_t);
  EXPECT_EQ(live, 67840u);
  EXPECT_EQ(map.memory_bytes(), live);
}

TEST(FlatMap, EraseWhileIterating) {
  FlatMap<int, int> map;
  for (int i = 0; i < 100; ++i) map[i] = i;
  for (auto it = map.begin(); it != map.end();) {
    if (it->first % 2 == 0) {
      it = map.erase(it);
    } else {
      ++it;
    }
  }
  EXPECT_EQ(map.size(), 50u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(map.contains(i), i % 2 == 1) << i;
}

TEST(FlatMap, ClearReleasesAndReuses) {
  FlatMap<int, std::vector<int>> map;
  map[1] = std::vector<int>(1000, 7);
  map[2] = std::vector<int>(1000, 8);
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(1));
  map[3] = {1, 2, 3};
  EXPECT_EQ(map.size(), 1u);
  EXPECT_EQ(map.find(3)->second.size(), 3u);
}

// Erasing must reset the slot's value so owned resources (payload buffers,
// pending vectors) are released right away, not at the next rehash.
TEST(FlatMap, EraseReleasesOwnedResources) {
  FlatMap<int, std::shared_ptr<int>> map;
  auto payload = std::make_shared<int>(5);
  std::weak_ptr<int> probe = payload;
  map[1] = std::move(payload);
  EXPECT_FALSE(probe.expired());
  EXPECT_EQ(map.erase(1), 1u);
  EXPECT_TRUE(probe.expired()) << "erase left the value alive in a tombstone";
}

// Iteration order is a pure function of operation history: two maps fed the
// same deterministic op sequence iterate identically. The simulation relies
// on this for bit-identical runs per seed.
TEST(FlatMap, IterationOrderDeterministicForSameHistory) {
  auto build = [] {
    FlatMap<std::uint64_t, std::uint64_t> map;
    Rng rng(1234);
    for (int i = 0; i < 2000; ++i) {
      std::uint64_t k = rng.next_below(3000);
      if (rng.next_unit() < 0.6) {
        map[k] = k + 1;
      } else {
        map.erase(k);
      }
    }
    return map;
  };
  auto a = build();
  auto b = build();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seq_a;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> seq_b;
  for (const auto& kv : a) seq_a.push_back(kv);
  for (const auto& kv : b) seq_b.push_back(kv);
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_FALSE(seq_a.empty());
}

// Differential fuzz: random interleaving of insert/erase/lookup/clear mirrors
// std::unordered_map exactly (same membership and values at every checkpoint).
TEST(FlatMap, DifferentialFuzzAgainstUnorderedMap) {
  FlatMap<std::uint64_t, std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(99);

  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t key = rng.next_below(500);  // small space => collisions
    const double dice = rng.next_unit();
    if (dice < 0.45) {
      const std::uint64_t value = rng.next_below(1u << 20);
      flat[key] = value;
      ref[key] = value;
    } else if (dice < 0.75) {
      EXPECT_EQ(flat.erase(key), ref.erase(key)) << "op " << op;
    } else if (dice < 0.97) {
      auto fit = flat.find(key);
      auto rit = ref.find(key);
      ASSERT_EQ(fit != flat.end(), rit != ref.end()) << "op " << op;
      if (rit != ref.end()) {
        EXPECT_EQ(fit->second, rit->second) << "op " << op;
      }
    } else {
      flat.clear();
      ref.clear();
    }
    ASSERT_EQ(flat.size(), ref.size()) << "op " << op;

    if (op % 2500 == 2499) {  // full-content checkpoint
      std::vector<std::pair<std::uint64_t, std::uint64_t>> a;
      for (const auto& kv : flat) a.push_back(kv);
      std::vector<std::pair<std::uint64_t, std::uint64_t>> b(ref.begin(),
                                                             ref.end());
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      ASSERT_EQ(a, b) << "contents diverged by op " << op;
    }
  }
}

}  // namespace
}  // namespace gocast
