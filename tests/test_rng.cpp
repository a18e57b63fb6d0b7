// Unit tests for the deterministic RNG: reproducibility, fork independence,
// sampling helpers, distribution sanity, and sparse-vs-eager equivalence.
#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <thread>

namespace gocast {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_below(1000000), b.next_below(1000000));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_below(1U << 30) == b.next_below(1U << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkByLabelIsStable) {
  Rng parent(7);
  Rng a = parent.fork("network");
  Rng b = Rng(7).fork("network");
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.next_below(1U << 30), b.next_below(1U << 30));
  }
}

TEST(Rng, ForksWithDifferentLabelsAreIndependent) {
  Rng parent(7);
  Rng a = parent.fork("alpha");
  Rng b = parent.fork("beta");
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_below(1U << 30) == b.next_below(1U << 30)) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkByIndexIsStable) {
  Rng parent(9);
  Rng a = parent.fork(std::uint64_t{5});
  Rng b = Rng(9).fork(std::uint64_t{5});
  EXPECT_EQ(a.next_below(1U << 30), b.next_below(1U << 30));
}

TEST(Rng, ForkDoesNotConsumeParentStream) {
  Rng a(11);
  Rng b(11);
  (void)a.fork("child");
  EXPECT_EQ(a.next_below(1U << 30), b.next_below(1U << 30));
}

TEST(Rng, NextBelowRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW((void)rng.next_below(0), AssertionError);
}

TEST(Rng, NextUnitInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.next_unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, NextUnitMeanIsCentered) {
  Rng rng(6);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_unit();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, GaussianMoments) {
  Rng rng(8);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double x = rng.next_gaussian(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, BernoulliFraction) {
  Rng rng(12);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.next_bool(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(14);
  std::vector<int> v;
  for (int i = 0; i < 100; ++i) v.push_back(i);
  std::vector<int> s = rng.sample(v, 10);
  EXPECT_EQ(s.size(), 10u);
  std::set<int> distinct(s.begin(), s.end());
  EXPECT_EQ(distinct.size(), 10u);
}

TEST(Rng, SampleMoreThanPopulationReturnsAll) {
  Rng rng(15);
  std::vector<int> v{1, 2, 3};
  std::vector<int> s = rng.sample(v, 10);
  EXPECT_EQ(s.size(), 3u);
}

TEST(Rng, SampleIsApproximatelyUniform) {
  Rng rng(16);
  std::vector<int> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  std::vector<int> counts(10, 0);
  for (int trial = 0; trial < 5000; ++trial) {
    for (int x : rng.sample(v, 3)) ++counts[static_cast<std::size_t>(x)];
  }
  // Each element should be picked ~1500 times (3/10 of 5000).
  for (int c : counts) EXPECT_NEAR(c, 1500, 200);
}

TEST(Rng, PickFromEmptyThrows) {
  Rng rng(17);
  std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(empty), AssertionError);
}

TEST(SplitMix, KnownGoodMixing) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 1;
  // Nearby seeds must produce wildly different outputs.
  std::uint64_t a = splitmix64(s1);
  std::uint64_t b = splitmix64(s2);
  EXPECT_NE(a, b);
  int differing_bits = __builtin_popcountll(a ^ b);
  EXPECT_GT(differing_bits, 16);
}

TEST(HashLabel, DistinctLabelsDistinctHashes) {
  EXPECT_NE(hash_label("alpha"), hash_label("beta"));
  EXPECT_NE(hash_label(""), hash_label("a"));
  EXPECT_EQ(hash_label("stable"), hash_label("stable"));
}

// -- sparse streams --

/// Draws one step of a fixed mixed call sequence from `rng` and appends the
/// result bits to `out`. Step i cycles through every helper, so a long run
/// interleaves them all across the promotion point.
template <typename R>
void mixed_step(R& rng, int i, std::vector<std::uint64_t>& out) {
  auto bits = [](double d) {
    std::uint64_t u = 0;
    static_assert(sizeof(u) == sizeof(d));
    std::memcpy(&u, &d, sizeof(u));
    return u;
  };
  switch (i % 7) {
    case 0:
      out.push_back(rng.next_below(static_cast<std::uint64_t>(i % 97 + 1)));
      break;
    case 1:
      out.push_back(bits(rng.next_unit()));
      break;
    case 2:
      out.push_back(bits(rng.next_range(-3.0, 5.0)));
      break;
    case 3:
      out.push_back(bits(rng.next_gaussian(1.0, 2.0)));
      break;
    case 4:
      out.push_back(rng.next_bool(0.3) ? 1 : 0);
      break;
    case 5: {
      std::vector<int> v(static_cast<std::size_t>(i % 11 + 2));
      std::iota(v.begin(), v.end(), 0);
      rng.shuffle(v);
      for (int x : v) out.push_back(static_cast<std::uint64_t>(x));
      break;
    }
    default: {
      std::vector<int> v(20);
      std::iota(v.begin(), v.end(), 0);
      for (int x : rng.sample(v, 4)) {
        out.push_back(static_cast<std::uint64_t>(x));
      }
      break;
    }
  }
}

template <typename R>
std::vector<std::uint64_t> mixed_run(R& rng, int steps, int first = 0) {
  std::vector<std::uint64_t> out;
  for (int i = first; i < first + steps; ++i) mixed_step(rng, i, out);
  return out;
}

TEST(SparseRng, MatchesEagerAcrossPromotion) {
  Rng eager(21);
  SparseRng sparse(21);
  EXPECT_EQ(sparse.memory_bytes(), 0u);
  // 1200 mixed calls consume thousands of engine outputs: the sparse stream
  // replays for the first block and draws from its own generator after.
  EXPECT_EQ(mixed_run(sparse, 1200), mixed_run(eager, 1200));
  EXPECT_EQ(sparse.memory_bytes(), sizeof(std::mt19937_64));
  EXPECT_EQ(eager.memory_bytes(), 0u);
}

TEST(SparseRng, InterleavedStreamsStayIndependent) {
  // Two sparse streams alternating draws defeat the scratch's position
  // cache on every call; each must still match its eager twin.
  Rng ea(1);
  Rng eb(2);
  SparseRng sa(1);
  SparseRng sb(2);
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint64_t> want;
    std::vector<std::uint64_t> got;
    mixed_step(ea, i, want);
    mixed_step(eb, i + 3, want);
    mixed_step(sa, i, got);
    mixed_step(sb, i + 3, got);
    ASSERT_EQ(got, want) << "step " << i;
  }
}

TEST(SparseRng, IdleStreamOwnsNoGenerator) {
  SparseRng rng(5);
  for (int i = 0; i < 10; ++i) (void)rng.next_below(100);
  EXPECT_EQ(rng.memory_bytes(), 0u);
  EXPECT_LT(sizeof(SparseRng), sizeof(Rng) / 64);
}

TEST(SparseRng, CopiesAndMovesContinueTheStream) {
  for (int drawn : {5, 200}) {  // before and after promotion
    SparseRng sparse(33);
    Rng eager(33);
    (void)mixed_run(sparse, drawn);
    (void)mixed_run(eager, drawn);
    const std::vector<std::uint64_t> want = mixed_run(eager, 100, drawn);

    SparseRng copy(sparse);
    EXPECT_EQ(mixed_run(copy, 100, drawn), want) << drawn;
    SparseRng assigned(0);
    assigned = sparse;
    EXPECT_EQ(mixed_run(assigned, 100, drawn), want) << drawn;
    // The copies drew; the original's position is untouched.
    SparseRng moved(std::move(sparse));
    EXPECT_EQ(mixed_run(moved, 100, drawn), want) << drawn;
    SparseRng move_assigned(0);
    SparseRng source(33);
    (void)mixed_run(source, drawn);
    move_assigned = std::move(source);
    EXPECT_EQ(mixed_run(move_assigned, 100, drawn), want) << drawn;
  }
}

TEST(SparseRng, ConcurrentThreadsMatchEager) {
  // Each thread replays on its own scratch generator.
  constexpr int kThreads = 2;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &got] {
      SparseRng a(100 + static_cast<std::uint64_t>(t));
      SparseRng b(200 + static_cast<std::uint64_t>(t));
      for (int i = 0; i < 500; ++i) {
        mixed_step(a, i, got[static_cast<std::size_t>(t)]);
        mixed_step(b, i, got[static_cast<std::size_t>(t)]);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    Rng a(100 + static_cast<std::uint64_t>(t));
    Rng b(200 + static_cast<std::uint64_t>(t));
    std::vector<std::uint64_t> want;
    for (int i = 0; i < 500; ++i) {
      mixed_step(a, i, want);
      mixed_step(b, i, want);
    }
    EXPECT_EQ(got[static_cast<std::size_t>(t)], want) << "thread " << t;
  }
}

TEST(SparseRng, ForksEqualEagerForks) {
  Rng eager(55);
  SparseRng sparse(55);
  // Forking depends on the seed alone, not on how far the parent drew.
  (void)mixed_run(sparse, 150);
  Rng from_eager = eager.fork("child");
  Rng from_sparse = sparse.fork("child");
  EXPECT_EQ(mixed_run(from_sparse, 50), mixed_run(from_eager, 50));
  Rng idx_eager = eager.fork(std::uint64_t{9});
  Rng idx_sparse = sparse.fork(std::uint64_t{9});
  EXPECT_EQ(mixed_run(idx_sparse, 50), mixed_run(idx_eager, 50));
  SparseRng sparse_child = eager.fork_sparse("child");
  Rng eager_child = sparse.fork("child");
  EXPECT_EQ(mixed_run(sparse_child, 100), mixed_run(eager_child, 100));
  SparseRng sparse_idx = sparse.fork_sparse(std::uint64_t{9});
  Rng eager_idx = eager.fork(std::uint64_t{9});
  EXPECT_EQ(mixed_run(sparse_idx, 100), mixed_run(eager_idx, 100));
}

}  // namespace
}  // namespace gocast
