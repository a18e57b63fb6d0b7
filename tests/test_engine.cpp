// Unit tests for the discrete-event engine: ordering, cancelation,
// determinism, and run_until semantics.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace gocast::sim {
namespace {

TEST(Engine, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0.0);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_EQ(engine.processed(), 0u);
}

TEST(Engine, RunsEventsInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(3.0, [&] { order.push_back(3); });
  engine.schedule_at(1.0, [&] { order.push_back(1); });
  engine.schedule_at(2.0, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 3.0);
}

TEST(Engine, SameTimeEventsRunInScheduleOrder) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, ScheduleAfterUsesRelativeDelay) {
  Engine engine;
  double fired_at = -1.0;
  engine.schedule_at(5.0, [&] {
    engine.schedule_after(2.5, [&] { fired_at = engine.now(); });
  });
  engine.run();
  EXPECT_DOUBLE_EQ(fired_at, 7.5);
}

TEST(Engine, NowAdvancesToEventTime) {
  Engine engine;
  double observed = -1.0;
  engine.schedule_at(4.25, [&] { observed = engine.now(); });
  engine.run();
  EXPECT_DOUBLE_EQ(observed, 4.25);
}

TEST(Engine, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  EventId id = engine.schedule_at(1.0, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(Engine, CancelTwiceReturnsFalse) {
  Engine engine;
  EventId id = engine.schedule_at(1.0, [] {});
  EXPECT_TRUE(engine.cancel(id));
  EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, CancelAfterFireReturnsFalse) {
  Engine engine;
  EventId id = engine.schedule_at(1.0, [] {});
  engine.run();
  EXPECT_FALSE(engine.cancel(id));
}

TEST(Engine, SlotReuseDoesNotConfuseCancel) {
  Engine engine;
  bool second_fired = false;
  EventId first = engine.schedule_at(1.0, [] {});
  EXPECT_TRUE(engine.cancel(first));
  // The slot is recycled; the stale handle must not cancel the new event.
  engine.schedule_at(2.0, [&] { second_fired = true; });
  EXPECT_FALSE(engine.cancel(first));
  engine.run();
  EXPECT_TRUE(second_fired);
}

TEST(Engine, RunUntilStopsAtBoundaryInclusive) {
  Engine engine;
  std::vector<double> fired;
  engine.schedule_at(1.0, [&] { fired.push_back(1.0); });
  engine.schedule_at(2.0, [&] { fired.push_back(2.0); });
  engine.schedule_at(3.0, [&] { fired.push_back(3.0); });
  std::size_t n = engine.run_until(2.0);
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, RunUntilAdvancesTimeEvenWithoutEvents) {
  Engine engine;
  engine.run_until(10.0);
  EXPECT_DOUBLE_EQ(engine.now(), 10.0);
}

TEST(Engine, EventsScheduledDuringRunUntilAreHonored) {
  Engine engine;
  std::vector<double> fired;
  engine.schedule_at(1.0, [&] {
    fired.push_back(engine.now());
    engine.schedule_after(0.5, [&] { fired.push_back(engine.now()); });
    engine.schedule_after(5.0, [&] { fired.push_back(engine.now()); });
  });
  engine.run_until(2.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 1.5}));
  EXPECT_EQ(engine.pending(), 1u);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine engine;
  engine.schedule_at(5.0, [] {});
  engine.run();
  EXPECT_THROW(engine.schedule_at(1.0, [] {}), AssertionError);
}

TEST(Engine, NegativeDelayThrows) {
  Engine engine;
  EXPECT_THROW(engine.schedule_after(-0.1, [] {}), AssertionError);
}

TEST(Engine, NextEventTimeReportsEarliestLive) {
  Engine engine;
  EventId early = engine.schedule_at(1.0, [] {});
  engine.schedule_at(2.0, [] {});
  EXPECT_DOUBLE_EQ(engine.next_event_time(), 1.0);
  engine.cancel(early);
  EXPECT_DOUBLE_EQ(engine.next_event_time(), 2.0);
}

TEST(Engine, NextEventTimeEmptyIsNever) {
  Engine engine;
  EXPECT_EQ(engine.next_event_time(), kNever);
}

TEST(Engine, ProcessedCountsOnlyFiredEvents) {
  Engine engine;
  engine.schedule_at(1.0, [] {});
  EventId id = engine.schedule_at(2.0, [] {});
  engine.cancel(id);
  engine.run();
  EXPECT_EQ(engine.processed(), 1u);
}

TEST(Engine, StepReturnsFalseWhenEmpty) {
  Engine engine;
  EXPECT_FALSE(engine.step());
}

TEST(Engine, ManyEventsStress) {
  Engine engine;
  std::size_t counter = 0;
  for (int i = 0; i < 10000; ++i) {
    engine.schedule_at(static_cast<double>(i % 100), [&] { ++counter; });
  }
  engine.run();
  EXPECT_EQ(counter, 10000u);
  EXPECT_EQ(engine.processed(), 10000u);
}

// Regression: compact_heap's Floyd heapify sifts interior nodes, and the
// sift's bubble-up phase must stop at the sift's own start position — not at
// the root — or elements get hoisted above their subtree and the heap fires
// events out of (time, seq) order. The trigger needs a well-mixed heap
// array, so each round interleaves a schedule wave, a run_until slice (pops
// move back elements through the root, scrambling array order), and a cancel
// storm of ~2/3 of everything pending (drives dead > live -> compaction).
// With the unbounded bubble-up this pattern corrupts the heap in round one
// (verified: it throws the engine's t >= now_ assertion); afterwards
// delivery must be in nondecreasing time with same-time ties in scheduling
// order.
TEST(Engine, CancelHeavyCompactionPreservesOrder) {
  Engine engine;
  std::vector<std::pair<double, int>> fired;
  std::uint64_t rng = 0x9E3779B97F4A7C15ull;
  auto next = [&rng] {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<std::uint32_t>(rng >> 33);
  };

  std::vector<EventId> ids;
  int seq = 0;
  std::size_t canceled = 0;
  for (int round = 0; round < 30; ++round) {
    for (int i = 0; i < 200; ++i) {
      // Coarse time grid (1024 distinct offsets): plenty of same-time ties.
      const double t =
          engine.now() + static_cast<double>(next() % 1024) / 64.0;
      const int tag = seq++;
      ids.push_back(engine.schedule_at(t, [&fired, &engine, tag] {
        fired.emplace_back(engine.now(), tag);
      }));
    }
    engine.run_until(engine.now() + static_cast<double>(next() % 512) / 64.0);
    // Stale ids from prior rounds are generation-checked cancel no-ops.
    for (EventId& id : ids) {
      if (next() % 3 != 0 && engine.cancel(id)) ++canceled;
    }
  }

  engine.run();
  EXPECT_EQ(engine.pending(), 0u);
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(seq) - canceled);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    ASSERT_LE(fired[i - 1].first, fired[i].first)
        << "events fired out of time order at index " << i;
    if (fired[i - 1].first == fired[i].first) {
      ASSERT_LT(fired[i - 1].second, fired[i].second)
          << "same-time events fired out of scheduling order at index " << i;
    }
  }
}

TEST(Engine, RecursiveSchedulingChain) {
  Engine engine;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) engine.schedule_after(0.01, chain);
  };
  engine.schedule_after(0.01, chain);
  engine.run();
  EXPECT_EQ(depth, 100);
  EXPECT_NEAR(engine.now(), 1.0, 1e-9);
}

}  // namespace
}  // namespace gocast::sim
