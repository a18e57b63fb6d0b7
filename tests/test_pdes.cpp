// Sharded conservative-PDES tests (DESIGN.md §11): ordered engine admission,
// cross-partition lookahead queries, window/control/mailbox semantics of
// ShardedEngine, the two one-shard fallbacks, and — the headline — that
// full-protocol runs are byte-identical at every shard count, including under
// same-instant arrival ties, churn, scripted faults, invariant checking,
// multi-group topologies, site-pair recording and the gossip baselines.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/fault_behavior.h"
#include "common/rng.h"
#include "fault/invariant_checker.h"
#include "gocast/system.h"
#include "harness/scenario.h"
#include "net/latency_model.h"
#include "sim/engine.h"
#include "sim/sharded_engine.h"

namespace gocast {
namespace {

// -- engine primitives --

TEST(ScheduleAtOrdered, PopsInTimeThenKeyOrder) {
  sim::Engine engine;
  std::vector<int> order;
  // Admission order deliberately scrambled: same time, keys 3 < 7 < 9.
  engine.schedule_at_ordered(1.0, 9, [&] { order.push_back(9); });
  engine.schedule_at_ordered(1.0, 3, [&] { order.push_back(3); });
  engine.schedule_at_ordered(0.5, 7, [&] { order.push_back(70); });
  engine.schedule_at_ordered(1.0, 7, [&] { order.push_back(7); });
  engine.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{70, 3, 7, 9}));
}

TEST(ScheduleAtOrdered, RunBeforeLeavesWindowEdgeEvents) {
  sim::Engine engine;
  std::vector<int> order;
  engine.schedule_at_ordered(1.0, 1, [&] { order.push_back(1); });
  engine.schedule_at_ordered(2.0, 2, [&] { order.push_back(2); });
  EXPECT_EQ(engine.run_before(2.0), 1u);  // strictly-before only
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  engine.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// -- lookahead queries --

TEST(MinCrossPartition, DefaultScanFindsBoundaryArc) {
  // Ring of 10 sites, antipodal latency 0.1 => one step costs 0.02.
  net::RingLatencyModel model(10, 0.1);
  std::vector<std::uint32_t> partition(10, 0);
  for (std::uint32_t s = 5; s < 10; ++s) partition[s] = 1;
  // Closest cross-partition pairs are the boundary neighbors (4,5) and (9,0).
  EXPECT_DOUBLE_EQ(model.min_cross_partition_one_way(partition), 0.02);
}

TEST(MinCrossPartition, SinglePartitionIsNever) {
  net::RingLatencyModel model(8, 0.1);
  std::vector<std::uint32_t> partition(8, 0);
  EXPECT_EQ(model.min_cross_partition_one_way(partition), kNever);
}

TEST(MinCrossPartition, MatrixSweepHonorsPartitions) {
  // 3 sites; (0,1) close, (0,2)/(1,2) far.
  std::vector<float> matrix{
      0.000f, 0.002f, 0.050f,  //
      0.002f, 0.000f, 0.040f,  //
      0.050f, 0.040f, 0.000f,  //
  };
  net::MatrixLatencyModel model(3, std::move(matrix));
  std::vector<std::uint32_t> split_close{0, 1, 1};
  EXPECT_DOUBLE_EQ(model.min_cross_partition_one_way(split_close),
                   0.0020000000949949026);  // float 0.002 widened
  std::vector<std::uint32_t> isolate_far{0, 0, 1};
  EXPECT_NEAR(model.min_cross_partition_one_way(isolate_far), 0.040, 1e-9);
  std::vector<std::uint32_t> one{0, 0, 0};
  EXPECT_EQ(model.min_cross_partition_one_way(one), kNever);
}

// -- ShardedEngine window semantics --

TEST(ShardedEngineUnit, ControlsFireBeforeSameTimeShardEvents) {
  sim::ShardedEngine engine({.shards = 2, .lookahead = 0.01, .serial = true});
  std::vector<int> order;
  engine.shard(0).schedule_at_ordered(1.0, 42, [&] { order.push_back(1); });
  engine.schedule_control(1.0, [&] { order.push_back(0); });
  engine.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1}));
  EXPECT_DOUBLE_EQ(engine.now(), 2.0);
  EXPECT_EQ(engine.processed(), 1u);
  EXPECT_EQ(engine.pending(), 0u);
}

TEST(ShardedEngineUnit, SameTimeControlsFireInAdmissionOrder) {
  sim::ShardedEngine engine({.shards = 2, .lookahead = 0.01, .serial = true});
  std::vector<int> order;
  engine.schedule_control(1.0, [&] { order.push_back(0); });
  engine.schedule_control(1.0, [&] { order.push_back(1); });
  engine.schedule_control(0.5, [&] { order.push_back(-1); });
  engine.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1}));
}

TEST(ShardedEngineUnit, MailboxDeliversInTimeKeyOrder) {
  sim::ShardedEngine engine({.shards = 2, .lookahead = 0.01, .serial = true});
  std::vector<int> order;
  // Cross-shard mail posted out of key order; the destination engine must
  // pop in (time, key) order after the barrier drains the mailbox.
  engine.post(0, 1, 1.0, 7, sim::InlineCallback([&] { order.push_back(7); }));
  engine.post(0, 1, 1.0, 3, sim::InlineCallback([&] { order.push_back(3); }));
  engine.post(0, 1, 0.5, 9, sim::InlineCallback([&] { order.push_back(90); }));
  EXPECT_EQ(engine.pending(), 3u);
  engine.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{90, 3, 7}));
}

TEST(ShardedEngineUnit, ControlSchedulingIntoIdleShardFiresInOrder) {
  // Shards 0 and 1 next fire at 1.0 and shard 2 is idle, so every published
  // next-event time is >= 1.0. A control at 0.5 schedules onto shard 2 an
  // event that posts to shard 0 at 0.51. The next window must be computed
  // from fresh times, or shard 0 runs past 0.51 before that mail lands.
  for (bool serial : {true, false}) {
    sim::ShardedEngine engine(
        {.shards = 3, .lookahead = 0.01, .serial = serial});
    std::vector<std::vector<int>> log(3);
    engine.shard(0).schedule_at_ordered(1.0, 1, [&] { log[0].push_back(1); });
    engine.shard(1).schedule_at_ordered(1.0, 2, [&] { log[1].push_back(2); });
    engine.schedule_control(0.5, [&] {
      engine.shard(2).schedule_at_ordered(0.5, 3, [&] {
        log[2].push_back(3);
        engine.post(2, 0, 0.51, 4,
                    sim::InlineCallback([&] { log[0].push_back(4); }));
      });
    });
    engine.run_until(2.0);
    EXPECT_EQ(log[0], (std::vector<int>{4, 1})) << "serial=" << serial;
    EXPECT_EQ(log[1], (std::vector<int>{2}));
    EXPECT_EQ(log[2], (std::vector<int>{3}));
    EXPECT_EQ(engine.pending(), 0u);
  }
}

TEST(ShardedEngineUnit, WorkerExceptionReachesCaller) {
  sim::ShardedEngine engine({.shards = 3, .lookahead = 0.01});
  engine.shard(2).schedule_at_ordered(0.5, 1, [] {
    GOCAST_ASSERT_MSG(false, "event failed on a worker");
  });
  engine.shard(0).schedule_at_ordered(0.7, 2, [] {});
  EXPECT_THROW(engine.run_until(1.0), AssertionError);
}

/// A deterministic stress workload: every event logs (time, id) on its shard
/// and spawns one child, half the time onto another shard through the
/// mailboxes. Controls start new chains and post from barrier context, and
/// the calling thread schedules and posts between run_until calls. In the
/// sparse mix a chain ends with probability 1/16 per event, so only a
/// handful are alive at a time and fresh mail is often the earliest pending
/// event.
class WindowStress {
 public:
  static constexpr SimTime kLookahead = 0.001;
  static constexpr SimTime kStop = 3.0;
  using Log = std::vector<std::pair<SimTime, std::uint64_t>>;

  WindowStress(std::size_t shards, bool serial, bool sparse)
      : engine_({.shards = shards, .lookahead = kLookahead, .serial = serial}),
        logs_(shards),
        sparse_(sparse) {}

  /// Runs the workload; returns each shard's firing sequence, then the
  /// control log as the last entry.
  std::vector<Log> run() {
    const std::size_t k = engine_.shard_count();
    for (std::uint64_t i = 0; i < 6 * k; ++i) {
      spawn(i % k, 0.0, 1000 + i);
    }
    engine_.schedule_control(0.0, [this] { control(); });
    for (int step = 1; step <= 60; ++step) {
      const SimTime t = kStop * step / 60.0;
      engine_.run_until(t);
      // Calling-thread work between run_until calls.
      const std::size_t s = static_cast<std::size_t>(step) % k;
      spawn(s, t, next_key());
      const std::size_t dst = (s + 1) % k;
      const std::uint64_t id = next_key();
      engine_.post(s, dst, t, id,
                   sim::InlineCallback([this, dst, id] { fire(dst, id); }));
    }
    EXPECT_EQ(engine_.now(), kStop);
    EXPECT_GT(engine_.windows(), 1000u);
    std::vector<Log> out = logs_;
    out.push_back(controls_);
    return out;
  }

 private:
  std::size_t k() const { return engine_.shard_count(); }
  std::uint64_t next_key() { return 1'000'000 + caller_keys_++; }

  /// Schedules event `id` on shard s at `at` (>= shard s's clock).
  void spawn(std::size_t s, SimTime at, std::uint64_t id) {
    engine_.shard(s).schedule_at_ordered(at, id,
                                         [this, s, id] { fire(s, id); });
  }

  void fire(std::size_t s, std::uint64_t id) {
    const SimTime now = engine_.shard(s).now();
    logs_[s].emplace_back(now, id);
    std::uint64_t state = id;
    const std::uint64_t r = splitmix64(state);
    const std::uint64_t child = splitmix64(state) >> 24;  // fits the key bits
    const double u = static_cast<double>(r >> 11) * 0x1.0p-53;
    if (sparse_ && (r >> 60) == 0) return;
    if (k() > 1 && (r & 1) != 0) {
      const std::size_t dst = (s + 1 + (r >> 1) % (k() - 1)) % k();
      const SimTime at = now + kLookahead + 0.002 * u;
      if (at < kStop) {
        engine_.post(s, dst, at, child,
                     sim::InlineCallback([this, dst, child] {
                       fire(dst, child);
                     }));
      }
    } else if (now + 0.003 * u < kStop) {
      spawn(s, now + 0.003 * u, child);
    }
  }

  /// Every 10 ms: log, start a chain on one shard at the control time, post
  /// onto another from barrier context, and reschedule.
  void control() {
    const SimTime now = engine_.now();
    controls_.emplace_back(now, control_count_);
    const std::size_t s = control_count_ % k();
    spawn(s, now, 5'000'000 + control_count_);
    const std::size_t dst = (s + 1) % k();
    const std::uint64_t id = 6'000'000 + control_count_;
    engine_.post(s, dst, now + 0.0002, id,
                 sim::InlineCallback([this, dst, id] { fire(dst, id); }));
    ++control_count_;
    if (now + 0.01 < kStop) {
      engine_.schedule_control(now + 0.01, [this] { control(); });
    }
  }

  sim::ShardedEngine engine_;
  std::vector<Log> logs_;  ///< per shard; written only by its thread
  const bool sparse_;
  Log controls_;
  std::uint64_t control_count_ = 0;
  std::uint64_t caller_keys_ = 0;
};

TEST(ShardedEngineUnit, ThreadedWindowsMatchSerialUnderStress) {
  for (bool sparse : {false, true}) {
    for (std::size_t k : {2u, 3u, 4u}) {
      const std::vector<WindowStress::Log> serial =
          WindowStress(k, true, sparse).run();
      const std::vector<WindowStress::Log> threaded =
          WindowStress(k, false, sparse).run();
      ASSERT_EQ(serial.size(), k + 1);
      for (std::size_t s = 0; s <= k; ++s) {
        EXPECT_GT(serial[s].size(), 100u)
            << "K=" << k << " sparse=" << sparse << " log " << s;
        EXPECT_EQ(serial[s], threaded[s])
            << "K=" << k << " sparse=" << sparse << " log " << s;
      }
    }
  }
}

// -- degenerate-lookahead fallback --

TEST(ShardedEngineUnit, OneShardRunsWithoutLookaheadBound) {
  // The serial run: one shard, infinite lookahead. Controls split the run
  // into windows; nothing else does.
  sim::ShardedEngine engine;
  EXPECT_EQ(engine.shard_count(), 1u);
  EXPECT_EQ(engine.lookahead(), kNever);
  std::vector<int> order;
  engine.shard(0).schedule_at_ordered(1.0, 5, [&] { order.push_back(1); });
  engine.shard(0).schedule_at_ordered(3.0, 1, [&] { order.push_back(3); });
  engine.schedule_control(2.0, [&] { order.push_back(2); });
  engine.run_until(4.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.windows(), 1u);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

TEST(ShardedFallback, DegenerateLookaheadFallsBackToSerial) {
  // Ring with 16 sites and 4 ms antipodal latency: a boundary step is
  // 0.5 ms, below the 0.8 ms floor, so sharding must fall back.
  core::SystemConfig config;
  config.node_count = 32;
  config.seed = 7;
  config.latency = std::make_shared<net::RingLatencyModel>(16, 0.004);
  config.shard_count = 4;
  core::System system(config);
  EXPECT_EQ(system.shard_count(), 1u);
  EXPECT_EQ(system.pdes_lookahead(), kNever);
}

TEST(ShardedFallback, SingleSiteTopologyFallsBackToSerial) {
  core::SystemConfig config;
  config.node_count = 16;
  config.seed = 7;
  // A 1x1 matrix: every node on the same site, so min(shards, sites) == 1
  // and there is nothing to partition.
  config.latency = std::make_shared<net::MatrixLatencyModel>(
      1, std::vector<float>{0.0f});
  config.shard_count = 4;
  core::System system(config);
  EXPECT_EQ(system.shard_count(), 1u);
}

// -- shard engagement on the default (synthetic King) model --

TEST(ShardedSystem, KingModelShardsEngage) {
  core::SystemConfig config;
  config.node_count = 64;
  config.seed = 5;
  config.latency = core::default_latency_model(5, 256);
  config.shard_count = 4;
  core::System system(config);
  ASSERT_EQ(system.shard_count(), 4u);
  EXPECT_GE(system.pdes_lookahead(), core::kPdesLookaheadFloor);
}

TEST(ShardedSystem, ShardsBalanceByNodeCount) {
  // Nodes sit on site id mod S, so when S does not divide n the low sites
  // hold one node more. The contiguous site ranges are cut at cumulative
  // node counts, so shards differ by at most one site's worth of nodes.
  const std::size_t sites = core::default_latency_model(3)->site_count();
  for (std::size_t n : {1024u, 8192u}) {
    for (std::size_t k : {3u, 4u}) {
      core::SystemConfig config;
      config.node_count = n;
      config.seed = 3;
      config.latency = core::default_latency_model(3);
      config.shard_count = k;
      core::System system(config);
      ASSERT_EQ(system.shard_count(), k);
      std::vector<std::size_t> per_shard(k, 0);
      for (NodeId id = 0; id < n; ++id) {
        ++per_shard[system.network().shard_of(id)];
      }
      const auto [lo, hi] =
          std::minmax_element(per_shard.begin(), per_shard.end());
      const std::size_t site_worth = (n + sites - 1) / sites;
      EXPECT_LE(*hi - *lo, site_worth) << "n=" << n << " K=" << k;
    }
  }
}

// -- full-protocol shard invariance --

harness::ScenarioConfig small_scenario(std::size_t shards) {
  harness::ScenarioConfig config;
  config.protocol = harness::Protocol::kGoCast;
  config.node_count = 192;
  config.seed = 5;
  config.warmup = 30.0;
  config.message_count = 12;
  config.message_rate = 100.0;
  config.drain = 10.0;
  config.shards = shards;
  return config;
}

void expect_identical(const harness::ScenarioResult& a,
                      const harness::ScenarioResult& b) {
  // Byte-identical, not approximately equal: EXPECT_EQ on doubles.
  EXPECT_EQ(a.delivery_checksum, b.delivery_checksum);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.alive_nodes, b.alive_nodes);
  EXPECT_EQ(a.report.messages, b.report.messages);
  EXPECT_EQ(a.report.delivered_fraction, b.report.delivered_fraction);
  EXPECT_EQ(a.report.delay.mean(), b.report.delay.mean());
  EXPECT_EQ(a.report.p50, b.report.p50);
  EXPECT_EQ(a.report.p99, b.report.p99);
  EXPECT_EQ(a.report.max_delay, b.report.max_delay);
  EXPECT_EQ(a.traffic.total_sent().messages, b.traffic.total_sent().messages);
  EXPECT_EQ(a.traffic.total_sent().bytes, b.traffic.total_sent().bytes);
  EXPECT_EQ(a.pulls_sent, b.pulls_sent);
  EXPECT_EQ(a.gossip_messages, b.gossip_messages);
  EXPECT_EQ(a.fault_log, b.fault_log);
}

TEST(ShardedScenario, KingModelInvariantAcrossShardCounts) {
  auto latency = core::default_latency_model(5, 256);
  harness::ScenarioConfig c1 = small_scenario(1);
  c1.latency = latency;
  harness::ScenarioConfig c2 = small_scenario(2);
  c2.latency = latency;
  harness::ScenarioConfig c4 = small_scenario(4);
  c4.latency = latency;
  auto r1 = harness::run_scenario(c1);
  auto r2 = harness::run_scenario(c2);
  auto r4 = harness::run_scenario(c4);
  EXPECT_GT(r1.deliveries, 0u);
  EXPECT_NE(r1.delivery_checksum, 0u);
  expect_identical(r1, r2);
  expect_identical(r1, r4);
}

/// Runs `config` at K = 1, 3 and 4 and checks that each run used the shards
/// it asked for.
std::vector<harness::ScenarioResult> run_at_one_three_four(
    harness::ScenarioConfig config) {
  std::vector<harness::ScenarioResult> results;
  for (std::size_t k : {1u, 3u, 4u}) {
    config.shards = k;
    results.push_back(harness::run_scenario(config));
    EXPECT_EQ(results.back().shard_count, k);
  }
  return results;
}

TEST(ShardedScenario, ChurnJoinsInvariantAcrossShardCounts) {
  // Session and flash-crowd joins run as controls at window barriers; each
  // joiner's first-delivery hook feeds its own shard's tracker.
  harness::ScenarioConfig config = small_scenario(1);
  config.latency = core::default_latency_model(9, 256);
  config.seed = 9;
  config.deferred_nodes = 40;
  config.drain = 20.0;
  config.check_invariants = true;
  config.fault_spec =
      "12:session:dist=gnutella,rate=1,until=40; 20:flash:n=12,ramp=2";
  const auto r = run_at_one_three_four(config);
  ASSERT_GT(r[0].joins.size(), 12u);
  EXPECT_TRUE(std::any_of(r[0].joins.begin(), r[0].joins.end(),
                          [](const auto& j) { return j.first_delivery >= 0.0; }));
  for (std::size_t i = 1; i < r.size(); ++i) {
    SCOPED_TRACE(i);
    expect_identical(r[0], r[i]);
    EXPECT_EQ(r[0].invariant_violations, r[i].invariant_violations);
    ASSERT_EQ(r[0].joins.size(), r[i].joins.size());
    for (std::size_t j = 0; j < r[0].joins.size(); ++j) {
      EXPECT_EQ(r[0].joins[j].node, r[i].joins[j].node);
      EXPECT_EQ(r[0].joins[j].at, r[i].joins[j].at);
      EXPECT_EQ(r[0].joins[j].first_delivery, r[i].joins[j].first_delivery);
      EXPECT_EQ(r[0].joins[j].to_band, r[i].joins[j].to_band);
      EXPECT_EQ(r[0].joins[j].messages, r[i].joins[j].messages);
    }
  }
}

TEST(ShardedScenario, BaselinesInvariantAcrossShardCounts) {
  // The push-gossip baselines run on the same deployment as GoCast, so they
  // shard the same way.
  for (harness::Protocol protocol :
       {harness::Protocol::kPushGossip, harness::Protocol::kNoWaitGossip}) {
    SCOPED_TRACE(harness::protocol_name(protocol));
    harness::ScenarioConfig config = small_scenario(1);
    config.protocol = protocol;
    config.latency = core::default_latency_model(5, 256);
    const auto r = run_at_one_three_four(config);
    EXPECT_GT(r[0].deliveries, 0u);
    expect_identical(r[0], r[1]);
    expect_identical(r[0], r[2]);

    // Lossy runs draw per-origin losses once there is more than one shard
    // (DESIGN.md §11), so they agree from K = 3 to K = 4, not with K = 1.
    config.loss_probability = 0.02;
    config.shards = 3;
    const auto lossy3 = harness::run_scenario(config);
    config.shards = 4;
    const auto lossy4 = harness::run_scenario(config);
    EXPECT_GT(lossy3.traffic.lost(), 0u);
    expect_identical(lossy3, lossy4);
    EXPECT_EQ(lossy3.traffic.lost(), lossy4.traffic.lost());
  }
}

TEST(ShardedScenario, MultiGroupInvariantAcrossShardCounts) {
  // One tracker per (shard, group), folded after the run; group churn joins
  // and leaves run as controls.
  for (bool mux : {false, true}) {
    SCOPED_TRACE(mux);
    harness::ScenarioConfig config = small_scenario(1);
    config.latency = core::default_latency_model(7, 256);
    config.seed = 7;
    config.message_count = 40;
    config.message_rate = 20.0;
    config.group_spec = "groups=4;zipf=0.9;pop=0.6;corr=0.25;churn=1.0";
    config.multiplex_gossip = mux;
    const auto r = run_at_one_three_four(config);
    EXPECT_NE(r[0].delivery_checksum, 0u);
    ASSERT_EQ(r[0].group_stats.size(), 4u);
    for (std::size_t i = 1; i < r.size(); ++i) {
      SCOPED_TRACE(i);
      expect_identical(r[0], r[i]);
      ASSERT_EQ(r[0].group_stats.size(), r[i].group_stats.size());
      for (std::size_t g = 0; g < r[0].group_stats.size(); ++g) {
        EXPECT_EQ(r[0].group_stats[g].members, r[i].group_stats[g].members);
        EXPECT_EQ(r[0].group_stats[g].messages, r[i].group_stats[g].messages);
        EXPECT_EQ(r[0].group_stats[g].deliveries,
                  r[i].group_stats[g].deliveries);
        EXPECT_EQ(r[0].group_stats[g].mean_delay,
                  r[i].group_stats[g].mean_delay);
      }
    }
  }
}

TEST(ShardedScenario, SitePairMapsInvariantAcrossShardCounts) {
  // Site-pair bytes accrue per shard (refunds as signed deltas in the
  // receiver's shard) and fold into one map equal to the serial run's.
  harness::ScenarioConfig config = small_scenario(1);
  config.latency = core::default_latency_model(5, 256);
  config.record_site_pairs = true;
  const auto r = run_at_one_three_four(config);
  EXPECT_FALSE(r[0].traffic.site_pair_bytes().empty());
  EXPECT_GT(r[0].traffic.aborted_bytes(), 0u);  // refunds were folded too
  for (std::size_t i = 1; i < r.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(r[0].traffic.site_pair_bytes(), r[i].traffic.site_pair_bytes());
    EXPECT_EQ(r[0].traffic.aborted_bytes(), r[i].traffic.aborted_bytes());
    expect_identical(r[0], r[i]);
  }
}

TEST(ShardedScenario, MatrixModelInvariantAcrossShardCounts) {
  // Hand-built 48-site matrix: every cross-site latency >= 2 ms (so the
  // lookahead clears the floor at any contiguous partitioning) and all the
  // latencies into a given site are distinct, one node per site. Exact
  // arrival ties are covered by CoLocatedNodesTieAndStayInvariant.
  const std::size_t sites = 48;
  std::vector<float> matrix(sites * sites, 0.0f);
  for (std::size_t i = 0; i < sites; ++i) {
    for (std::size_t j = 0; j < sites; ++j) {
      if (i == j) continue;
      matrix[i * sites + j] =
          0.002f + 0.00005f * static_cast<float>(i + j) +
          0.000001f * static_cast<float>(i * j);
    }
  }
  auto latency = std::make_shared<net::MatrixLatencyModel>(sites,
                                                           std::move(matrix));
  harness::ScenarioConfig c1 = small_scenario(1);
  c1.node_count = 48;
  c1.latency = latency;
  harness::ScenarioConfig c4 = c1;
  c4.shards = 4;
  auto r1 = harness::run_scenario(c1);
  auto r4 = harness::run_scenario(c4);
  EXPECT_GT(r1.deliveries, 0u);
  expect_identical(r1, r4);
}

TEST(ShardedScenario, CoLocatedNodesTieAndStayInvariant) {
  // Four nodes per site: co-located nodes share the intra-site latency, so a
  // message fanned out to one site's nodes arrives everywhere there at the
  // same instant, and their forwards to a common site-mate tie again — the
  // same-instant cross-origin ties the (origin, counter) order resolves the
  // same way at every shard count.
  auto latency = core::default_latency_model(5, 48);
  harness::ScenarioConfig c1 = small_scenario(1);
  c1.latency = latency;
  harness::ScenarioConfig c4 = c1;
  c4.shards = 4;
  auto r1 = harness::run_scenario(c1);
  auto r4 = harness::run_scenario(c4);
  EXPECT_GT(r1.deliveries, 0u);
  expect_identical(r1, r4);
}

TEST(ShardedScenario, InvariantCheckingStaysShardedAndInvariant) {
  // The checker sweeps as a self-rescheduling control, so it no longer pins
  // the run to one shard. A crash with maintenance frozen afterwards leaves
  // the survivors holding dead neighbors, which the sweeps must report
  // identically at every shard count.
  auto run = [](std::size_t shards) {
    core::SystemConfig config;
    config.node_count = 96;
    config.seed = 13;
    config.latency = core::default_latency_model(13, 96);
    config.shard_count = shards;
    core::System system(config);
    EXPECT_EQ(system.shard_count(), shards);
    fault::InvariantChecker checker(system);
    checker.start();
    system.start();
    system.run_until(70.0);
    system.fail_random_fraction(0.3);
    system.freeze_all();
    system.run_until(100.0);
    EXPECT_GT(checker.sweeps(), 0u);
    std::vector<std::pair<SimTime, std::string>> out;
    for (const fault::InvariantViolation& v : checker.violations()) {
      out.emplace_back(v.at, v.what);
    }
    return out;
  };
  const auto v1 = run(1);
  EXPECT_FALSE(v1.empty());
  EXPECT_EQ(v1, run(4));

  auto latency = core::default_latency_model(9, 256);
  harness::ScenarioConfig c1 = small_scenario(1);
  c1.seed = 9;
  c1.latency = latency;
  c1.check_invariants = true;
  c1.fault_spec = "30.05:crash:frac=0.1";
  harness::ScenarioConfig c4 = c1;
  c4.shards = 4;
  auto r1 = harness::run_scenario(c1);
  auto r4 = harness::run_scenario(c4);
  expect_identical(r1, r4);
  EXPECT_EQ(r1.invariant_violations, r4.invariant_violations);
}

TEST(ShardedScenario, ChurnAndFaultsInvariantAcrossShardCounts) {
  auto latency = core::default_latency_model(9, 256);
  harness::ScenarioConfig c1 = small_scenario(1);
  c1.seed = 9;
  c1.latency = latency;
  c1.drain = 20.0;
  // Crash a random 10% mid-injection, recover some during the drain: the
  // FaultInjector's victim picks must be shard-invariant (control barriers).
  c1.fault_spec = "30.05:crash:frac=0.1; 30.2:recover:count=5";
  harness::ScenarioConfig c2 = c1;
  c2.shards = 2;
  harness::ScenarioConfig c4 = c1;
  c4.shards = 4;
  auto r1 = harness::run_scenario(c1);
  auto r2 = harness::run_scenario(c2);
  auto r4 = harness::run_scenario(c4);
  EXPECT_GT(r1.deliveries, 0u);
  ASSERT_EQ(r1.fault_log.size(), 2u);
  expect_identical(r1, r2);
  expect_identical(r1, r4);
}

// -- GC-path golden --

struct GcRunResult {
  std::uint64_t deliveries = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t delivery_checksum = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t lost = 0;
  std::size_t records_held = 0;
  std::size_t gc_violations = 0;
};

GcRunResult run_gc_scenario(std::size_t shards) {
  // Windows short enough that the run crosses many sweeps: payloads drop
  // after 32 s (past the 30 s challenge-pull horizon, so honest nodes keep
  // passing audits), records after 48 s, swept every 2 s. A digest liar plants
  // payload-less records (and has them promoted when the real payload
  // arrives), the base defenses fire challenge pulls, 3% loss drives pull
  // recovery, and the invariant checker audits the store every sweep.
  core::SystemConfig config;
  config.node_count = 96;
  config.seed = 17;
  config.latency = core::default_latency_model(17, 96);
  config.shard_count = shards;
  config.net.loss_probability = 0.03;
  config.node.defense = core::DefenseProfile::kBase;
  config.node.dissemination.gc_payload_after = 32.0;
  config.node.dissemination.gc_record_after = 48.0;
  config.node.dissemination.gc_sweep_period = 2.0;
  core::System system(config);
  EXPECT_EQ(system.shard_count(), shards);
  FaultBehavior liar;
  liar.digest_liar = true;
  system.node(11).set_fault_behavior(liar);

  // Per-node logs: each node's deliveries run on its own shard, so no two
  // threads ever append to the same vector.
  std::vector<std::vector<std::uint64_t>> per_node(system.size());
  system.set_delivery_hook([&per_node](const core::DeliveryEvent& e) {
    per_node[e.node].push_back(e.id.packed());
    per_node[e.node].push_back(std::bit_cast<std::uint64_t>(e.deliver_time));
  });
  fault::InvariantChecker checker(system);
  checker.start();
  system.start();
  for (std::size_t m = 0; m < 240; ++m) {
    system.schedule_control(25.0 + 0.125 * static_cast<double>(m), [&system] {
      system.node(system.random_alive_node()).multicast(512);
    });
  }
  system.run_until(110.0);

  GcRunResult r;
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (NodeId id = 0; id < system.size(); ++id) {
    r.deliveries += system.node(id).deliveries_count();
    r.duplicates += system.node(id).duplicates_count();
    r.records_held += system.node(id).dissemination().store_size();
    for (std::uint64_t v : per_node[id]) h = (h ^ v) * 0x100000001b3ULL;
  }
  r.delivery_checksum = h;
  r.messages_sent = system.network().traffic().total_sent().messages;
  r.bytes_sent = system.network().traffic().total_sent().bytes;
  r.lost = system.network().traffic().lost();
  for (const fault::InvariantViolation& v : checker.violations()) {
    if (v.what.find("retains") != std::string::npos) ++r.gc_violations;
  }
  return r;
}

TEST(ShardedScenario, GcPathGoldenAtShardsOneAndFour) {
  // Pinned golden for the store's GC path: the 512-node and defense goldens
  // end before the default waiting period b, so neither reaches payload
  // drops or record erases. Any drift here means GC behavior moved. Lossy
  // runs draw their losses from a different stream once there is more than
  // one shard (DESIGN.md §11), so each shard count has its own figures.
  struct Golden {
    std::size_t shards;
    GcRunResult expect;
  };
  const Golden goldens[] = {
      {1, {22977, 36170, 12733882814940711755ULL, 410687, 62335184, 12372}},
      {4, {23032, 36831, 3517470215260978611ULL, 411315, 62745030, 12271}},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.shards);
    const GcRunResult r = run_gc_scenario(g.shards);
    EXPECT_EQ(r.deliveries, g.expect.deliveries);
    EXPECT_EQ(r.duplicates, g.expect.duplicates);
    EXPECT_EQ(r.delivery_checksum, g.expect.delivery_checksum);
    EXPECT_EQ(r.messages_sent, g.expect.messages_sent);
    EXPECT_EQ(r.bytes_sent, g.expect.bytes_sent);
    EXPECT_EQ(r.lost, g.expect.lost);
    // Messages ended at 55 s: every record is older than 48 s by 110 s and
    // was erased, and no audit found a payload or record held past its
    // bound.
    EXPECT_EQ(r.records_held, 0u);
    EXPECT_EQ(r.gc_violations, 0u);
  }
}

TEST(ShardedSystem, SerialWindowsMatchThreadedWindows) {
  auto run = [](bool serial) {
    core::SystemConfig config;
    config.node_count = 96;
    config.seed = 11;
    config.latency = core::default_latency_model(11, 96);
    config.shard_count = 4;
    config.pdes_serial = serial;
    core::System system(config);
    EXPECT_EQ(system.shard_count(), 4u);
    system.start();
    system.run_until(20.0);
    for (std::size_t m = 0; m < 6; ++m) {
      system.schedule_control(20.0 + 0.25 * static_cast<double>(m),
                              [&system] {
                                system.node(system.random_alive_node())
                                    .multicast(512);
                              });
    }
    system.run_until(30.0);
    std::uint64_t checksum = 0xcbf29ce484222325ULL;
    auto mix = [&checksum](std::uint64_t v) {
      checksum = (checksum ^ v) * 0x100000001b3ULL;
    };
    for (NodeId id = 0; id < system.size(); ++id) {
      mix(system.node(id).deliveries_count());
      mix(system.node(id).duplicates_count());
    }
    mix(system.network().traffic().total_sent().messages);
    mix(system.network().traffic().total_sent().bytes);
    mix(system.events_processed());
    return checksum;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace gocast
