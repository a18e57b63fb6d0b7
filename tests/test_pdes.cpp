// Sharded conservative-PDES tests (DESIGN.md §11): ordered engine admission,
// cross-partition lookahead queries, window/control/mailbox semantics of
// ShardedEngine, the one-shard fallbacks, and — the headline — that
// full-protocol runs are byte-identical at every shard count, including under
// same-instant arrival ties, churn, scripted faults and invariant checking.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

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

TEST(ShardedFallback, MultiGroupFallsBackToSerial) {
  core::SystemConfig config;
  config.node_count = 64;
  config.seed = 7;
  config.latency = core::default_latency_model(7, 96);
  config.shard_count = 2;
  config.groups.group_count = 4;
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

TEST(ShardedScenario, SitePairRecordingRunsSerially) {
  // The site-pair traffic map is shared, so System keeps such runs on one
  // shard even where the model would shard (KingModelShardsEngage
  // uses the same model). The harness leaves that decision to System: a
  // scenario asking for 4 shards must run and record exactly as 1 shard.
  auto latency = core::default_latency_model(5, 256);
  core::SystemConfig config;
  config.node_count = 64;
  config.seed = 5;
  config.latency = latency;
  config.shard_count = 4;
  config.net.record_site_pairs = true;
  core::System system(config);
  EXPECT_EQ(system.shard_count(), 1u);

  harness::ScenarioConfig c1 = small_scenario(1);
  c1.latency = latency;
  c1.record_site_pairs = true;
  harness::ScenarioConfig c4 = c1;
  c4.shards = 4;
  auto r1 = harness::run_scenario(c1);
  auto r4 = harness::run_scenario(c4);
  EXPECT_FALSE(r1.traffic.site_pair_bytes().empty());
  EXPECT_EQ(r1.traffic.site_pair_bytes(), r4.traffic.site_pair_bytes());
  expect_identical(r1, r4);
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
