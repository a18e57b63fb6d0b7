// Tests for the dissemination layer: tree push, gossip digests, pulls,
// the pull-delay threshold, duplicate suppression, GC, and the gossip-only
// mode used by the baselines.
#include "gocast/dissemination.h"

#include <gtest/gtest.h>

#include "analysis/delivery_tracker.h"
#include "gocast/system.h"

namespace gocast::core {
namespace {

SystemConfig small_config(std::size_t n, std::uint64_t seed = 3) {
  SystemConfig config;
  config.node_count = n;
  config.seed = seed;
  return config;
}

TEST(Dissemination, TreePushReachesEveryNodeExactlyOnce) {
  SystemConfig tree_only = small_config(32);
  // Give the tree a generous head start so no gossip pull races it: every
  // delivery should then come from exactly one tree push.
  tree_only.node.dissemination.pull_delay_threshold = 2.0;
  System system(tree_only);
  analysis::DeliveryTracker tracker(32);
  system.set_delivery_hook(tracker.hook());
  system.start();
  system.run_for(60.0);

  tracker.set_recording(true);
  system.node(5).multicast(512);
  system.run_for(5.0);

  auto report = tracker.report(system.alive_nodes());
  EXPECT_EQ(report.messages, 1u);
  EXPECT_DOUBLE_EQ(report.delivered_fraction, 1.0);

  std::uint64_t duplicates = 0;
  for (NodeId id = 0; id < 32; ++id) {
    duplicates += system.node(id).duplicates_count();
  }
  // With an intact tree and the pull threshold, deliveries are unique.
  EXPECT_EQ(duplicates, 0u);
}

TEST(Dissemination, AnyNodeCanStartAMulticast) {
  System system(small_config(16));
  analysis::DeliveryTracker tracker(16);
  system.set_delivery_hook(tracker.hook());
  system.start();
  system.run_for(60.0);
  tracker.set_recording(true);

  for (NodeId source = 0; source < 16; source += 5) {
    system.node(source).multicast(128);
  }
  system.run_for(5.0);
  auto report = tracker.report(system.alive_nodes());
  EXPECT_EQ(report.messages, 4u);
  EXPECT_DOUBLE_EQ(report.delivered_fraction, 1.0);
}

TEST(Dissemination, MessageIdsArePerSourceSequences) {
  System system(small_config(8));
  system.start();
  MsgId a = system.node(2).multicast(64);
  MsgId b = system.node(2).multicast(64);
  MsgId c = system.node(3).multicast(64);
  EXPECT_EQ(a.origin, 2u);
  EXPECT_EQ(a.seq + 1, b.seq);
  EXPECT_EQ(c.origin, 3u);
  EXPECT_EQ(c.seq, 0u);
}

TEST(Dissemination, GcSweepFreesDrainedBacklogs) {
  System system(small_config(32));
  system.start();
  system.run_for(60.0);
  for (int m = 0; m < 40; ++m) system.node(m % 4).multicast(128);
  system.run_for(1.0);
  std::size_t during = 0;
  for (NodeId id = 0; id < 32; ++id) {
    during += system.node(id).dissemination().backlog_capacity();
  }
  EXPECT_GT(during, 0u);
  // Long enough for every backlog to drain and every node to sweep twice
  // (the sweep period is 5 s); no new ids arrive in between.
  system.run_for(12.0);
  for (NodeId id = 0; id < 32; ++id) {
    EXPECT_EQ(system.node(id).dissemination().backlog_capacity(), 0u)
        << "node " << id;
  }
}

TEST(Dissemination, GossipOnlyModeStillDeliversEverywhere) {
  SystemConfig config = small_config(24);
  config.node.dissemination.use_tree = false;
  System system(config);
  analysis::DeliveryTracker tracker(24);
  system.set_delivery_hook(tracker.hook());
  system.start();
  system.run_for(60.0);
  tracker.set_recording(true);

  system.node(0).multicast(256);
  system.run_for(20.0);  // gossip is slower: give it time

  auto report = tracker.report(system.alive_nodes());
  EXPECT_DOUBLE_EQ(report.delivered_fraction, 1.0);
  // Without a tree every remote delivery is a pull.
  std::uint64_t pulls = 0;
  for (NodeId id = 0; id < 24; ++id) {
    pulls += system.node(id).dissemination().pulls_sent();
  }
  EXPECT_GE(pulls, 23u);
}

TEST(Dissemination, GossipRecoversFromBrokenTree) {
  // Freeze everything, then surgically break the tree by killing a cut
  // node: gossip must still deliver to the fragment.
  System system(small_config(24, 11));
  analysis::DeliveryTracker tracker(24);
  system.set_delivery_hook(tracker.hook());
  system.start();
  system.run_for(60.0);

  // Kill 25% of nodes and freeze repair: tree fragments guaranteed.
  system.fail_random_fraction(0.25);
  system.freeze_all();
  system.run_for(1.0);

  tracker.set_recording(true);
  for (int i = 0; i < 3; ++i) {
    system.node(system.random_alive_node()).multicast(128);
  }
  system.run_for(30.0);

  auto report = tracker.report(system.alive_nodes());
  EXPECT_DOUBLE_EQ(report.delivered_fraction, 1.0);
}

TEST(Dissemination, PullDelayThresholdSuppressesRedundantTransfers) {
  auto run_with_f = [](SimTime f) {
    SystemConfig config = small_config(48, 13);
    config.node.dissemination.pull_delay_threshold = f;
    System system(config);
    system.start();
    system.run_for(90.0);
    for (int i = 0; i < 10; ++i) {
      system.node(system.random_alive_node()).multicast(128);
      system.run_for(0.3);
    }
    system.run_for(10.0);
    std::uint64_t duplicates = 0;
    std::uint64_t deliveries = 0;
    for (NodeId id = 0; id < 48; ++id) {
      duplicates += system.node(id).duplicates_count();
      deliveries += system.node(id).deliveries_count();
    }
    return std::make_pair(duplicates, deliveries);
  };

  auto [dup_f0, del_f0] = run_with_f(0.0);
  auto [dup_f1, del_f1] = run_with_f(1.0);
  EXPECT_EQ(del_f0, del_f1);  // same deliveries either way
  EXPECT_LE(dup_f1, dup_f0);  // threshold can only reduce redundancy
}

TEST(Dissemination, StoreGarbageCollectsOldMessages) {
  SystemConfig config = small_config(8);
  config.node.dissemination.gc_payload_after = 2.0;
  config.node.dissemination.gc_record_after = 4.0;
  config.node.dissemination.gc_sweep_period = 0.5;
  System system(config);
  system.start();
  system.run_for(10.0);

  system.node(0).multicast(128);
  system.run_for(2.0);
  EXPECT_TRUE(system.node(0).dissemination().has_message(MsgId{0, 0}));
  system.run_for(10.0);
  EXPECT_FALSE(system.node(0).dissemination().has_message(MsgId{0, 0}));
  EXPECT_EQ(system.node(0).dissemination().store_size(), 0u);
}

TEST(Dissemination, GossipCountersAdvance) {
  System system(small_config(8));
  system.start();
  system.run_for(5.0);
  const auto& d = system.node(0).dissemination();
  EXPECT_GT(d.gossips_sent(), 0u);
  // Empty digests by default (no messages yet) still flow for membership.
  EXPECT_EQ(d.digest_entries_sent(), 0u);
}

TEST(Dissemination, SkipEmptyGossipsSuppressesIdleTraffic) {
  SystemConfig config = small_config(8);
  config.node.dissemination.skip_empty_gossips = true;
  System system(config);
  system.start();
  system.run_for(5.0);
  std::uint64_t gossips = 0;
  for (NodeId id = 0; id < 8; ++id) {
    gossips += system.node(id).dissemination().gossips_sent();
  }
  EXPECT_EQ(gossips, 0u);
}

TEST(Dissemination, DeadNodesDeliverNothing) {
  System system(small_config(16, 17));
  analysis::DeliveryTracker tracker(16);
  system.set_delivery_hook(tracker.hook());
  system.start();
  system.run_for(30.0);

  system.node(3).kill();
  system.run_for(2.0);
  tracker.set_recording(true);
  system.node(0).multicast(128);
  system.run_for(10.0);

  auto all = system.alive_nodes();
  auto report = tracker.report(all);
  EXPECT_EQ(report.live_nodes, 15u);
  EXPECT_DOUBLE_EQ(report.delivered_fraction, 1.0);
  // The dead node must not appear as a deliverer.
  EXPECT_EQ(system.node(3).deliveries_count(), 0u);
}

TEST(Dissemination, ElapsedTimeTravelsWithPulledMessages) {
  // A message pulled long after injection must preserve its original
  // inject_time (used by the f threshold and the delay metrics).
  SystemConfig config = small_config(16, 19);
  config.node.dissemination.use_tree = false;
  System system(config);
  analysis::DeliveryTracker tracker(16);
  system.set_delivery_hook(tracker.hook());
  system.start();
  system.run_for(30.0);
  tracker.set_recording(true);

  SimTime inject_at = system.now();
  system.node(0).multicast(64);
  system.run_for(15.0);

  auto report = tracker.report(system.alive_nodes());
  ASSERT_EQ(report.messages, 1u);
  // All delays measured relative to the true inject time: max must be
  // well over one gossip period but nonnegative.
  EXPECT_GT(report.max_delay, 0.0);
  EXPECT_LT(report.max_delay, 15.0);
  (void)inject_at;
}

}  // namespace
}  // namespace gocast::core
