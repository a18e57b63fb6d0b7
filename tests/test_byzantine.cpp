// Tests for the adversarial fault models (DESIGN.md §9): per-node behavior
// semantics (mute forwarder, digest liar, degree liar, slow), the suspicion
// defenses (eviction under attack, no false positives on honest runs), and
// pull recovery under sustained link loss including the pending-pull GC
// guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "gocast/messages.h"
#include "gocast/system.h"
#include "harness/scenario.h"

namespace gocast::core {
namespace {

FaultBehavior mute_behavior() {
  FaultBehavior b;
  b.mute_forwarder = true;
  return b;
}

FaultBehavior liar_behavior() {
  FaultBehavior b;
  b.digest_liar = true;
  return b;
}

// ---------------------------------------------------------------------------
// Behavior semantics at the node level
// ---------------------------------------------------------------------------

TEST(MuteForwarder, DeliversButNeverAdvertisesForeignMessages) {
  SystemConfig config;
  config.node_count = 32;
  config.seed = 31;
  System system(config);
  system.start();
  system.run_for(60.0);

  const NodeId mute = 5;
  system.node(mute).set_fault_behavior(mute_behavior());

  const std::size_t kMessages = 20;
  for (std::size_t i = 0; i < kMessages; ++i) {
    NodeId source = static_cast<NodeId>((mute + 1 + i) % system.size());
    ASSERT_NE(source, mute);
    system.node(source).multicast(256);
    system.run_for(0.5);
  }
  system.run_for(15.0);  // gossip/pull recovery around the mute node

  // The free-rider keeps consuming: every message is delivered to it...
  EXPECT_EQ(system.node(mute).deliveries_count(), kMessages);
  // ...but it advertised none of them (no digest entries, honest traffic
  // only, so its pending queues never fill).
  EXPECT_EQ(system.node(mute).dissemination().digest_entries_sent(), 0u);
  // Honest nodes still get everything — tree fragments around the mute hole
  // are rescued by gossip pulls through other neighbors.
  for (NodeId id = 0; id < system.size(); ++id) {
    if (id == mute) continue;
    EXPECT_EQ(system.node(id).deliveries_count(), kMessages) << "node " << id;
  }

  // Free-rider semantics: the mute node still disseminates its OWN
  // multicasts (muting sheds relay cost, it is not self-censorship).
  system.node(mute).multicast(256);
  system.run_for(15.0);
  for (NodeId id = 0; id < system.size(); ++id) {
    EXPECT_EQ(system.node(id).deliveries_count(), kMessages + 1)
        << "node " << id;
  }
}

TEST(DigestLiar, PlantsRecordsItNeverHoldsAndNeverPulls) {
  SystemConfig config;
  config.node_count = 16;
  config.seed = 32;
  System system(config);
  system.start();
  system.run_for(30.0);

  const NodeId liar = 3;
  system.node(liar).set_fault_behavior(liar_behavior());
  auto& diss = system.node(liar).dissemination();

  std::vector<NodeId> neighbors = system.node(liar).overlay().neighbor_ids();
  ASSERT_FALSE(neighbors.empty());
  const MsgId fake{9, 1234};  // never actually multicast by node 9
  GossipDigestMsg digest({DigestEntry{fake, system.now() - 0.5}}, {},
                         system.node(liar).overlay().my_degrees());
  diss.on_gossip_digest(neighbors.front(), digest);

  // The liar planted a payload-less record for the id...
  EXPECT_TRUE(diss.has_message(fake));
  system.run_for(2.0);
  EXPECT_EQ(diss.records_older_than(1.0), 1u);
  EXPECT_EQ(diss.payloads_older_than(1.0), 0u);
  // ...never fetches the real payload...
  system.run_for(5.0);
  EXPECT_EQ(diss.pulls_sent(), 0u);
  // ...and re-advertises it to other neighbors as if stored.
  EXPECT_GE(diss.digest_entries_sent(), 1u);
}

TEST(DegreeLiar, AdvertisesFakeDegrees) {
  SystemConfig config;
  config.node_count = 32;
  config.seed = 33;
  System system(config);
  system.start();
  system.run_for(90.0);  // converge to the 1 random + 5 nearby target

  const NodeId liar = 4;
  ASSERT_GE(system.node(liar).overlay().neighbor_ids().size(), 4u);
  net::PeerDegrees honest = system.node(liar).overlay().my_degrees();
  EXPECT_GT(honest.rand_degree + honest.near_degree, 0);

  FaultBehavior b;
  b.degree_liar = true;
  b.fake_rand_degree = 0;
  b.fake_near_degree = 1;
  system.node(liar).set_fault_behavior(b);
  net::PeerDegrees faked = system.node(liar).overlay().my_degrees();
  EXPECT_EQ(faked.rand_degree, 0);
  EXPECT_EQ(faked.near_degree, 1);
  // The lie is what goes on the wire; the actual neighbor set is unchanged.
  EXPECT_GE(system.node(liar).overlay().neighbor_ids().size(), 4u);
}

TEST(SlowNode, StillDeliversEverything) {
  SystemConfig config;
  config.node_count = 16;
  config.seed = 34;
  System system(config);
  system.start();
  system.run_for(40.0);

  const NodeId slow = 2;
  FaultBehavior b;
  b.processing_delay = 0.05;
  system.node(slow).set_fault_behavior(b);

  const std::size_t kMessages = 10;
  for (std::size_t i = 0; i < kMessages; ++i) {
    system.node(0).multicast(256);
    system.run_for(0.5);
  }
  system.run_for(10.0);
  // Slow is degradation, not loss: every message still lands.
  EXPECT_EQ(system.node(slow).deliveries_count(), kMessages);
}

// ---------------------------------------------------------------------------
// Defenses at the scenario level
// ---------------------------------------------------------------------------

TEST(Defenses, EvictMuteForwardersUnderTraffic) {
  harness::ScenarioConfig config;
  config.protocol = harness::Protocol::kGoCast;
  config.node_count = 64;
  config.seed = 11;
  config.warmup = 90.0;
  config.message_count = 400;
  config.message_rate = 25.0;
  config.payload_bytes = 256;
  config.loss_probability = 0.03;
  config.exclude_adversaries = true;
  config.drain = 10.0;
  config.fault_spec = "70:mute_forwarder:frac=0.125";
  config.defense = DefenseProfile::kBase;

  harness::ScenarioResult result = harness::run_scenario(config);
  // Challenge pulls catch the mutes: honest neighbors evict real adversaries.
  EXPECT_GT(result.adversary_evictions, 0u);
  EXPECT_GT(result.audits_sent, 0u);
  // Honest participants keep a healthy delivery rate meanwhile.
  EXPECT_GE(result.report.delivered_fraction, 0.95);
}

TEST(Defenses, HonestRunAtZeroLossHasNoEvictions) {
  // The no-false-positive guarantee: with every defense armed but nobody
  // misbehaving and no loss, nothing ever crosses the suspicion threshold.
  harness::ScenarioConfig config;
  config.protocol = harness::Protocol::kGoCast;
  config.node_count = 48;
  config.seed = 7;
  config.warmup = 60.0;
  config.message_count = 300;
  config.message_rate = 50.0;
  config.payload_bytes = 256;
  config.drain = 10.0;
  config.defense = DefenseProfile::kBase;

  harness::ScenarioResult result = harness::run_scenario(config);
  EXPECT_EQ(result.suspects_evicted, 0u);
  EXPECT_GE(result.report.delivered_fraction, 0.999);
}

TEST(DefenseGoldens, FullDefensesLossyMuteScenarioIsByteIdentical) {
  // Pinned golden for a defended run: every defense armed, 3% loss, mute
  // forwarders plus a colluding clique. The undefended 512-node golden
  // cannot see a change to the suspicion, audit, cover-detection or
  // join-path code; any drift here means defended behavior moved.
  harness::ScenarioConfig config;
  config.protocol = harness::Protocol::kGoCast;
  config.node_count = 128;
  config.seed = 5;
  config.warmup = 60.0;
  config.message_count = 900;
  config.message_rate = 20.0;
  config.payload_bytes = 256;
  config.loss_probability = 0.03;
  config.drain = 10.0;
  config.fault_spec = "40:mute_forwarder:frac=0.0625; 40:clique:count=8";
  config.defense = DefenseProfile::kFull;

  harness::ScenarioResult r = harness::run_scenario(config);
  EXPECT_EQ(r.deliveries, 115093u);
  EXPECT_EQ(r.duplicates, 65899u);
  EXPECT_EQ(r.suspects_evicted, 254u);
  EXPECT_EQ(r.cover_evictions, 20u);
  EXPECT_EQ(r.delivery_checksum, 1734523406083856500ULL);
  EXPECT_EQ(r.traffic.total_sent().messages, 680569u);
  EXPECT_EQ(r.traffic.total_sent().bytes, 99660556u);
  EXPECT_EQ(r.traffic.delivered(), 659939u);
  EXPECT_EQ(r.traffic.lost(), 20309u);
}

// ---------------------------------------------------------------------------
// Pull recovery under sustained loss (waiting-period GC guarantee)
// ---------------------------------------------------------------------------

TEST(PullRecovery, SustainedLossIsRecoveredAndPendingPullsDrain) {
  SystemConfig config;
  config.node_count = 32;
  config.seed = 13;
  System system(config);
  system.start();
  system.run_for(60.0);
  system.network().set_loss_probability(0.3);

  const std::size_t kMessages = 40;
  for (std::size_t i = 0; i < kMessages; ++i) {
    system.node(static_cast<NodeId>(i % system.size())).multicast(256);
    system.run_for(0.5);
  }
  system.run_for(20.0);  // recovery window: retried pulls fill the holes

  std::uint64_t deliveries = 0;
  std::uint64_t pulls = 0;
  for (NodeId id = 0; id < system.size(); ++id) {
    deliveries += system.node(id).deliveries_count();
    pulls += system.node(id).dissemination().pulls_sent();
  }
  // Despite 30% loss on every message, gossip + retried pulls recover almost
  // every (message, node) pair — and pulls demonstrably did the work.
  const double expected =
      static_cast<double>(kMessages) * static_cast<double>(system.size());
  EXPECT_GE(static_cast<double>(deliveries), 0.95 * expected);
  EXPECT_GT(pulls, 0u);

  // After the waiting period b (gc_payload_after) past the last injection,
  // every in-flight pull has either succeeded, exhausted its retry budget,
  // or been reclaimed by the GC: pull_pending_ must be empty everywhere.
  system.run_for(config.node.dissemination.gc_payload_after +
                 2.0 * config.node.dissemination.gc_sweep_period);
  for (NodeId id = 0; id < system.size(); ++id) {
    EXPECT_EQ(system.node(id).dissemination().pull_pending_size(), 0u)
        << "node " << id;
  }
}

}  // namespace
}  // namespace gocast::core
