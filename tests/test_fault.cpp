// Tests for the fault-injection subsystem: plan construction and spec
// round-trips, link-policy evaluation, injector determinism (runs are pure
// functions of the seed), crash/recover semantics against a live system,
// and the invariant checker (silent on healthy runs, loud on planted bugs).
#include "fault/fault_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/assert.h"
#include "fault/fault_injector.h"
#include "fault/invariant_checker.h"
#include "fault/link_policy.h"
#include "gocast/system.h"
#include "harness/runner.h"

namespace gocast::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, BuildersKeepTheTimelineSorted) {
  FaultPlan plan;
  plan.heal(60.0).crash_fraction(10.0, 0.2).partition_fraction(30.0, 0.3);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kPartition);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kHeal);
}

TEST(FaultPlan, ParsesTheDocumentedExample) {
  FaultPlan plan =
      FaultPlan::parse("330:crash:frac=0.2; 400:partition:frac=0.3; 460:heal");
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kCrash);
  EXPECT_DOUBLE_EQ(plan.events()[0].at, 330.0);
  EXPECT_DOUBLE_EQ(plan.events()[0].fraction, 0.2);
  EXPECT_EQ(plan.events()[1].kind, FaultKind::kPartition);
  EXPECT_DOUBLE_EQ(plan.events()[1].fraction, 0.3);
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kHeal);
  EXPECT_DOUBLE_EQ(plan.events()[2].at, 460.0);
}

TEST(FaultPlan, EmptySpecIsAnEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
  EXPECT_TRUE(FaultPlan::parse("  ; ;").empty());
}

TEST(FaultPlan, SpecRoundTripsEveryKind) {
  FaultPlan plan;
  plan.crash_fraction(10.5, 0.25)
      .crash_count(11.0, 3)
      .crash_node(12.0, 42)
      .crash_site(13.0, 7)
      .recover_count(14.0, 2)
      .recover_node(15.0, 42)
      .partition_fraction(16.0, 0.3)
      .heal(17.0)
      .degrade(18.0, 2.5, 0.05, 0.1, 0.2)
      .restore(19.0)
      .set_loss(20.0, 0.05);
  FaultPlan reparsed = FaultPlan::parse(plan.to_spec());
  EXPECT_EQ(reparsed, plan);
  // And the spec itself is a fixed point.
  EXPECT_EQ(reparsed.to_spec(), plan.to_spec());
}

TEST(FaultPlan, SpecRoundTripsAdversarialKinds) {
  FaultPlan plan;
  plan.mute_forwarder_fraction(10.0, 0.1)
      .mute_forwarder_node(11.0, 3)
      .digest_liar_fraction(12.0, 0.05)
      .digest_liar_node(13.0, 7)
      .degree_liar_fraction(14.0, 0.1)
      .degree_liar_fraction(14.5, 0.1, 2, 3)
      .slow_fraction(15.0, 0.2, 0.05)
      .slow_node(16.0, 9, 0.01)
      .cure_node(17.0, 3)
      .cure_all(18.0);
  FaultPlan reparsed = FaultPlan::parse(plan.to_spec());
  EXPECT_EQ(reparsed, plan);
  EXPECT_EQ(reparsed.to_spec(), plan.to_spec());
}

TEST(FaultPlan, RejectsMalformedAdversarialSpecs) {
  // slow requires a positive delay=.
  EXPECT_THROW(FaultPlan::parse("10:slow:frac=0.1"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:slow:delay=0,frac=0.1"), AssertionError);
  // Behavior kinds need victims.
  EXPECT_THROW(FaultPlan::parse("10:mute_forwarder"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:degree_liar:rand=2"), AssertionError);
  // cure takes at most node=.
  EXPECT_THROW(FaultPlan::parse("10:cure:frac=0.5"), AssertionError);
  // Keys of other kinds are rejected, not ignored.
  EXPECT_THROW(FaultPlan::parse("10:digest_liar:node=1,delay=0.1"),
               AssertionError);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("10:explode"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("crash:frac=0.1"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:crash"), AssertionError);  // no victims
  EXPECT_THROW(FaultPlan::parse("10:crash:frac=abc"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:crash:bogus=1"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:heal:frac=0.2"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("-5:heal"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:degrade"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:loss:p=1.5"), AssertionError);
}

// ---------------------------------------------------------------------------
// LinkPolicyTable
// ---------------------------------------------------------------------------

TEST(LinkPolicyTable, PartitionBlocksCrossIslandLinksOnly) {
  LinkPolicyTable table(4);
  EXPECT_FALSE(table.partition_active());
  table.set_group(2, 1);
  table.set_group(3, 1);
  EXPECT_TRUE(table.partition_active());
  EXPECT_TRUE(table.severed(0, 2));
  EXPECT_TRUE(table.evaluate(0, 2).blocked);
  EXPECT_TRUE(table.evaluate(2, 0).blocked);
  EXPECT_FALSE(table.evaluate(0, 1).blocked);  // both island 0
  EXPECT_FALSE(table.evaluate(2, 3).blocked);  // both island 1
  table.heal_partitions();
  EXPECT_FALSE(table.partition_active());
  EXPECT_FALSE(table.evaluate(0, 2).blocked);
}

TEST(LinkPolicyTable, DegradationsCombineWorstCase) {
  LinkPolicyTable table(3);
  EXPECT_TRUE(table.evaluate(0, 1).trivial());

  table.degrade_all({2.0, 0.01, 0.5});
  table.degrade_node(1, {3.0, 0.02, 0.5});
  net::LinkDecision touching = table.evaluate(0, 1);
  EXPECT_DOUBLE_EQ(touching.latency_multiplier, 3.0);  // max of 2.0, 3.0
  EXPECT_DOUBLE_EQ(touching.jitter, 0.02);
  // Independent composition: 1 - (1-0.5)(1-0.5).
  EXPECT_DOUBLE_EQ(touching.extra_loss, 0.75);

  net::LinkDecision elsewhere = table.evaluate(0, 2);
  EXPECT_DOUBLE_EQ(elsewhere.latency_multiplier, 2.0);  // global only
  EXPECT_DOUBLE_EQ(elsewhere.extra_loss, 0.5);

  table.restore();
  EXPECT_FALSE(table.degraded());
  EXPECT_TRUE(table.evaluate(0, 1).trivial());
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultPlan busy_plan() {
  FaultPlan plan;
  plan.crash_fraction(30.0, 0.2)
      .partition_fraction(35.0, 0.3)
      .recover_count(40.0, 2)
      .heal(45.0)
      .degrade(50.0, 2.0, 0.01, 0.0, 0.25)
      .restore(55.0);
  return plan;
}

std::vector<std::string> run_injector(std::uint64_t seed) {
  core::SystemConfig config;
  config.node_count = 32;
  config.seed = seed;
  core::System system(config);
  FaultInjector injector(system, busy_plan(), Rng(seed).fork("faults"));
  injector.arm();
  system.start();
  system.run_until(60.0);
  EXPECT_EQ(injector.events_applied(), busy_plan().size());
  return injector.log();
}

TEST(FaultInjector, SameSeedProducesIdenticalEventLog) {
  std::vector<std::string> first = run_injector(21);
  std::vector<std::string> second = run_injector(21);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FaultInjector, DifferentSeedsPickDifferentVictims) {
  // Not guaranteed for every pair of seeds, but these differ.
  EXPECT_NE(run_injector(21), run_injector(22));
}

TEST(FaultInjector, CrashAndRecoverChangeAliveCounts) {
  core::SystemConfig config;
  config.node_count = 32;
  config.seed = 5;
  core::System system(config);
  FaultPlan plan;
  plan.crash_count(10.0, 6).recover_count(20.0, 6);
  FaultInjector injector(system, plan, Rng(5).fork("faults"));
  injector.arm();
  system.start();
  system.run_until(15.0);
  EXPECT_EQ(system.network().alive_count(), 26u);
  system.run_until(30.0);
  EXPECT_EQ(system.network().alive_count(), 32u);
}

TEST(FaultInjector, NeverCrashesTheWholeSystem) {
  core::SystemConfig config;
  config.node_count = 16;
  config.seed = 9;
  core::System system(config);
  FaultPlan plan;
  plan.crash_fraction(10.0, 1.0);
  FaultInjector injector(system, plan, Rng(9).fork("faults"));
  injector.arm();
  system.start();
  system.run_until(15.0);
  EXPECT_GE(system.network().alive_count(), 1u);
}

TEST(FaultInjector, PartitionSplitsAndHealRejoinsThePolicy) {
  core::SystemConfig config;
  config.node_count = 16;
  config.seed = 3;
  core::System system(config);
  FaultPlan plan;
  plan.partition_fraction(5.0, 0.5).heal(10.0);
  FaultInjector injector(system, plan, Rng(3).fork("faults"));
  injector.arm();
  system.start();
  system.run_until(7.0);
  EXPECT_TRUE(injector.policy().partition_active());
  system.run_until(12.0);
  EXPECT_FALSE(injector.policy().partition_active());
}

// ---------------------------------------------------------------------------
// FaultInjector: adversarial behaviors
// ---------------------------------------------------------------------------

FaultPlan behavior_plan() {
  FaultPlan plan;
  plan.mute_forwarder_fraction(10.0, 0.15)
      .digest_liar_fraction(10.0, 0.1)
      .degree_liar_fraction(12.0, 0.1, 1, 1)
      .slow_fraction(14.0, 0.1, 0.02);
  return plan;
}

/// Runs the behavior plan against a fresh system and returns the victim set.
std::vector<NodeId> behavior_victims(std::uint64_t seed) {
  core::SystemConfig config;
  config.node_count = 48;
  config.seed = seed;
  core::System system(config);
  FaultInjector injector(system, behavior_plan(), Rng(seed).fork("faults"));
  injector.arm();
  system.start();
  system.run_until(20.0);
  EXPECT_EQ(injector.events_applied(), behavior_plan().size());
  return injector.adversaries();
}

TEST(FaultInjector, SameSeedSameAdversarySet) {
  std::vector<NodeId> first = behavior_victims(21);
  ASSERT_FALSE(first.empty());
  EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
  EXPECT_EQ(first, behavior_victims(21));
  EXPECT_NE(first, behavior_victims(22));
}

TEST(FaultInjector, AdversarySelectionIsThreadCountInvariant) {
  // Victim selection is a pure function of the job's own seed, so running
  // replications through the Runner must give the same victim sets at any
  // worker count (the bench's byte-identical-CSV contract).
  auto job = [](std::size_t i) {
    return behavior_victims(21 + static_cast<std::uint64_t>(i));
  };
  harness::Runner serial(1);
  harness::Runner pooled(4);
  std::vector<std::vector<NodeId>> a =
      serial.run<std::vector<NodeId>>(4, job);
  std::vector<std::vector<NodeId>> b =
      pooled.run<std::vector<NodeId>>(4, job);
  EXPECT_EQ(a, b);
}

TEST(FaultInjector, BehaviorsFlipNodesAdversarialAndCureRevokes) {
  core::SystemConfig config;
  config.node_count = 32;
  config.seed = 6;
  core::System system(config);
  FaultPlan plan;
  plan.mute_forwarder_fraction(10.0, 0.2).slow_node(10.0, 4, 0.05).cure_all(
      20.0);
  FaultInjector injector(system, plan, Rng(6).fork("faults"));
  injector.arm();
  system.start();
  system.run_until(15.0);
  std::vector<NodeId> victims = injector.adversaries();
  ASSERT_FALSE(victims.empty());
  EXPECT_TRUE(std::binary_search(victims.begin(), victims.end(), NodeId{4}));
  for (NodeId id : victims) {
    EXPECT_FALSE(system.node(id).fault_behavior().honest()) << "node " << id;
  }
  EXPECT_DOUBLE_EQ(system.node(4).fault_behavior().processing_delay, 0.05);
  system.run_until(25.0);
  EXPECT_TRUE(injector.adversaries().empty());
  for (NodeId id : victims) {
    EXPECT_TRUE(system.node(id).fault_behavior().honest()) << "node " << id;
  }
}

TEST(FaultInjector, CureNodeLeavesOtherVictimsActive) {
  core::SystemConfig config;
  config.node_count = 16;
  config.seed = 2;
  core::System system(config);
  FaultPlan plan;
  plan.digest_liar_node(5.0, 3).digest_liar_node(5.0, 9).cure_node(10.0, 3);
  FaultInjector injector(system, plan, Rng(2).fork("faults"));
  injector.arm();
  system.start();
  system.run_until(12.0);
  EXPECT_TRUE(system.node(3).fault_behavior().honest());
  EXPECT_TRUE(system.node(9).fault_behavior().digest_liar);
  EXPECT_EQ(injector.adversaries(), std::vector<NodeId>{NodeId{9}});
}

// ---------------------------------------------------------------------------
// InvariantChecker
// ---------------------------------------------------------------------------

TEST(InvariantChecker, HealthyRunHasNoViolations) {
  core::SystemConfig config;
  config.node_count = 64;
  config.seed = 17;
  core::System system(config);
  InvariantChecker checker(system);
  checker.start();
  system.start();
  system.run_until(150.0);  // well past the 60 s settle time
  EXPECT_GT(checker.sweeps(), 0u);
  for (const InvariantViolation& v : checker.violations()) {
    ADD_FAILURE() << "unexpected violation at t=" << v.at << ": " << v.what;
  }
}

TEST(InvariantChecker, DetectsPlantedDegreeViolation) {
  core::SystemConfig config;
  config.node_count = 64;
  config.seed = 17;
  core::System system(config);
  system.start();
  system.run_until(100.0);

  InvariantChecker checker(system);
  checker.check_now();
  ASSERT_EQ(checker.violation_count(), 0u);  // settled and healthy

  // Freeze maintenance (nothing sheds excess links any more) and force
  // extra random links onto node 0, pushing it past the C+1 band.
  system.freeze_all();
  int added = 0;
  for (NodeId peer = 1; peer < 64 && added < 4; ++peer) {
    if (!system.node(0).overlay().is_neighbor(peer)) {
      system.node(0).overlay().bootstrap_link(peer, overlay::LinkKind::kRandom);
      ++added;
    }
  }
  ASSERT_EQ(added, 4);
  checker.check_now();
  EXPECT_GT(checker.violation_count(), 0u);
  bool degree_violation = false;
  for (const InvariantViolation& v : checker.violations()) {
    if (v.what.find("degree") != std::string::npos) degree_violation = true;
  }
  EXPECT_TRUE(degree_violation);
}

TEST(InvariantChecker, DetectsStaleDeadNeighbor) {
  core::SystemConfig config;
  config.node_count = 32;
  config.seed = 4;
  core::System system(config);
  InvariantCheckerParams params;
  params.check_degrees = false;  // frozen nodes drift out of the band
  params.check_tree = false;
  params.check_connectivity = false;
  InvariantChecker checker(system, params);
  checker.start();
  system.start();
  system.run_until(80.0);
  EXPECT_EQ(checker.violation_count(), 0u);

  // Kill a node, make another node fully inert (freeze gates the tree
  // heartbeat handler, which otherwise forwards over every overlay link;
  // stop halts its timers), and plant a link to the dead peer on it: the
  // inert node never sends to the dead peer, so no TCP reset arrives and
  // the stale link persists — which the checker must flag after its 10 s
  // dead-neighbor timeout.
  NodeId observer = 5;
  NodeId dead = 6;
  system.node(dead).kill();
  system.run_until(82.0);
  system.node(observer).freeze();
  system.node(observer).stop();
  system.node(observer).overlay().bootstrap_link(dead,
                                                 overlay::LinkKind::kRandom);
  system.run_until(110.0);
  EXPECT_GT(checker.violation_count(), 0u);
  bool dead_violation = false;
  for (const InvariantViolation& v : checker.violations()) {
    if (v.what.find("dead") != std::string::npos) dead_violation = true;
  }
  EXPECT_TRUE(dead_violation);
}

TEST(InvariantChecker, PartitionSuspendsStructuralChecks) {
  core::SystemConfig config;
  config.node_count = 32;
  config.seed = 8;
  core::System system(config);
  InvariantChecker checker(system);
  system.start();
  system.run_until(100.0);
  checker.set_partition_active(true);
  checker.check_now();
  // Degree/tree/connectivity are suspended; only always-on checks ran.
  EXPECT_EQ(checker.violation_count(), 0u);
}

}  // namespace
}  // namespace gocast::fault
