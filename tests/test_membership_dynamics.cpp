// Tests for the membership-dynamics subsystem (PR 10): the session-length
// models behind trace-driven churn, the new fault-plan grammar rows
// (session / flash / clique / eclipse), victim clamping, flash-crowd mass
// joins settling back into the degree band, join-path defense units
// (corroboration, per-advertiser caps), clique-aware eviction, and the
// determinism guarantees for churn-driven scenarios.
#include "fault/session_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/assert.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_checker.h"
#include "gocast/system.h"
#include "harness/scenario.h"
#include "membership/partial_view.h"

namespace gocast::fault {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan grammar: the membership-dynamics rows
// ---------------------------------------------------------------------------

TEST(MembershipPlan, SpecRoundTripsChurnAndCollusionKinds) {
  FaultPlan plan;
  plan.session_churn(10.0, "gnutella", 2.0, 90.0)
      .session_churn(11.0, "lognormal", 0.5, 95.0, 1.3, 50.0)
      .flash_crowd(12.0, 64, 5.0)
      .flash_crowd(13.0, 8)
      .clique_fraction(14.0, 0.1)
      .clique_count(15.0, 4)
      .eclipse_fraction(16.0, 0.05)
      .eclipse_count(17.0, 3);
  ASSERT_EQ(plan.size(), 8u);
  FaultPlan reparsed = FaultPlan::parse(plan.to_spec());
  EXPECT_EQ(reparsed, plan);
  EXPECT_EQ(reparsed.to_spec(), plan.to_spec());

  FaultPlan parsed = FaultPlan::parse(
      "60:session:dist=gnutella,rate=2,until=240; 120:flash:n=48,ramp=2; "
      "130:clique:frac=0.1; 140:eclipse:count=5");
  ASSERT_EQ(parsed.size(), 4u);
  EXPECT_EQ(parsed.events()[0].kind, FaultKind::kSession);
  EXPECT_EQ(parsed.events()[0].dist, "gnutella");
  EXPECT_DOUBLE_EQ(parsed.events()[0].rate, 2.0);
  EXPECT_DOUBLE_EQ(parsed.events()[0].until, 240.0);
  EXPECT_EQ(parsed.events()[1].kind, FaultKind::kFlash);
  EXPECT_EQ(parsed.events()[1].count, 48u);
  EXPECT_DOUBLE_EQ(parsed.events()[1].ramp, 2.0);
  EXPECT_EQ(parsed.events()[2].kind, FaultKind::kClique);
  EXPECT_DOUBLE_EQ(parsed.events()[2].fraction, 0.1);
  EXPECT_EQ(parsed.events()[3].kind, FaultKind::kEclipse);
  EXPECT_EQ(parsed.events()[3].count, 5u);
}

TEST(MembershipPlan, RejectsMalformedChurnSpecs) {
  // session: all three of dist/rate/until are required, rate must be
  // positive, and the arrival window must extend past the event time.
  EXPECT_THROW(FaultPlan::parse("10:session:rate=1,until=60"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:session:dist=gnutella,until=60"),
               AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:session:dist=gnutella,rate=1"),
               AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:session:dist=gnutella,rate=0,until=60"),
               AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:session:dist=gnutella,rate=1,until=5"),
               AssertionError);
  // flash: n is required and positive; a negative ramp is rejected.
  EXPECT_THROW(FaultPlan::parse("10:flash"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:flash:n=0"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:flash:n=4,ramp=-1"), AssertionError);
  // clique / eclipse: some victim selector is required.
  EXPECT_THROW(FaultPlan::parse("10:clique"), AssertionError);
  EXPECT_THROW(FaultPlan::parse("10:eclipse"), AssertionError);
}

// ---------------------------------------------------------------------------
// SessionModel
// ---------------------------------------------------------------------------

TEST(SessionModel, InverseNormalCdfMatchesTabulatedValues) {
  EXPECT_NEAR(inverse_normal_cdf(0.5), 0.0, 1e-9);
  EXPECT_NEAR(inverse_normal_cdf(0.8413447460685429), 1.0, 1e-6);
  EXPECT_NEAR(inverse_normal_cdf(0.15865525393145707), -1.0, 1e-6);
  EXPECT_NEAR(inverse_normal_cdf(0.9772498680518208), 2.0, 1e-6);
  // Tail region (u < 0.02425 switches approximation branches).
  EXPECT_NEAR(inverse_normal_cdf(0.0013498980316300933), -3.0, 1e-6);
}

TEST(SessionModel, QuantilesMatchClosedForms) {
  SessionModel::Params weibull;
  weibull.dist = SessionModel::Dist::kWeibull;
  weibull.shape = 0.6;
  weibull.scale = 40.0;
  SessionModel wm(weibull, Rng(1));
  EXPECT_NEAR(wm.quantile(0.5), 40.0 * std::pow(std::log(2.0), 1.0 / 0.6),
              1e-9);

  SessionModel::Params lognormal;
  lognormal.dist = SessionModel::Dist::kLognormal;
  lognormal.shape = 1.3;
  lognormal.scale = 50.0;
  SessionModel lm(lognormal, Rng(1));
  // The scale of a lognormal is its median.
  EXPECT_NEAR(lm.quantile(0.5), 50.0, 1e-6);

  SessionModel::Params pareto;
  pareto.dist = SessionModel::Dist::kPareto;
  pareto.shape = 1.5;
  pareto.scale = 10.0;
  SessionModel pm(pareto, Rng(1));
  // Pareto's scale is the minimum session length.
  EXPECT_NEAR(pm.quantile(1e-12), 10.0, 1e-6);
  EXPECT_NEAR(pm.quantile(0.5), 10.0 * std::pow(0.5, -1.0 / 1.5), 1e-9);

  // Monotone and positive across the unit interval for every family.
  for (SessionModel* m : {&wm, &lm, &pm}) {
    double prev = 0.0;
    for (double u = 0.05; u < 1.0; u += 0.05) {
      double q = m->quantile(u);
      EXPECT_GT(q, 0.0);
      EXPECT_GE(q, prev);
      prev = q;
    }
  }
}

TEST(SessionModel, PresetsResolveAndOverridesApply) {
  SessionModel::Params gnutella = SessionModel::preset("gnutella");
  EXPECT_EQ(gnutella.dist, SessionModel::Dist::kWeibull);
  EXPECT_LT(gnutella.shape, 1.0);  // sub-exponential: heavy tail
  SessionModel::Params skype = SessionModel::preset("skype");
  EXPECT_EQ(skype.dist, SessionModel::Dist::kLognormal);
  EXPECT_THROW(SessionModel::preset("uniform"), AssertionError);

  // Nonzero shape/scale override the preset; zero keeps it.
  SessionModel::Params stretched = SessionModel::from_spec("gnutella", 0.0, 120.0);
  EXPECT_EQ(stretched.dist, SessionModel::Dist::kWeibull);
  EXPECT_DOUBLE_EQ(stretched.shape, gnutella.shape);
  EXPECT_DOUBLE_EQ(stretched.scale, 120.0);
  EXPECT_THROW(SessionModel::from_spec("gnutella", -1.0, 0.0), AssertionError);
}

TEST(SessionModel, SampleStreamIsDeterministic) {
  SessionModel::Params params = SessionModel::preset("gnutella");
  SessionModel a(params, Rng(7).fork("session").fork(0));
  SessionModel b(params, Rng(7).fork("session").fork(0));
  for (int i = 0; i < 200; ++i) {
    double draw = a.sample();
    EXPECT_DOUBLE_EQ(draw, b.sample());
    EXPECT_GT(draw, 0.0);
  }
}

TEST(SessionModel, EmpiricalCdfLoaderInterpolates) {
  const std::string path = "/tmp/gocast_test_session_cdf.txt";
  {
    std::ofstream out(path);
    out << "# synthetic trace CDF\n"
        << "10 0.25\n"
        << "20 0.5  # median\n"
        << "40 1.0\n";
  }
  SessionModel::Params params = SessionModel::from_cdf_file(path);
  EXPECT_EQ(params.dist, SessionModel::Dist::kEmpirical);
  ASSERT_EQ(params.cdf.size(), 3u);
  SessionModel model(params, Rng(1));
  EXPECT_NEAR(model.quantile(0.25), 10.0, 1e-9);
  EXPECT_NEAR(model.quantile(0.5), 20.0, 1e-9);
  EXPECT_NEAR(model.quantile(0.375), 15.0, 1e-9);  // piecewise-linear
  EXPECT_NEAR(model.quantile(0.75), 30.0, 1e-9);
  EXPECT_NEAR(model.quantile(0.999999), 40.0, 1e-3);
  // shape/scale overrides are meaningless for an empirical CDF.
  EXPECT_THROW(SessionModel::from_spec("cdf:" + path, 2.0, 0.0),
               AssertionError);
  std::remove(path.c_str());

  {
    std::ofstream out(path);
    out << "10 0.5\n5 0.7\n";  // durations not ascending
  }
  EXPECT_THROW(SessionModel::from_cdf_file(path), AssertionError);
  std::remove(path.c_str());
  EXPECT_THROW(SessionModel::from_cdf_file("/nonexistent/cdf.txt"),
               AssertionError);
}

// ---------------------------------------------------------------------------
// Victim clamping (the over-population regression)
// ---------------------------------------------------------------------------

TEST(FaultInjector, VictimCountsClampToThePopulation) {
  core::SystemConfig config;
  config.node_count = 24;
  config.seed = 9;
  core::System system(config);
  system.start();
  system.run_for(30.0);

  // A behavior event demanding far more victims than exist warns and takes
  // everyone instead of asserting.
  FaultInjector injector(system,
                         FaultPlan::parse("31:mute_forwarder:count=500"),
                         Rng(9).fork("faults"));
  injector.arm();
  system.run_for(5.0);
  EXPECT_EQ(injector.adversaries().size(), 24u);

  core::System crash_system(config);
  crash_system.start();
  crash_system.run_for(30.0);
  FaultInjector crash_injector(crash_system, FaultPlan::parse("31:crash:count=999"),
                               Rng(9).fork("faults"));
  crash_injector.arm();
  crash_system.run_for(5.0);
  // The crash pool is clamped to what is eligible; no assertion fires and
  // the log records the clamped application.
  EXPECT_EQ(crash_injector.events_applied(), 1u);
  EXPECT_LE(crash_system.alive_nodes().size(), 24u);
}

// ---------------------------------------------------------------------------
// Join-path defense units: corroboration + per-advertiser caps
// ---------------------------------------------------------------------------

membership::MemberEntry entry_for(NodeId id) {
  membership::MemberEntry e;
  e.id = id;
  e.heard_at = 1.0;
  return e;
}

TEST(PartialViewDefense, SecondDistinctAdvertiserCorroborates) {
  membership::PartialView view(0, 16, Rng(1));
  // Tracking off: everything is corroborated.
  view.integrate_from(10, std::vector{entry_for(1)});
  EXPECT_TRUE(view.corroborated(1));

  membership::PartialView tracked(0, 16, Rng(1));
  tracked.enable_corroboration();
  tracked.integrate_from(10, std::vector{entry_for(1), entry_for(2)});
  EXPECT_TRUE(tracked.contains(1));
  EXPECT_FALSE(tracked.corroborated(1));
  EXPECT_FALSE(tracked.corroborated(2));

  // The same advertiser repeating itself corroborates nothing.
  tracked.integrate_from(10, std::vector{entry_for(1)});
  EXPECT_FALSE(tracked.corroborated(1));

  // A second distinct advertiser does.
  tracked.integrate_from(11, std::vector{entry_for(1)});
  EXPECT_TRUE(tracked.corroborated(1));
  EXPECT_FALSE(tracked.corroborated(2));

  // Direct trust (bootstrap contact, handshake peer) short-circuits.
  tracked.mark_corroborated(2);
  EXPECT_TRUE(tracked.corroborated(2));

  // Removal clears the record: a re-advertised entry starts over.
  tracked.remove(1);
  tracked.integrate_from(12, std::vector{entry_for(1)});
  EXPECT_FALSE(tracked.corroborated(1));
}

TEST(PartialViewDefense, PerAdvertiserCapLimitsNewEntries) {
  membership::PartialView view(0, 32, Rng(2));
  std::vector<membership::MemberEntry> flood;
  for (NodeId id = 1; id <= 10; ++id) flood.push_back(entry_for(id));

  // One advertiser may introduce at most max_new previously-unknown ids.
  view.integrate_from(99, flood, /*max_new=*/3);
  EXPECT_EQ(view.size(), 3u);

  // Refreshes of known entries are never limited; new ids still are.
  view.integrate_from(99, flood, /*max_new=*/3);
  EXPECT_EQ(view.size(), 6u);

  // Unlimited integration takes the rest.
  view.integrate_from(99, flood, /*max_new=*/0);
  EXPECT_EQ(view.size(), 10u);
}

// ---------------------------------------------------------------------------
// Flash crowds: mass joins settle back into the paper's degree band
// ---------------------------------------------------------------------------

TEST(FlashCrowd, BackToBackMassJoinsSettleIntoTheDegreeBand) {
  for (std::uint64_t seed : {11u, 12u, 13u}) {
    core::SystemConfig config;
    config.node_count = 96;
    config.deferred_nodes = 32;
    config.seed = seed;
    core::System system(config);
    system.start();
    system.run_for(120.0);

    // Two back-to-back join bursts (the flash-crowd shape), then a kill and
    // revive wave — the churn primitives the injector drives.
    for (int i = 0; i < 16; ++i) ASSERT_NE(system.spawn_next(), kInvalidNode);
    system.run_for(1.0);
    for (int i = 0; i < 16; ++i) ASSERT_NE(system.spawn_next(), kInvalidNode);
    EXPECT_EQ(system.spawn_next(), kInvalidNode);  // pool exhausted
    system.run_for(30.0);
    for (NodeId id = 0; id < 6; ++id) system.node(id).kill();
    system.run_for(10.0);
    for (NodeId id = 0; id < 6; ++id) system.revive_node(id);

    // Settle well past the checker's structural threshold, then audit:
    // every live node back inside the degree band, tree acyclic/spanning,
    // overlay connected.
    system.run_for(90.0);
    InvariantChecker checker(system);
    checker.check_now();
    for (const InvariantViolation& v : checker.violations()) {
      ADD_FAILURE() << "seed " << seed << ": t=" << v.at << " " << v.what;
    }
  }
}

// ---------------------------------------------------------------------------
// Determinism: churn-driven runs are pure functions of the seed
// ---------------------------------------------------------------------------

TEST(MembershipDeterminism, ChurnScenarioIsShardCountInvariant) {
  auto run = [](std::size_t shards) {
    harness::ScenarioConfig config;
    config.node_count = 96;
    config.deferred_nodes = 24;
    config.seed = 5;
    config.warmup = 60.0;
    config.message_count = 80;
    config.message_rate = 40.0;
    config.drain = 20.0;
    config.fault_spec =
        "20:flash:n=12,ramp=2; 30:session:dist=gnutella,rate=1.5,until=50";
    config.shards = shards;
    return harness::run_scenario(config);
  };
  harness::ScenarioResult serial = run(1);
  harness::ScenarioResult repeat = run(1);
  // Same seed, same engine: byte-identical outcomes.
  EXPECT_EQ(serial.delivery_checksum, repeat.delivery_checksum);
  EXPECT_EQ(serial.fault_log, repeat.fault_log);

  // Churn plans force the serial fallback at any requested shard count
  // (documented in DESIGN.md §9), so results are trivially shard-invariant.
  harness::ScenarioResult sharded = run(4);
  EXPECT_EQ(serial.delivery_checksum, sharded.delivery_checksum);
  EXPECT_EQ(serial.fault_log, sharded.fault_log);
  ASSERT_EQ(serial.joins.size(), sharded.joins.size());
  // The flash crowd alone contributes 12 joins; session arrivals keep going
  // after the deferred pool dries up by reviving earlier leavers, so the
  // total is seed-dependent — only the cross-run identity is asserted.
  EXPECT_GE(serial.joins.size(), 12u);
  for (std::size_t i = 0; i < serial.joins.size(); ++i) {
    EXPECT_EQ(serial.joins[i].node, sharded.joins[i].node);
    EXPECT_DOUBLE_EQ(serial.joins[i].at, sharded.joins[i].at);
    EXPECT_EQ(serial.joins[i].messages, sharded.joins[i].messages);
  }
}

TEST(MembershipDeterminism, CliqueSelectionIsSeedDeterministic) {
  auto colluders_for = [](std::uint64_t seed) {
    core::SystemConfig config;
    config.node_count = 48;
    config.seed = seed;
    core::System system(config);
    system.start();
    system.run_for(30.0);
    FaultInjector injector(system, FaultPlan::parse("31:clique:count=5"),
                           Rng(seed).fork("faults"));
    injector.arm();
    system.run_for(5.0);
    return injector.colluders();
  };
  std::vector<NodeId> a = colluders_for(17);
  std::vector<NodeId> b = colluders_for(17);
  ASSERT_EQ(a.size(), 5u);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  // A different seed draws a different clique (overwhelmingly likely).
  EXPECT_NE(a, colluders_for(18));
}

// ---------------------------------------------------------------------------
// Clique-aware eviction end to end
// ---------------------------------------------------------------------------

TEST(CliqueDefense, CoverDetectionEvictsTheClique) {
  harness::ScenarioConfig config;
  config.node_count = 96;
  config.seed = 17;
  config.warmup = 60.0;
  config.message_count = 900;
  config.message_rate = 20.0;
  config.drain = 20.0;
  config.fault_spec = "40:clique:count=8";
  config.defense = core::DefenseProfile::kFull;
  config.exclude_adversaries = true;
  config.coverage_probe_at = config.warmup + 45.0;
  harness::ScenarioResult result = harness::run_scenario(config);

  ASSERT_EQ(result.colluders.size(), 8u);
  std::size_t evicted = 0;
  for (NodeId id : result.colluders) {
    if (std::binary_search(result.evicted_adversaries.begin(),
                           result.evicted_adversaries.end(), id)) {
      ++evicted;
    }
  }
  // The contribution-signature channel catches the clique the per-offense
  // defenses cannot (answered audits keep wiping colluder scores).
  EXPECT_GE(evicted, 6u) << "only " << evicted << " of 8 colluders evicted";
  EXPECT_GT(result.cover_evictions, 0u);
  // Honest delivery stays intact while the clique is cut out.
  EXPECT_GE(result.report.delivered_fraction, 0.95);
}

TEST(CliqueDefense, HonestLosslessRunHasNoCoverEvictions) {
  harness::ScenarioConfig config;
  config.node_count = 64;
  config.seed = 21;
  config.warmup = 60.0;
  config.message_count = 400;
  config.message_rate = 20.0;
  config.drain = 15.0;
  config.defense = core::DefenseProfile::kFull;
  harness::ScenarioResult result = harness::run_scenario(config);
  // No adversaries, no loss: the contribution ledger never mistakes an
  // honest neighbor for a free-rider.
  EXPECT_EQ(result.cover_evictions, 0u);
  EXPECT_EQ(result.suspects_evicted, 0u);
  EXPECT_GE(result.report.delivered_fraction, 0.999);
}

}  // namespace
}  // namespace gocast::fault
