// Tests for the runtime seam (runtime/context.h): the simulator binding keeps
// full-system churn working (revive/spawn round-trips through SimRuntime).
// The UDP binding's tests live in test_udp.cpp.
#include <gtest/gtest.h>

#include "gocast/system.h"
#include "runtime/sim_runtime.h"

namespace gocast {
namespace {

// ---------------------------------------------------------------------------
// SimRuntime through the full system: churn round-trips
// ---------------------------------------------------------------------------

TEST(SimRuntimeSystem, RevivedNodeRejoinsAndDeliversAgain) {
  core::SystemConfig config;
  config.node_count = 32;
  config.seed = 11;
  core::System system(config);
  system.start();
  system.run_for(60.0);

  // Kill a non-root node, let the overlay absorb the loss, revive it.
  NodeId victim = system.node(0).tree().is_root() ? 1 : 0;
  system.node(victim).kill();
  EXPECT_FALSE(system.network().alive(victim));
  system.run_for(30.0);

  system.revive_node(victim);
  EXPECT_TRUE(system.network().alive(victim));
  system.run_for(60.0);

  // The revived node is wired back in: it has neighbors and a tree parent
  // (or is root), and a multicast from elsewhere reaches it.
  EXPECT_GT(system.node(victim).overlay().degree(), 0);
  std::uint64_t before = system.node(victim).deliveries_count();
  NodeId sender = victim == 0 ? 1 : 0;
  system.node(sender).multicast(256);
  system.run_for(30.0);
  EXPECT_EQ(system.node(victim).deliveries_count(), before + 1);
}

TEST(SimRuntimeSystem, SpawnedDeferredNodeIntegrates) {
  core::SystemConfig config;
  config.node_count = 24;
  config.deferred_nodes = 2;
  config.seed = 12;
  core::System system(config);
  system.start();
  system.run_for(60.0);

  EXPECT_EQ(system.deferred_remaining(), 2u);
  NodeId first = system.spawn_next();
  ASSERT_NE(first, kInvalidNode);
  system.run_for(60.0);

  EXPECT_GT(system.node(first).overlay().degree(), 0);
  std::uint64_t before = system.node(first).deliveries_count();
  system.node(0).multicast(256);
  system.run_for(30.0);
  EXPECT_EQ(system.node(first).deliveries_count(), before + 1);

  NodeId second = system.spawn_next();
  ASSERT_NE(second, kInvalidNode);
  EXPECT_EQ(system.deferred_remaining(), 0u);
  EXPECT_EQ(system.spawn_next(), kInvalidNode);
}

}  // namespace
}  // namespace gocast
