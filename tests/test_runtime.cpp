// Tests for the runtime seam (runtime/context.h): the simulator binding keeps
// full-system churn working (revive/spawn round-trips through SimRuntime),
// and the real-time backend runs the identical protocol templates against the
// steady clock — including an 8-node live smoke test where a multicast
// injected at a non-root node reaches everyone.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "gocast/node.h"
#include "gocast/system.h"
#include "runtime/realtime_runtime.h"
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

// ---------------------------------------------------------------------------
// RealtimeRuntime unit behavior
// ---------------------------------------------------------------------------

TEST(RealtimeRuntime, TimersFireInDeadlineOrder) {
  runtime::RealtimeConfig config;
  runtime::RealtimeRuntime rt(config);
  std::vector<int> order;
  auto* order_ptr = &order;
  rt.schedule_after(0.02, [order_ptr] { order_ptr->push_back(2); });
  rt.schedule_after(0.01, [order_ptr] { order_ptr->push_back(1); });
  rt.schedule_after(0.03, [order_ptr] { order_ptr->push_back(3); });
  std::size_t fired = rt.run_for(0.5);
  EXPECT_EQ(fired, 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(RealtimeRuntime, CancelPreventsFiring) {
  runtime::RealtimeRuntime rt;
  bool fired = false;
  auto* fired_ptr = &fired;
  auto id = rt.schedule_after(0.01, [fired_ptr] { *fired_ptr = true; });
  EXPECT_TRUE(rt.cancel(id));
  EXPECT_FALSE(rt.cancel(id));
  rt.run_for(0.05);
  EXPECT_FALSE(fired);
}

struct TestMsg final : net::Message {
  explicit TestMsg(std::size_t bytes = 100)
      : Message(net::MsgKind::kOther, 999), bytes(bytes) {}
  std::size_t bytes;
  std::size_t wire_size() const override { return bytes; }
};

struct RecordingEndpoint final : net::Endpoint {
  std::vector<NodeId> senders;
  std::vector<NodeId> failures;
  void handle_message(NodeId from, const net::MessagePtr&) override {
    senders.push_back(from);
  }
  void handle_send_failure(NodeId to, const net::MessagePtr&) override {
    failures.push_back(to);
  }
};

TEST(RealtimeRuntime, SendDeliversAfterLatencyAndNotifiesFailures) {
  runtime::RealtimeConfig config;
  config.one_way_latency = 0.001;
  runtime::RealtimeRuntime rt(config);
  NodeId a = rt.add_node();
  NodeId b = rt.add_node();
  NodeId c = rt.add_node();
  RecordingEndpoint ep_a, ep_b;
  rt.set_endpoint(a, &ep_a);
  rt.set_endpoint(b, &ep_b);

  rt.send(a, b, rt.make<TestMsg>(64));
  rt.fail_node(c);
  rt.send(a, c, rt.make<TestMsg>(64));
  rt.run_for(0.1);

  ASSERT_EQ(ep_b.senders.size(), 1u);
  EXPECT_EQ(ep_b.senders[0], a);
  ASSERT_EQ(ep_a.failures.size(), 1u);
  EXPECT_EQ(ep_a.failures[0], c);
  EXPECT_EQ(rt.stats().messages_delivered, 1u);
  EXPECT_EQ(rt.stats().messages_dropped, 1u);
}

TEST(RealtimeRuntime, DeadSenderIsDropped) {
  runtime::RealtimeRuntime rt;
  NodeId a = rt.add_node();
  NodeId b = rt.add_node();
  RecordingEndpoint ep_b;
  rt.set_endpoint(b, &ep_b);
  rt.fail_node(a);
  rt.send(a, b, rt.make<TestMsg>(64));
  rt.run_for(0.05);
  EXPECT_TRUE(ep_b.senders.empty());
  EXPECT_EQ(rt.stats().messages_dropped, 1u);
}

// ---------------------------------------------------------------------------
// Live smoke test: 8 real nodes, one multicast, everyone delivers
// ---------------------------------------------------------------------------

TEST(RealtimeSmoke, EightLiveNodesDeliverOneMulticast) {
  constexpr std::size_t kNodes = 8;
  runtime::RealtimeConfig rt_config;
  rt_config.one_way_latency = 0.0002;
  rt_config.seed = 5;
  runtime::RealtimeRuntime rt(rt_config);
  for (std::size_t i = 0; i < kNodes; ++i) rt.add_node();

  core::GoCastConfig config;
  config.tree.heartbeat_period = 0.1;
  config.dissemination.gossip_period = 0.05;
  config.landmarks = {0, 1};

  using LiveNode = core::GoCastNodeT<runtime::RealtimeContext>;
  Rng rng(5);
  std::vector<std::unique_ptr<LiveNode>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    nodes.push_back(std::make_unique<LiveNode>(
        id, rt, config, rng.fork_sparse(static_cast<std::uint64_t>(id))));
  }

  std::vector<membership::MemberEntry> all(kNodes);
  for (NodeId id = 0; id < kNodes; ++id) all[id].id = id;
  Rng init_rng = rng.fork("init");
  for (NodeId id = 0; id < kNodes; ++id) {
    std::vector<membership::MemberEntry> others;
    for (const auto& entry : all) {
      if (entry.id != id) others.push_back(entry);
    }
    nodes[id]->seed_view(others);
    NodeId peer = static_cast<NodeId>((id + 1) % kNodes);
    nodes[id]->bootstrap_link(peer, overlay::LinkKind::kRandom);
    nodes[peer]->bootstrap_link(id, overlay::LinkKind::kRandom);
  }
  nodes[0]->become_root();

  std::map<MsgId, std::size_t> delivered;
  auto* delivered_ptr = &delivered;
  for (auto& node : nodes) {
    node->set_delivery_hook([delivered_ptr](const core::DeliveryEvent& e) {
      ++(*delivered_ptr)[e.id];
    });
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    nodes[id]->start(init_rng.next_range(0.0, 0.05));
  }

  // Warm up until the overlay and tree form, then inject at a non-root node.
  rt.run_for(1.0);
  MsgId id = nodes[3]->multicast(256);

  // Poll rather than sleep a fixed worst case: CI machines vary.
  for (int i = 0; i < 40 && (*delivered_ptr)[id] < kNodes; ++i) {
    rt.run_for(0.1);
  }
  EXPECT_EQ(delivered[id], kNodes);
  for (const auto& node : nodes) {
    EXPECT_EQ(node->deliveries_count(), 1u) << "node " << node->id();
  }
}

}  // namespace
}  // namespace gocast
