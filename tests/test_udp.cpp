// UdpRuntime coverage: real non-blocking UDP sockets on loopback with the
// epoll reactor — datagram exchange between two runtimes, timer behavior,
// ICMP-unreachable send-failure notification, frame filtering (misaddressed
// and unknown-source datagrams), stop-flag responsiveness, and an
// in-process 8-node overlay smoke where every node lives behind its own
// socket and a multicast injected at a non-root node reaches everyone.
#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <vector>

#include "gocast/node.h"
#include "overlay/messages.h"
#include "runtime/udp_runtime.h"

namespace gocast {
namespace {

using runtime::pump;
using runtime::UdpConfig;
using runtime::UdpRuntime;

struct RecordingEndpoint final : net::Endpoint {
  std::vector<NodeId> senders;
  std::vector<net::MessagePtr> messages;
  std::vector<NodeId> failures;
  void handle_message(NodeId from, const net::MessagePtr& msg) override {
    senders.push_back(from);
    messages.push_back(msg);
  }
  void handle_send_failure(NodeId to, const net::MessagePtr&) override {
    failures.push_back(to);
  }
};

UdpConfig loopback_config(NodeId self) {
  UdpConfig config;
  config.self = self;
  config.listen_host = "127.0.0.1";
  config.listen_port = 0;  // ephemeral
  return config;
}

TEST(UdpRuntime, BindsEphemeralPortAndReportsIt) {
  UdpRuntime rt(loopback_config(1));
  EXPECT_GT(rt.port(), 0);
  EXPECT_EQ(rt.node_count(), 1u);
  EXPECT_TRUE(rt.alive(1));
}

TEST(UdpRuntime, BindFailureThrowsSetupError) {
  UdpRuntime first(loopback_config(1));
  UdpConfig config = loopback_config(2);
  config.listen_port = first.port();  // already taken
  EXPECT_THROW(UdpRuntime second(config), runtime::UdpSetupError);

  UdpConfig bad_host = loopback_config(3);
  bad_host.listen_host = "not-an-address";
  EXPECT_THROW(UdpRuntime third(bad_host), runtime::UdpSetupError);
}

TEST(UdpRuntime, TimersFireInDeadlineOrder) {
  UdpRuntime rt(loopback_config(1));
  std::vector<int> order;
  auto* order_ptr = &order;
  rt.schedule_after(0.02, [order_ptr] { order_ptr->push_back(2); });
  rt.schedule_after(0.01, [order_ptr] { order_ptr->push_back(1); });
  auto id = rt.schedule_after(0.015, [order_ptr] { order_ptr->push_back(9); });
  EXPECT_TRUE(rt.cancel(id));
  std::size_t fired = rt.run_for(0.2);
  EXPECT_EQ(fired, 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(UdpRuntime, CancelPreventsFiring) {
  UdpRuntime rt(loopback_config(1));
  bool fired = false;
  auto* fired_ptr = &fired;
  auto id = rt.schedule_after(0.01, [fired_ptr] { *fired_ptr = true; });
  EXPECT_TRUE(rt.cancel(id));
  EXPECT_FALSE(rt.cancel(id));
  EXPECT_EQ(rt.run_for(0.05), 0u);
  EXPECT_FALSE(fired);
}

TEST(UdpRuntime, DatagramsCrossBetweenTwoRuntimes) {
  UdpRuntime a(loopback_config(1));
  UdpRuntime b(loopback_config(2));
  a.add_peer(2, "127.0.0.1", b.port());
  b.add_peer(1, "127.0.0.1", a.port());
  RecordingEndpoint ep_a, ep_b;
  a.set_endpoint(1, &ep_a);
  b.set_endpoint(2, &ep_b);

  a.send(1, 2, a.make<overlay::PingMsg>(77));
  ASSERT_TRUE(pump({&a, &b}, 2.0, [&] { return !ep_b.senders.empty(); }));
  ASSERT_EQ(ep_b.senders.size(), 1u);
  EXPECT_EQ(ep_b.senders[0], 1u);
  ASSERT_EQ(ep_b.messages.size(), 1u);
  EXPECT_EQ(ep_b.messages[0]->packet_type(), overlay::kPktPing);

  // And the reverse direction.
  b.send(2, 1, b.make<overlay::PongMsg>(77, net::PeerDegrees{}));
  ASSERT_TRUE(pump({&a, &b}, 2.0, [&] { return !ep_a.senders.empty(); }));
  EXPECT_EQ(ep_a.senders[0], 2u);

  EXPECT_EQ(a.stats().datagrams_sent, 1u);
  EXPECT_EQ(a.stats().delivered, 1u);
  EXPECT_EQ(b.stats().delivered, 1u);
  EXPECT_EQ(a.stats().rejected_frames, 0u);
  EXPECT_GT(a.stats().bytes_sent, 0u);
  EXPECT_EQ(a.stats().bytes_sent,
            static_cast<std::uint64_t>(overlay::PingMsg(77).wire_size()));
}

TEST(UdpRuntime, SendToUnknownPeerNotifiesFailure) {
  UdpRuntime a(loopback_config(1));
  RecordingEndpoint ep;
  a.set_endpoint(1, &ep);
  a.send(1, 99, a.make<overlay::PingMsg>(1));
  ASSERT_TRUE(pump({&a}, 1.0, [&] { return !ep.failures.empty(); }));
  EXPECT_EQ(ep.failures[0], 99u);
  EXPECT_EQ(a.stats().dropped_unknown_peer, 1u);
}

TEST(UdpRuntime, IcmpUnreachableSurfacesAsSendFailure) {
  UdpRuntime a(loopback_config(1));
  std::uint16_t dead_port = 0;
  {
    // Bind-and-destroy guarantees a port with no listener behind it.
    UdpRuntime doomed(loopback_config(2));
    dead_port = doomed.port();
  }
  a.add_peer(2, "127.0.0.1", dead_port);
  RecordingEndpoint ep;
  a.set_endpoint(1, &ep);

  // The ICMP error arrives asynchronously; keep sending until the error
  // queue yields the notification (the first send rarely suffices).
  bool notified = pump({&a}, 3.0, [&] {
    if (!ep.failures.empty()) return true;
    a.send(1, 2, a.make<overlay::PingMsg>(9));
    return false;
  });
  ASSERT_TRUE(notified);
  EXPECT_EQ(ep.failures[0], 2u);
  EXPECT_GE(a.stats().icmp_unreachable + a.stats().send_failures, 1u);
}

TEST(UdpRuntime, MisaddressedAndUnknownSourceFramesAreDropped) {
  UdpRuntime a(loopback_config(1));
  UdpRuntime b(loopback_config(2));
  RecordingEndpoint ep_b;
  b.set_endpoint(2, &ep_b);

  // a's peer table claims node 5 lives at b's address; b (self=2) must
  // reject the frame as misaddressed without delivering it.
  a.add_peer(5, "127.0.0.1", b.port());
  a.send(1, 5, a.make<overlay::PingMsg>(3));
  ASSERT_TRUE(pump({&a, &b}, 2.0, [&] {
    return b.stats().rejected_misaddressed > 0;
  }));
  EXPECT_TRUE(ep_b.senders.empty());

  // Correctly addressed but from a source b has no endpoint entry for.
  a.add_peer(2, "127.0.0.1", b.port());
  a.send(1, 2, a.make<overlay::PingMsg>(4));
  ASSERT_TRUE(pump({&a, &b}, 2.0, [&] {
    return b.stats().rejected_unknown_src > 0;
  }));
  EXPECT_TRUE(ep_b.senders.empty());
  EXPECT_EQ(b.stats().delivered, 0u);
}

TEST(UdpRuntime, StopFlagEndsRunForEarly) {
  UdpRuntime rt(loopback_config(1));
  static volatile std::sig_atomic_t flag;
  flag = 0;
  rt.watch_stop_flag(&flag);
  rt.schedule_after(0.05, [] { flag = 1; });
  auto start = std::chrono::steady_clock::now();
  rt.run_for(30.0);
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(UdpRuntime, DeadNodeSendsAreDropped) {
  UdpRuntime a(loopback_config(1));
  UdpRuntime b(loopback_config(2));
  a.add_peer(2, "127.0.0.1", b.port());
  a.fail_node(1);
  EXPECT_FALSE(a.alive(1));
  a.send(1, 2, a.make<overlay::PingMsg>(5));
  EXPECT_EQ(a.stats().datagrams_sent, 0u);
  EXPECT_EQ(a.stats().dropped_dead, 1u);
}

// ---------------------------------------------------------------------------
// Live smoke: 8 nodes, each behind its own UDP socket, one multicast
// ---------------------------------------------------------------------------

TEST(UdpSmoke, EightSocketsDeliverOneMulticast) {
  constexpr std::size_t kNodes = 8;
  using LiveNode = core::GoCastNodeT<runtime::UdpContext>;

  std::vector<std::unique_ptr<UdpRuntime>> runtimes;
  for (NodeId id = 0; id < kNodes; ++id) {
    UdpConfig config = loopback_config(id);
    config.seed = 5 + id;
    runtimes.push_back(std::make_unique<UdpRuntime>(config));
  }
  std::vector<UdpRuntime*> rts;
  for (auto& rt : runtimes) rts.push_back(rt.get());
  for (NodeId a = 0; a < kNodes; ++a) {
    for (NodeId b = 0; b < kNodes; ++b) {
      if (a != b) runtimes[a]->add_peer(b, "127.0.0.1", runtimes[b]->port());
    }
  }

  core::GoCastConfig config;
  config.tree.heartbeat_period = 0.1;
  config.dissemination.gossip_period = 0.05;
  config.landmarks = {0, 1};

  Rng rng(5);
  std::vector<std::unique_ptr<LiveNode>> nodes;
  for (NodeId id = 0; id < kNodes; ++id) {
    nodes.push_back(std::make_unique<LiveNode>(
        id, *runtimes[id], config,
        rng.fork_sparse(static_cast<std::uint64_t>(id))));
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

  // Warm up until the overlay and tree form across the sockets.
  pump(rts, 1.5, [] { return false; });

  // Inject at a non-root node; every node must deliver exactly once.
  MsgId id = nodes[3]->multicast(256);
  bool full = pump(rts, 6.0, [&] { return (*delivered_ptr)[id] >= kNodes; });
  EXPECT_TRUE(full);
  EXPECT_EQ(delivered[id], kNodes);
  for (const auto& node : nodes) {
    EXPECT_EQ(node->deliveries_count(), 1u) << "node " << node->id();
  }
  std::uint64_t rejected = 0;
  for (auto* rt : rts) rejected += rt->stats().rejected_frames;
  EXPECT_EQ(rejected, 0u);
}

}  // namespace
}  // namespace gocast
