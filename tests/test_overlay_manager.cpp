// Tests for the overlay maintenance protocols (§2.2): handshakes, degree
// caps, the random-degree operations, nearby replacement under C1–C4, link
// transfer, freezing, and failure handling.
#include "overlay/overlay_manager.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "protocol_test_shell.h"

namespace gocast::overlay {
namespace {

using testing::ShellCluster;

OverlayParams default_params() {
  OverlayParams p;
  p.target_rand_degree = 1;
  p.target_near_degree = 5;
  return p;
}

TEST(OverlayHandshake, RequestAcceptEstablishesBothSides) {
  ShellCluster cluster(4, default_params());
  auto& a = cluster.node(0).overlay();
  cluster.node(0).seed_member(1);

  // Drive a random add by running one maintenance cycle.
  a.start(0.0);
  cluster.engine().run_until(1.0);
  EXPECT_TRUE(a.is_neighbor(1));
  EXPECT_TRUE(cluster.node(1).overlay().is_neighbor(0));
  EXPECT_EQ(a.table().find(1)->kind, LinkKind::kRandom);
}

TEST(OverlayHandshake, EstablishedLinkHasMeasuredRtt) {
  ShellCluster cluster(8, default_params());
  cluster.node(0).seed_member(4);
  cluster.node(0).overlay().start(0.0);
  cluster.engine().run_until(1.0);
  ASSERT_TRUE(cluster.node(0).overlay().is_neighbor(4));
  EXPECT_NEAR(cluster.node(0).overlay().table().find(4)->rtt,
              cluster.network().rtt(0, 4), 1e-9);
}

TEST(OverlayHandshake, RandomRequestRejectedAtCap) {
  OverlayParams params = default_params();
  ShellCluster cluster(12, params);
  // Saturate node 1's random degree to C_rand + 5 = 6 via bootstrap.
  for (NodeId peer = 2; peer <= 7; ++peer) {
    cluster.node(1).overlay().bootstrap_link(peer, LinkKind::kRandom);
    cluster.node(peer).overlay().bootstrap_link(1, LinkKind::kRandom);
  }
  EXPECT_EQ(cluster.node(1).overlay().rand_degree(), 6);

  cluster.node(0).seed_member(1);
  cluster.node(0).overlay().start(0.0);
  cluster.engine().run_until(0.5);
  EXPECT_FALSE(cluster.node(0).overlay().is_neighbor(1));
}

TEST(OverlayMaintenance, RandomDegreeConvergesToTargetOrPlusOne) {
  OverlayParams params = default_params();
  params.target_near_degree = 0;
  params.maintain_nearby = false;
  params.target_rand_degree = 3;
  ShellCluster cluster(16, params);
  cluster.seed_full_views();
  // Start from an unbalanced bootstrap: node 0 linked to everyone.
  for (NodeId peer = 1; peer < 16; ++peer) {
    cluster.node(0).overlay().bootstrap_link(peer, LinkKind::kRandom);
    cluster.node(peer).overlay().bootstrap_link(0, LinkKind::kRandom);
  }
  cluster.start_all();
  cluster.engine().run_until(30.0);

  for (NodeId id = 0; id < 16; ++id) {
    int degree = cluster.node(id).overlay().rand_degree();
    EXPECT_GE(degree, 3) << "node " << id;
    EXPECT_LE(degree, 4) << "node " << id;
  }
}

TEST(OverlayMaintenance, NearbyDegreeConverges) {
  ShellCluster cluster(24, default_params());
  cluster.seed_full_views();
  cluster.start_all();
  cluster.engine().run_until(60.0);

  for (NodeId id = 0; id < 24; ++id) {
    int near_deg = cluster.node(id).overlay().near_degree();
    EXPECT_GE(near_deg, 4) << "node " << id;
    EXPECT_LE(near_deg, 6) << "node " << id;
  }
}

TEST(OverlayMaintenance, NearbyLinksPreferLowLatency) {
  // On the ring model, nearby neighbors should end up ring-adjacent.
  ShellCluster cluster(32, default_params());
  cluster.seed_full_views();
  cluster.start_all();
  cluster.engine().run_until(120.0);

  double total = 0.0;
  int count = 0;
  for (NodeId id = 0; id < 32; ++id) {
    const auto& table = cluster.node(id).overlay().table();
    for (const auto& [peer, info] : table.raw()) {
      if (info.kind == LinkKind::kNearby) {
        total += cluster.network().one_way(id, peer);
        ++count;
      }
    }
  }
  ASSERT_GT(count, 0);
  double mean = total / count;
  // Random pairs average ~0.04 s on this ring; adapted nearby links must be
  // far below that.
  EXPECT_LT(mean, 0.02);
}

TEST(OverlayMaintenance, LinkTransferReducesDegreeByTwo) {
  OverlayParams params = default_params();
  params.maintain_nearby = false;
  params.target_rand_degree = 1;
  ShellCluster cluster(8, params);
  cluster.seed_full_views();
  // Node 0 starts with 3 random links: two beyond target.
  for (NodeId peer : {1u, 2u, 3u}) {
    cluster.node(0).overlay().bootstrap_link(peer, LinkKind::kRandom);
    cluster.node(peer).overlay().bootstrap_link(0, LinkKind::kRandom);
  }
  cluster.node(0).overlay().start(0.0);
  cluster.engine().run_until(2.0);

  EXPECT_LE(cluster.node(0).overlay().rand_degree(), 2);
  // The handed-off pair should have connected to each other (transfer), so
  // total links among {1,2,3} grew.
  int cross_links = 0;
  for (NodeId a : {1u, 2u, 3u}) {
    for (NodeId b : {1u, 2u, 3u}) {
      if (a < b && cluster.node(a).overlay().is_neighbor(b)) ++cross_links;
    }
  }
  EXPECT_GE(cross_links, 1);
}

TEST(OverlayMaintenance, FrozenManagerMakesNoChanges) {
  ShellCluster cluster(8, default_params());
  cluster.seed_full_views();
  cluster.node(0).overlay().bootstrap_link(1, LinkKind::kRandom);
  cluster.node(1).overlay().bootstrap_link(0, LinkKind::kRandom);
  for (NodeId id = 0; id < 8; ++id) cluster.node(id).overlay().freeze();
  cluster.start_all();
  cluster.engine().run_until(10.0);

  EXPECT_EQ(cluster.node(0).overlay().degree(), 1);
  EXPECT_EQ(cluster.node(2).overlay().degree(), 0);
}

TEST(OverlayMaintenance, FrozenManagerRejectsRequests) {
  ShellCluster cluster(4, default_params());
  cluster.node(1).overlay().freeze();
  cluster.node(0).seed_member(1);
  cluster.node(0).overlay().start(0.0);
  cluster.engine().run_until(1.0);
  EXPECT_FALSE(cluster.node(0).overlay().is_neighbor(1));
  EXPECT_FALSE(cluster.node(1).overlay().is_neighbor(0));
}

TEST(OverlayFailure, SendFailureRemovesNeighborAndViewEntry) {
  ShellCluster cluster(6, default_params());
  cluster.seed_full_views();
  cluster.node(0).overlay().bootstrap_link(1, LinkKind::kRandom);
  cluster.node(1).overlay().bootstrap_link(0, LinkKind::kRandom);
  cluster.network().fail_node(1);

  // Node 0 gossips/measures into the void; the TCP reset removes node 1.
  cluster.node(0).overlay().start(0.0);
  cluster.engine().run_until(5.0);
  EXPECT_FALSE(cluster.node(0).overlay().is_neighbor(1));
  EXPECT_FALSE(cluster.node(0).view().contains(1));
}

TEST(OverlayRtt, MeasureRttDeliversTrueValue) {
  ShellCluster cluster(10, default_params());
  double measured = -1.0;
  cluster.node(2).overlay().measure_rtt(7, [&](SimTime rtt) { measured = rtt; });
  cluster.engine().run();
  EXPECT_NEAR(measured, cluster.network().rtt(2, 7), 1e-9);
}

TEST(OverlayRtt, PongAfterTimeoutIsIgnored) {
  OverlayParams params = default_params();
  params.pending_timeout = 0.001;  // expire before the pong returns
  ShellCluster cluster(10, params);
  bool fired = false;
  cluster.node(0).overlay().start(0.0);
  cluster.node(0).overlay().measure_rtt(5, [&](SimTime) { fired = true; });
  cluster.engine().run_until(5.0);
  EXPECT_FALSE(fired);
}

TEST(OverlayDegrees, MyDegreesReflectTable) {
  ShellCluster cluster(6, default_params());
  auto& overlay = cluster.node(0).overlay();
  overlay.bootstrap_link(1, LinkKind::kRandom);
  overlay.bootstrap_link(2, LinkKind::kNearby);
  overlay.bootstrap_link(3, LinkKind::kNearby);
  net::PeerDegrees d = overlay.my_degrees();
  EXPECT_EQ(d.rand_degree, 1);
  EXPECT_EQ(d.near_degree, 2);
  EXPECT_GT(d.max_nearby_rtt, 0.0f);
}

TEST(OverlayStats, LinkChangeAccounting) {
  OverlayParams params = default_params();
  params.record_link_changes = true;
  ShellCluster cluster(4, params);
  auto& overlay = cluster.node(0).overlay();
  overlay.bootstrap_link(1, LinkKind::kRandom);
  EXPECT_EQ(overlay.links_added(), 1u);
  EXPECT_EQ(overlay.link_change_times().size(), 1u);
}

TEST(OverlayListeners, AddAndRemoveEventsFire) {
  ShellCluster cluster(4, default_params());

  struct Recorder final : OverlayListener {
    std::vector<std::pair<NodeId, bool>> events;  // (peer, added)
    void on_neighbor_added(NodeId peer, LinkKind) override {
      events.emplace_back(peer, true);
    }
    void on_neighbor_removed(NodeId peer) override {
      events.emplace_back(peer, false);
    }
  } recorder;

  auto& overlay = cluster.node(0).overlay();
  overlay.add_listener(&recorder);
  overlay.bootstrap_link(1, LinkKind::kRandom);
  overlay.on_peer_failure(1);
  ASSERT_EQ(recorder.events.size(), 2u);
  EXPECT_EQ(recorder.events[0], std::make_pair(NodeId{1}, true));
  EXPECT_EQ(recorder.events[1], std::make_pair(NodeId{1}, false));
}

TEST(OverlayMaintenance, DrainedMeasureQueueIsFreed) {
  ShellCluster cluster(24, default_params());
  cluster.seed_full_views();
  cluster.start_all();
  auto& overlay = cluster.node(0).overlay();
  std::size_t peak = 0;
  for (SimTime t = 0.05; t <= 60.0; t += 0.05) {
    cluster.engine().run_until(t);
    peak = std::max(peak, overlay.measure_queue_bytes());
  }
  EXPECT_GT(peak, 0u) << "the initial probe queue was never built";
  EXPECT_EQ(overlay.measure_queue_bytes(), 0u)
      << "the drained probe queue kept its storage";
}

TEST(OverlayParamsValidation, RejectsBadConfig) {
  sim::ShardedEngine sharded;
  net::Network network(sharded,
                       std::make_shared<net::RingLatencyModel>(4, 0.08),
                       net::NetworkConfig{}, Rng(1));
  network.add_node(0);
  membership::PartialView view(0, 16, Rng(2));

  OverlayParams bad;
  bad.target_rand_degree = 0;
  bad.target_near_degree = 0;
  EXPECT_THROW(OverlayManager(0, runtime::SimRuntime(network, 0), view, bad,
                              SparseRng(3)),
               AssertionError);

  OverlayParams bad_ratio;
  bad_ratio.replace_ratio = 0.0;
  EXPECT_THROW(OverlayManager(0, runtime::SimRuntime(network, 0), view,
                              bad_ratio, SparseRng(3)),
               AssertionError);
}

}  // namespace
}  // namespace gocast::overlay
