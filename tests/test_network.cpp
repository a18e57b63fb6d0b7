// Tests for the simulated network: latency-correct delivery, failure
// semantics (silent drop + TCP-reset notification), loss injection, traffic
// accounting, and intra-site latency.
#include "net/network.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/assert.h"
#include "net/trace.h"

namespace gocast::net {
namespace {

struct TestMsg final : Message {
  explicit TestMsg(std::size_t bytes = 100)
      : Message(MsgKind::kOther, 999), bytes(bytes) {}
  std::size_t bytes;
  std::size_t wire_size() const override { return bytes; }
};

class RecordingEndpoint final : public Endpoint {
 public:
  struct Received {
    NodeId from;
    SimTime at;
  };
  explicit RecordingEndpoint(sim::Engine& engine) : engine_(engine) {}

  void handle_message(NodeId from, const MessagePtr& msg) override {
    (void)msg;
    received.push_back({from, engine_.now()});
  }
  void handle_send_failure(NodeId to, const MessagePtr& msg) override {
    (void)msg;
    failures.push_back({to, engine_.now()});
  }

  std::vector<Received> received;
  std::vector<Received> failures;

 private:
  sim::Engine& engine_;
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : network_(sharded_, std::make_shared<RingLatencyModel>(8, 0.08),
                 NetworkConfig{}, Rng(1)) {
    for (int i = 0; i < 4; ++i) {
      NodeId id = network_.add_node(static_cast<std::uint32_t>(i * 2));
      endpoints_.push_back(std::make_unique<RecordingEndpoint>(engine_));
      network_.set_endpoint(id, endpoints_.back().get());
    }
  }

  sim::ShardedEngine sharded_;
  sim::Engine& engine_{sharded_.shard(0)};
  Network network_;
  std::vector<std::unique_ptr<RecordingEndpoint>> endpoints_;
};

TEST_F(NetworkTest, DeliversWithOneWayLatency) {
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.run();
  ASSERT_EQ(endpoints_[1]->received.size(), 1u);
  EXPECT_EQ(endpoints_[1]->received[0].from, 0u);
  // Sites 0 and 2 on an 8-site ring with 0.08 max: arc 2 of 4 -> 0.04.
  EXPECT_DOUBLE_EQ(endpoints_[1]->received[0].at, 0.04);
}

TEST_F(NetworkTest, RttIsTwiceOneWay) {
  EXPECT_DOUBLE_EQ(network_.rtt(0, 1), 2.0 * network_.one_way(0, 1));
  EXPECT_DOUBLE_EQ(network_.one_way(2, 2), 0.0);
}

TEST_F(NetworkTest, SendToSelfThrows) {
  EXPECT_THROW(network_.send(1, 1, std::make_shared<TestMsg>()), AssertionError);
}

TEST_F(NetworkTest, DeadReceiverDropsAndNotifiesSender) {
  network_.fail_node(1);
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.run();
  EXPECT_TRUE(endpoints_[1]->received.empty());
  ASSERT_EQ(endpoints_[0]->failures.size(), 1u);
  EXPECT_EQ(endpoints_[0]->failures[0].from, 1u);  // "to" echoed
  // Reset comes back one RTT after the send.
  EXPECT_DOUBLE_EQ(endpoints_[0]->failures[0].at, 2.0 * network_.one_way(0, 1));
  EXPECT_EQ(network_.traffic().dropped_dead(), 1u);
}

TEST_F(NetworkTest, DeadSenderSendsNothing) {
  network_.fail_node(0);
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.run();
  EXPECT_TRUE(endpoints_[1]->received.empty());
  EXPECT_EQ(network_.traffic().sender_dead(), 1u);
  EXPECT_EQ(network_.traffic().total_sent().messages, 0u);
}

TEST_F(NetworkTest, MessageInFlightSurvivesSenderDeath) {
  network_.send(0, 1, std::make_shared<TestMsg>());
  network_.fail_node(0);  // dies right after sending
  engine_.run();
  EXPECT_EQ(endpoints_[1]->received.size(), 1u);
}

TEST_F(NetworkTest, ReceiverDiesWhileMessageInFlight) {
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.schedule_at(0.01, [this] { network_.fail_node(1); });
  engine_.run();
  EXPECT_TRUE(endpoints_[1]->received.empty());
  EXPECT_EQ(endpoints_[0]->failures.size(), 1u);
}

TEST_F(NetworkTest, RecoverNodeReceivesAgain) {
  network_.fail_node(1);
  EXPECT_EQ(network_.alive_count(), 3u);
  network_.recover_node(1);
  EXPECT_EQ(network_.alive_count(), 4u);
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.run();
  EXPECT_EQ(endpoints_[1]->received.size(), 1u);
}

TEST_F(NetworkTest, TrafficAccounting) {
  network_.send(0, 1, std::make_shared<TestMsg>(500));
  network_.send(1, 2, std::make_shared<TestMsg>(300));
  engine_.run();
  EXPECT_EQ(network_.traffic().total_sent().messages, 2u);
  EXPECT_EQ(network_.traffic().total_sent().bytes, 800u);
  EXPECT_EQ(network_.traffic().delivered(), 2u);
  EXPECT_EQ(network_.traffic().kind(MsgKind::kOther).messages, 2u);
}

TEST(NetworkIntraSite, CoLocatedNodesUseIntraSiteLatency) {
  sim::ShardedEngine sharded;
  NetworkConfig config;
  config.intra_site_one_way = 0.0005;
  Network network(sharded, std::make_shared<RingLatencyModel>(4, 0.08), config,
                  Rng(1));
  NodeId a = network.add_node(2);
  NodeId b = network.add_node(2);  // same site
  EXPECT_DOUBLE_EQ(network.one_way(a, b), 0.0005);
}

TEST(NetworkLoss, LossProbabilityDropsMessages) {
  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.shard(0);
  NetworkConfig config;
  config.loss_probability = 0.5;
  Network network(sharded, std::make_shared<RingLatencyModel>(4, 0.08), config,
                  Rng(7));
  RecordingEndpoint a(engine);
  RecordingEndpoint b(engine);
  network.set_endpoint(network.add_node(0), &a);
  network.set_endpoint(network.add_node(1), &b);
  for (int i = 0; i < 400; ++i) {
    network.send(0, 1, std::make_shared<TestMsg>());
  }
  engine.run();
  EXPECT_GT(network.traffic().lost(), 120u);
  EXPECT_LT(network.traffic().lost(), 280u);
  EXPECT_EQ(b.received.size() + network.traffic().lost(), 400u);
}

TEST(NetworkSitePairs, RecordsWhenEnabled) {
  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.shard(0);
  NetworkConfig config;
  config.record_site_pairs = true;
  Network network(sharded, std::make_shared<RingLatencyModel>(4, 0.08), config,
                  Rng(1));
  RecordingEndpoint a(engine);
  RecordingEndpoint b(engine);
  network.set_endpoint(network.add_node(0), &a);
  network.set_endpoint(network.add_node(3), &b);
  network.send(0, 1, std::make_shared<TestMsg>(100));
  network.send(1, 0, std::make_shared<TestMsg>(50));
  engine.run();
  const auto& pairs = network.traffic().site_pair_bytes();
  ASSERT_EQ(pairs.size(), 1u);  // symmetric key
  EXPECT_DOUBLE_EQ(pairs.begin()->second, 150.0);
}

TEST(NetworkBandwidth, SerializationDelayAddsToLatency) {
  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.shard(0);
  NetworkConfig config;
  config.uplink_bytes_per_second = 1000.0;  // 1 KB/s: 100 bytes = 0.1 s
  Network network(sharded, std::make_shared<RingLatencyModel>(8, 0.08), config,
                  Rng(1));
  RecordingEndpoint a(engine);
  RecordingEndpoint b(engine);
  network.set_endpoint(network.add_node(0), &a);
  network.set_endpoint(network.add_node(2), &b);  // one_way = 0.04

  network.send(0, 1, std::make_shared<TestMsg>(100));
  engine.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_NEAR(b.received[0].at, 0.04 + 0.1, 1e-9);
}

TEST(NetworkBandwidth, ConcurrentSendsQueueOnTheUplink) {
  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.shard(0);
  NetworkConfig config;
  config.uplink_bytes_per_second = 1000.0;
  Network network(sharded, std::make_shared<RingLatencyModel>(8, 0.08), config,
                  Rng(1));
  RecordingEndpoint a(engine);
  RecordingEndpoint b(engine);
  network.set_endpoint(network.add_node(0), &a);
  network.set_endpoint(network.add_node(2), &b);

  network.send(0, 1, std::make_shared<TestMsg>(100));
  network.send(0, 1, std::make_shared<TestMsg>(100));  // queues behind
  engine.run();
  ASSERT_EQ(b.received.size(), 2u);
  EXPECT_NEAR(b.received[0].at, 0.14, 1e-9);
  EXPECT_NEAR(b.received[1].at, 0.24, 1e-9);  // +0.1 s serialization
}

TEST(NetworkBandwidth, ZeroBandwidthMeansNoSerializationDelay) {
  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.shard(0);
  Network network(sharded, std::make_shared<RingLatencyModel>(8, 0.08),
                  NetworkConfig{}, Rng(1));
  RecordingEndpoint a(engine);
  RecordingEndpoint b(engine);
  network.set_endpoint(network.add_node(0), &a);
  network.set_endpoint(network.add_node(2), &b);
  network.send(0, 1, std::make_shared<TestMsg>(1000000));
  engine.run();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_NEAR(b.received[0].at, 0.04, 1e-9);
}

/// Applies one fixed LinkDecision to every link.
struct StubPolicy final : LinkPolicy {
  LinkDecision decision;
  LinkDecision evaluate(NodeId, NodeId) const override { return decision; }
};

class LinkPolicyTest : public ::testing::Test {
 protected:
  LinkPolicyTest()
      : network_(sharded_, std::make_shared<RingLatencyModel>(8, 0.08),
                 NetworkConfig{}, Rng(5)),
        a_(engine_),
        b_(engine_) {
    network_.set_endpoint(network_.add_node(0), &a_);
    network_.set_endpoint(network_.add_node(2), &b_);  // one_way = 0.04
    network_.set_trace(&trace_);
    network_.set_link_policy(&policy_);
  }

  sim::ShardedEngine sharded_;
  sim::Engine& engine_{sharded_.shard(0)};
  Network network_;
  RecordingEndpoint a_;
  RecordingEndpoint b_;
  CountingTraceSink trace_;
  StubPolicy policy_;
};

TEST_F(LinkPolicyTest, BlockedLinkBlackholesSilently) {
  policy_.decision.blocked = true;
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.run();
  EXPECT_TRUE(b_.received.empty());
  // Unlike a dead receiver, a partition gives the sender no TCP reset:
  // unreachable is not provably dead.
  EXPECT_TRUE(a_.failures.empty());
  EXPECT_EQ(network_.traffic().policy_dropped(), 1u);
  EXPECT_EQ(trace_.drops(DropReason::kLinkPolicy), 1u);
  EXPECT_EQ(trace_.drops(DropReason::kDeadReceiver), 0u);
}

TEST_F(LinkPolicyTest, LatencyMultiplierScalesDelay) {
  policy_.decision.latency_multiplier = 3.0;
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.run();
  ASSERT_EQ(b_.received.size(), 1u);
  EXPECT_NEAR(b_.received[0].at, 3.0 * 0.04, 1e-9);
}

TEST_F(LinkPolicyTest, JitterAddsBoundedExtraDelay) {
  policy_.decision.jitter = 0.05;
  for (int i = 0; i < 50; ++i) {
    network_.send(0, 1, std::make_shared<TestMsg>());
  }
  engine_.run();
  ASSERT_EQ(b_.received.size(), 50u);
  bool any_jittered = false;
  for (const auto& r : b_.received) {
    EXPECT_GE(r.at, 0.04 - 1e-12);
    EXPECT_LE(r.at, 0.04 + 0.05 + 1e-12);
    if (r.at > 0.04 + 1e-9) any_jittered = true;
  }
  EXPECT_TRUE(any_jittered);
}

TEST_F(LinkPolicyTest, ExtraLossDropsAboutTheRequestedFraction) {
  policy_.decision.extra_loss = 0.5;
  for (int i = 0; i < 400; ++i) {
    network_.send(0, 1, std::make_shared<TestMsg>());
  }
  engine_.run();
  EXPECT_GT(network_.traffic().policy_dropped(), 120u);
  EXPECT_LT(network_.traffic().policy_dropped(), 280u);
  EXPECT_EQ(b_.received.size() + network_.traffic().policy_dropped(), 400u);
  EXPECT_EQ(trace_.drops(DropReason::kLinkPolicy),
            network_.traffic().policy_dropped());
}

TEST_F(LinkPolicyTest, ClearingThePolicyRestoresDelivery) {
  policy_.decision.blocked = true;
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.run();
  EXPECT_TRUE(b_.received.empty());
  network_.set_link_policy(nullptr);
  network_.send(0, 1, std::make_shared<TestMsg>());
  engine_.run();
  EXPECT_EQ(b_.received.size(), 1u);
}

TEST(NetworkLoss, SetLossProbabilityTakesEffectMidRun) {
  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.shard(0);
  Network network(sharded, std::make_shared<RingLatencyModel>(4, 0.08),
                  NetworkConfig{}, Rng(11));
  RecordingEndpoint a(engine);
  RecordingEndpoint b(engine);
  network.set_endpoint(network.add_node(0), &a);
  network.set_endpoint(network.add_node(1), &b);

  for (int i = 0; i < 100; ++i) network.send(0, 1, std::make_shared<TestMsg>());
  engine.run();
  EXPECT_EQ(b.received.size(), 100u);  // lossless by default

  network.set_loss_probability(0.5);
  for (int i = 0; i < 400; ++i) network.send(0, 1, std::make_shared<TestMsg>());
  engine.run();
  EXPECT_GT(network.traffic().lost(), 120u);
  EXPECT_LT(network.traffic().lost(), 280u);

  network.set_loss_probability(0.0);
  std::size_t before = b.received.size();
  for (int i = 0; i < 100; ++i) network.send(0, 1, std::make_shared<TestMsg>());
  engine.run();
  EXPECT_EQ(b.received.size(), before + 100u);
}

// A PoolVec copied out of a message detaches from the arena
// (select_on_container_copy_construction returns a null-arena allocator), so
// the copy may safely outlive every pooled message and the Network itself.
// Under ASan this also proves no free into a destroyed arena.
TEST(MessagePool, CopiedPayloadVectorDetachesFromArena) {
  PoolVec<int> copy;
  {
    auto arena = std::make_shared<MessageArena>();
    PoolVec<int> pooled{PayloadAllocator<int>(arena)};
    for (int i = 0; i < 64; ++i) pooled.push_back(i);
    PoolVec<int> detached = pooled;  // copy ctor: allocator must not follow
    EXPECT_EQ(detached.get_allocator().arena(), nullptr);
    ASSERT_EQ(detached.size(), 64u);
    copy = detached;  // copy's own (null) allocator supplies the storage
  }  // arena and all arena-backed storage destroyed
  copy.push_back(64);
  EXPECT_EQ(copy.size(), 65u);
  EXPECT_EQ(copy.front(), 0);
  EXPECT_EQ(copy.back(), 64);
}

TEST(NetworkRoundRobin, MapsNodesToSitesModulo) {
  sim::ShardedEngine sharded;
  Network network(sharded, std::make_shared<RingLatencyModel>(3, 0.08),
                  NetworkConfig{}, Rng(1));
  network.add_nodes_round_robin(7);
  EXPECT_EQ(network.node_count(), 7u);
  EXPECT_EQ(network.site_of(0), 0u);
  EXPECT_EQ(network.site_of(3), 0u);
  EXPECT_EQ(network.site_of(5), 2u);
}

}  // namespace
}  // namespace gocast::net
