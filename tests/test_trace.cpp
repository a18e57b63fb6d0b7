// Tests for the message-flow trace subsystem.
#include "net/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "gocast/system.h"
#include "net/network.h"

namespace gocast::net {
namespace {

struct ProbeMsg final : Message {
  ProbeMsg() : Message(MsgKind::kOther, 998) {}
  std::size_t wire_size() const override { return 64; }
};

struct NullEndpoint final : Endpoint {
  void handle_message(NodeId, const MessagePtr&) override {}
};

TEST(CountingTraceSink, CountsSendsDeliversDrops) {
  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.shard(0);
  NetworkConfig config;
  Network network(sharded, std::make_shared<RingLatencyModel>(4, 0.01), config,
                  Rng(1));
  NullEndpoint a;
  NullEndpoint b;
  network.set_endpoint(network.add_node(0), &a);
  network.set_endpoint(network.add_node(1), &b);

  CountingTraceSink sink;
  network.set_trace(&sink);

  network.send(0, 1, std::make_shared<ProbeMsg>());
  engine.run();  // first message delivered while the peer is alive
  network.fail_node(1);
  network.send(0, 1, std::make_shared<ProbeMsg>());
  engine.run();

  EXPECT_EQ(sink.sends(MsgKind::kOther), 2u);
  EXPECT_EQ(sink.delivers(MsgKind::kOther), 1u);
  EXPECT_EQ(sink.drops(MsgKind::kOther), 1u);
  EXPECT_EQ(sink.total_sends(), 2u);
  // The drop was a send to a dead receiver, and counted as such.
  EXPECT_EQ(sink.drops(DropReason::kDeadReceiver), 1u);
  EXPECT_EQ(sink.drops(DropReason::kRandomLoss), 0u);
  EXPECT_EQ(sink.drops(DropReason::kLinkPolicy), 0u);
}

TEST(CountingTraceSink, AttributesRandomLossDrops) {
  sim::ShardedEngine sharded;
  sim::Engine& engine = sharded.shard(0);
  NetworkConfig config;
  config.loss_probability = 0.5;
  Network network(sharded, std::make_shared<RingLatencyModel>(4, 0.01), config,
                  Rng(3));
  NullEndpoint a;
  NullEndpoint b;
  network.set_endpoint(network.add_node(0), &a);
  network.set_endpoint(network.add_node(1), &b);
  CountingTraceSink sink;
  network.set_trace(&sink);

  for (int i = 0; i < 200; ++i) network.send(0, 1, std::make_shared<ProbeMsg>());
  engine.run();

  EXPECT_GT(sink.drops(DropReason::kRandomLoss), 0u);
  EXPECT_EQ(sink.drops(DropReason::kRandomLoss), sink.drops(MsgKind::kOther));
  EXPECT_EQ(sink.drops(DropReason::kDeadReceiver), 0u);
  // The per-reason split totals the per-kind drop count, and agrees with
  // TrafficStats accounting.
  EXPECT_EQ(sink.drops(DropReason::kRandomLoss) +
                sink.drops(DropReason::kDeadReceiver) +
                sink.drops(DropReason::kLinkPolicy),
            sink.drops(MsgKind::kOther));
  EXPECT_EQ(sink.drops(DropReason::kRandomLoss), network.traffic().lost());
}

TEST(CountingTraceSink, ObservesProtocolTrafficByKind) {
  core::SystemConfig config;
  config.node_count = 16;
  config.seed = 90;
  core::System system(config);
  CountingTraceSink sink;
  system.network().set_trace(&sink);
  system.start();
  system.run_for(20.0);
  system.node(0).multicast(256);
  system.run_for(3.0);

  EXPECT_GT(sink.sends(MsgKind::kGossipDigest), 0u);
  EXPECT_GT(sink.sends(MsgKind::kPing), 0u);
  EXPECT_GT(sink.sends(MsgKind::kTreeControl), 0u);
  EXPECT_GT(sink.sends(MsgKind::kData), 0u);
  // Nothing lost in a healthy run.
  EXPECT_EQ(sink.drops(MsgKind::kData), 0u);
}

TEST(CsvTraceSink, WritesRows) {
  std::string path = ::testing::TempDir() + "/trace_test.csv";
  {
    sim::ShardedEngine sharded;
    sim::Engine& engine = sharded.shard(0);
    Network network(sharded, std::make_shared<RingLatencyModel>(4, 0.01),
                    NetworkConfig{}, Rng(1));
    NullEndpoint a;
    NullEndpoint b;
    network.set_endpoint(network.add_node(0), &a);
    network.set_endpoint(network.add_node(1), &b);
    CsvTraceSink sink(path);
    network.set_trace(&sink);
    network.send(0, 1, std::make_shared<ProbeMsg>());
    engine.run();
    network.fail_node(1);
    network.send(0, 1, std::make_shared<ProbeMsg>());
    engine.run();
  }
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "event,time,from,to,kind,packet_type,bytes,reason");
  std::string send_row;
  std::getline(in, send_row);
  EXPECT_EQ(send_row.rfind("send,", 0), 0u);
  // Send/deliver rows leave the reason column empty.
  EXPECT_EQ(send_row.back(), ',');
  std::string deliver_row;
  std::getline(in, deliver_row);
  EXPECT_EQ(deliver_row.rfind("deliver,", 0), 0u);
  std::string send2_row;
  std::getline(in, send2_row);
  std::string drop_row;
  std::getline(in, drop_row);
  EXPECT_EQ(drop_row.rfind("drop,", 0), 0u);
  // Drop rows name the mechanism: the receiver was dead.
  EXPECT_EQ(drop_row.substr(drop_row.rfind(',') + 1), "dead");
  std::remove(path.c_str());
}

TEST(CsvTraceSink, UnwritablePathThrows) {
  EXPECT_THROW(CsvTraceSink("/nonexistent/dir/trace.csv"), AssertionError);
}

}  // namespace
}  // namespace gocast::net
