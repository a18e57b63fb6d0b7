// Push-based gossip multicast baseline (the paper's "gossip" and "no-wait
// gossip" curves, modeled on Bimodal Multicast).
//
// "gossip": every t seconds a node sends a summary of message IDs to one
// uniformly random node; each message's ID is gossiped to `fanout` random
// nodes in total (one per period). Receivers pull messages they miss.
//
// "no-wait gossip": upon first receiving a message, a node immediately
// gossips its ID to `fanout` random nodes (gossip period effectively 0) —
// the paper uses it to reveal the fundamental performance limit of gossip
// multicast. Gossips still precede payloads (pull model), which is the
// source of its residual delay.
//
// Unlike GoCast, targets are chosen from the full membership (complete
// randomness) — matching the baseline's definition and giving it the most
// favorable membership assumption.
//
// The node is a template over a runtime context (see runtime/context.h);
// PushGossipNode binds the simulator. PushGossipSystem stays sim-only.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "gocast/dissemination.h"  // DeliveryEvent / DeliveryHook / wire messages
#include "net/network.h"
#include "runtime/context.h"
#include "runtime/sim_runtime.h"
#include "sim/timer.h"

namespace gocast::baselines {

struct PushGossipParams {
  int fanout = 5;              ///< F: how many random nodes hear each ID
  SimTime gossip_period = 0.1; ///< t; ignored in no-wait mode
  bool no_wait = false;
  std::size_t payload_bytes = 1024;
  SimTime gc_payload_after = 120.0;
  SimTime gc_record_after = 240.0;
  SimTime gc_sweep_period = 5.0;
};

template <runtime::Context RT>
class PushGossipNodeT final : public net::Endpoint {
 public:
  PushGossipNodeT(NodeId id, RT rt, PushGossipParams params, Rng rng);

  [[nodiscard]] NodeId id() const { return id_; }

  void start(SimTime stagger);
  void stop();
  void kill();

  MsgId multicast(std::size_t payload_bytes);

  void set_delivery_hook(core::DeliveryHook hook) {
    delivery_hook_ = std::move(hook);
  }

  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t gossips_sent() const { return gossips_sent_; }

  /// Harness-facing aliases matching core::GoCastNode.
  [[nodiscard]] std::uint64_t deliveries_count() const { return deliveries_; }
  [[nodiscard]] std::uint64_t duplicates_count() const { return duplicates_; }

  // -- net::Endpoint --
  void handle_message(NodeId from, const net::MessagePtr& msg) override;

 private:
  struct Stored {
    SimTime inject_time;
    SimTime received_at;
    std::size_t payload_bytes;
    int remaining_fanout;  ///< gossip targets this ID still needs
    bool payload_present;
  };

  void accept_message(MsgId id, SimTime inject_time, std::size_t payload_bytes,
                      core::DeliveryPath path);
  void on_gossip_timer();
  void gossip_now(MsgId id);  ///< no-wait mode: immediate fanout
  void on_digest(NodeId from, const core::GossipDigestMsg& msg);
  void on_pull(NodeId from, const core::PullRequestMsg& msg);
  void on_data(NodeId from, const core::DataMsg& msg);
  void issue_pull(NodeId target, MsgId id);
  void gc_sweep();
  [[nodiscard]] NodeId random_target();

  NodeId id_;
  RT rt_;
  PushGossipParams params_;
  Rng rng_;

  struct PullState {
    NodeId target;
    SimTime started;
    int attempts;
  };

  std::unordered_map<MsgId, Stored> store_;
  std::unordered_map<MsgId, PullState> pull_pending_;
  std::uint32_t next_seq_ = 0;

  core::DeliveryHook delivery_hook_;
  runtime::PeriodicTimer<RT> gossip_timer_;
  runtime::PeriodicTimer<RT> gc_timer_;

  std::uint64_t deliveries_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t gossips_sent_ = 0;
};

/// The simulation-backed baseline node.
using PushGossipNode = PushGossipNodeT<runtime::SimRuntime>;

/// Assembles a complete push-gossip deployment over the same network
/// substrate as core::System.
struct PushGossipSystemConfig {
  std::size_t node_count = 64;
  PushGossipParams node;
  net::NetworkConfig net;
  std::shared_ptr<const net::LatencyModel> latency;  ///< null → synthetic King
  std::uint64_t seed = 1;
};

class PushGossipSystem {
 public:
  explicit PushGossipSystem(PushGossipSystemConfig config);

  PushGossipSystem(const PushGossipSystem&) = delete;
  PushGossipSystem& operator=(const PushGossipSystem&) = delete;

  void start();
  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] PushGossipNode& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] SimTime now() const { return engine_.now(); }
  /// The baseline always runs one shard.
  [[nodiscard]] std::size_t shard_count() const {
    return engine_.shard_count();
  }

  void run_for(SimTime duration) { run_until(engine_.now() + duration); }
  void run_until(SimTime t) { engine_.run_until(t); }
  /// Schedules a simulation-global action at absolute time `t`, ahead of
  /// same-time node events (see core::System::schedule_control).
  void schedule_control(SimTime t, sim::InlineCallback cb) {
    engine_.schedule_control(t, std::move(cb));
  }
  std::vector<NodeId> fail_random_fraction(double fraction);
  [[nodiscard]] NodeId random_alive_node();
  void set_delivery_hook(const core::DeliveryHook& hook);
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;

 private:
  PushGossipSystemConfig config_;
  Rng rng_;
  sim::ShardedEngine engine_;
  std::shared_ptr<const net::LatencyModel> latency_;
  std::unique_ptr<net::Network> network_;
  std::vector<std::unique_ptr<PushGossipNode>> nodes_;
};

}  // namespace gocast::baselines
