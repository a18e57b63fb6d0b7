// The deployment half every simulated system shares: the latency model, the
// sharded engine and its shard layout (DESIGN.md §11), the network, and the
// simulation-global actions (controls, failures, alive-node draws).
// core::System (GoCast) and baselines::PushGossipSystem add only their nodes
// on top, so both protocols shard the same way and fall back to one shard for
// the same two reasons (Deployment::init_sharding).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "gocast/dissemination.h"  // DeliveryHook
#include "net/latency_model.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace gocast::core {

/// Smallest usable PDES lookahead in seconds. Below it, windows would be so
/// narrow that barrier overhead swamps any parallelism (degenerate
/// topologies like RingLatencyModel with tiny arcs).
inline constexpr SimTime kPdesLookaheadFloor = 0.0008;

struct DeploymentConfig {
  std::size_t node_count = 64;
  net::NetworkConfig net;
  /// Latency model; when null a synthetic King-like model is generated from
  /// the seed (see net::make_synthetic_king).
  std::shared_ptr<const net::LatencyModel> latency;
  std::uint64_t seed = 1;

  /// Sharded conservative-PDES execution (DESIGN.md §11): partition nodes
  /// (by site) across this many engines synchronized in lookahead windows.
  /// Lossless results are byte-identical at any count. 1 — the default — is
  /// the serial run: one shard with an infinite lookahead, no worker
  /// threads. Two cases warn and run one shard instead: a single-site
  /// latency model, and a minimum cross-partition one-way latency below
  /// kPdesLookaheadFloor (both decided in Deployment::init_sharding).
  std::size_t shard_count = 1;
  /// Debug/test knob: run shard windows on the calling thread instead of the
  /// worker pool. Results are identical by construction.
  bool pdes_serial = false;
};

class Deployment {
 public:
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const net::Network& network() const { return *network_; }
  [[nodiscard]] SimTime now() const { return engine_->now(); }
  [[nodiscard]] Rng& rng() { return rng_; }

  void run_for(SimTime duration) { run_until(now() + duration); }
  void run_until(SimTime t) {
    engine_->run_until(t);
    network_->fold_shard_traffic();
  }

  // -- sharded PDES (DESIGN.md §11) --

  /// Effective shard count: what the run actually uses after fallbacks.
  [[nodiscard]] std::size_t shard_count() const {
    return engine_->shard_count();
  }
  /// The conservative lookahead in use (kNever with one shard).
  [[nodiscard]] SimTime pdes_lookahead() const { return engine_->lookahead(); }
  [[nodiscard]] sim::ShardedEngine* sharded_engine() { return engine_.get(); }

  /// Schedules a simulation-global action (fault events, probes, message
  /// injection) at absolute time `t`. It runs single-threaded at a window
  /// barrier at the exact time, before same-time node events; same-time
  /// controls run in admission order.
  void schedule_control(SimTime t, sim::InlineCallback cb) {
    engine_->schedule_control(t, std::move(cb));
  }

  /// Events processed / pending across all shards.
  [[nodiscard]] std::size_t events_processed() const {
    return engine_->processed();
  }
  [[nodiscard]] std::size_t events_pending() const {
    return engine_->pending();
  }

  /// A uniformly random alive node id.
  [[nodiscard]] NodeId random_alive_node();

  /// Ids of currently alive nodes.
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;

 protected:
  /// Resolves the latency model and the shard layout, and builds the engine
  /// and the network with `config.node_count` nodes placed on their shards.
  explicit Deployment(const DeploymentConfig& config);
  ~Deployment() = default;

  /// A uniformly random `fraction` of the currently alive nodes (the
  /// victims fail_random_fraction kills).
  [[nodiscard]] std::vector<NodeId> pick_failures(double fraction);

  Rng rng_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::unique_ptr<net::Network> network_;

 private:
  /// Resolves the effective shard layout — one shard when a fallback
  /// applies (warned) — creates engine_, and returns each site's shard.
  std::vector<std::uint32_t> init_sharding(const DeploymentConfig& config,
                                           const net::LatencyModel& latency);
};

/// A deployment of one node type. NodeT provides kill() and
/// set_delivery_hook(); the derived system constructs the nodes.
template <class NodeT>
class DeploymentOf : public Deployment {
 public:
  [[nodiscard]] NodeT& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const NodeT& node(NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Kills a uniformly random `fraction` of the currently alive nodes.
  /// Returns the killed ids.
  std::vector<NodeId> fail_random_fraction(double fraction) {
    std::vector<NodeId> killed = pick_failures(fraction);
    for (NodeId id : killed) nodes_[id]->kill();
    return killed;
  }

  /// Installs the hook on every node.
  void set_delivery_hook(const DeliveryHook& hook) {
    for (auto& node : nodes_) node->set_delivery_hook(hook);
  }

 protected:
  using Deployment::Deployment;

  std::vector<std::unique_ptr<NodeT>> nodes_;
};

/// Builds (and caches per-process, keyed by seed/sites) the default synthetic
/// King-like latency model. Generation costs ~n² work; experiments reuse it.
[[nodiscard]] std::shared_ptr<const net::LatencyModel> default_latency_model(
    std::uint64_t seed, std::size_t sites = 1740);

}  // namespace gocast::core
