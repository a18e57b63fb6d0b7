// Facade that assembles a complete simulated GoCast deployment: engine,
// latency model, network, and nodes, with the initialization procedure the
// paper's experiments use (seeded partial views, C_degree/2 random bootstrap
// links per node, one designated root).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gocast/group_directory.h"
#include "gocast/node.h"
#include "net/latency_model.h"
#include "net/network.h"
#include "sim/sharded_engine.h"

namespace gocast::core {

/// Smallest usable PDES lookahead in seconds. Below it, windows would be so
/// narrow that barrier overhead swamps any parallelism (degenerate
/// topologies like RingLatencyModel with tiny arcs, or single-site maps).
inline constexpr SimTime kPdesLookaheadFloor = 0.0008;

struct SystemConfig {
  std::size_t node_count = 64;
  GoCastConfig node;  ///< per-node configuration (landmarks filled in by System)
  net::NetworkConfig net;
  /// Latency model; when null a synthetic King-like model is generated from
  /// the seed (see net::make_synthetic_king).
  std::shared_ptr<const net::LatencyModel> latency;
  std::uint64_t seed = 1;
  /// Initial random links each node initiates (the paper uses C_degree/2, so
  /// the initial average degree is C_degree).
  std::size_t bootstrap_links_per_node = 3;
  std::size_t landmark_count = 8;

  /// Capacity-aware degrees (the paper: "tuning node degree according to
  /// node capacity can be accommodated in our protocol"): per-node
  /// multiplier applied to the nearby-degree target. Null means uniform.
  std::function<double(NodeId)> capacity_of;

  /// The last `deferred_nodes` nodes are created but not started: they join
  /// later through spawn_next() (churn experiments). They count as dead
  /// until spawned.
  std::size_t deferred_nodes = 0;

  /// Sharded conservative-PDES execution (DESIGN.md §11): partition nodes
  /// (by site) across this many engines synchronized in lookahead windows.
  /// Results are byte-identical at any count. 1 — the default — is the
  /// serial run: one shard with an infinite lookahead, no worker threads.
  /// More shards require a latency model whose minimum cross-partition
  /// one-way latency clears kPdesLookaheadFloor; otherwise the system warns
  /// and runs one shard. Multi-group topologies, site-pair recording and
  /// single-site latency models also run one shard (all decided in
  /// System::init_sharding).
  std::size_t shard_count = 1;
  /// Debug/test knob: run shard windows on the calling thread instead of the
  /// worker pool. Results are identical by construction.
  bool pdes_serial = false;

  /// Multi-group topology (DESIGN.md §10). group_count == 1 (the default)
  /// keeps the deployment single-group and byte-identical to the
  /// pre-multigroup simulator: no directory is built and no multi-group code
  /// path runs. With more groups, System derives a GroupDirectory from the
  /// seed, subscribes members, bootstraps each group's subgraph, and
  /// designates per-group roots.
  GroupTopology groups;
};

class System {
 public:
  explicit System(SystemConfig config);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Seeds views, installs bootstrap links, designates the root, and starts
  /// every node with a small random stagger.
  void start();

  [[nodiscard]] net::Network& network() { return *network_; }
  [[nodiscard]] const net::Network& network() const { return *network_; }
  [[nodiscard]] GoCastNode& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const GoCastNode& node(NodeId id) const { return *nodes_.at(id); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] const SystemConfig& config() const { return config_; }
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

  /// Kills a uniformly random `fraction` of the currently alive nodes.
  /// Returns the killed ids.
  std::vector<NodeId> fail_random_fraction(double fraction);

  /// Freezes overlay/tree maintenance on every alive node (Fig 3(b) mode).
  void freeze_all();

  /// A uniformly random alive node id.
  [[nodiscard]] NodeId random_alive_node();

  /// Brings a crashed node back online: clears its stale protocol links
  /// (every TCP connection died with the process), recovers it on the
  /// network, and rejoins it through a random alive bootstrap node. The
  /// fault subsystem's recover events use this. No-op for alive nodes.
  void revive_node(NodeId id);

  /// Installs the hook on every node.
  void set_delivery_hook(const DeliveryHook& hook);

  // -- multi-group (only meaningful when config.groups.group_count > 1) --

  /// The shared group directory; null for single-group deployments.
  [[nodiscard]] const std::shared_ptr<GroupDirectory>& directory() const {
    return directory_;
  }
  /// Subscribes `id` to extra group `g` at runtime (group churn): updates
  /// the directory and spins up the node's per-group state.
  void group_join(NodeId id, GroupId g);
  /// Unsubscribes `id` from `g`: directory update plus node-side deactivate.
  void group_leave(NodeId id, GroupId g);

  /// Ids of currently alive nodes.
  [[nodiscard]] std::vector<NodeId> alive_nodes() const;

  /// Brings the next deferred node online: it joins through a random alive
  /// bootstrap node and integrates via the normal maintenance protocols.
  /// Returns its id, or kInvalidNode when none remain.
  NodeId spawn_next();
  [[nodiscard]] std::size_t deferred_remaining() const {
    return config_.deferred_nodes - spawned_;
  }

  /// Per-subsystem byte breakdown across the whole deployment (--mem-report).
  /// Approximate: container capacities, not allocator-level truth. Node
  /// objects count the GoCastNode footprint itself (dominated by the two
  /// eager mt19937_64 streams each node owns; DESIGN.md §6.5).
  struct MemoryReport {
    std::size_t engine_bytes = 0;          ///< event heap + slot chunks
    std::size_t network_bytes = 0;         ///< node records + message pool
    std::size_t node_object_bytes = 0;     ///< sizeof(GoCastNode) * nodes
    std::size_t view_bytes = 0;            ///< membership views (all nodes)
    std::size_t landmark_store_bytes = 0;  ///< shared interning store
    std::size_t landmark_unique = 0;       ///< distinct vectors interned
    /// Dissemination layer, all parts of `dissemination` summed.
    std::size_t dissemination_bytes = 0;
    /// The same bytes by table: message stores (per-node arrival logs and
    /// position indexes plus the shard message tables), digest backlogs,
    /// pull trackers, and the rest.
    DisseminationMemory dissemination;
    std::size_t message_records = 0;       ///< live store records (all nodes)
    std::size_t overlay_bytes = 0;         ///< neighbor/pending tables
    std::size_t tree_bytes = 0;            ///< children + distance caches
    /// Multi-group runs: (group id, tree+dissemination bytes summed over all
    /// subscribers). Already included in the dissemination/tree fields —
    /// this is a breakdown, not an addition. Empty for single-group runs.
    std::vector<std::pair<GroupId, std::size_t>> group_bytes;
    [[nodiscard]] std::size_t total_bytes() const {
      return engine_bytes + network_bytes + node_object_bytes + view_bytes +
             landmark_store_bytes + dissemination_bytes + overlay_bytes +
             tree_bytes;
    }
  };
  [[nodiscard]] MemoryReport memory_report() const;

 private:
  /// Resolves the effective shard layout — one shard when a fallback
  /// applies (warned) — creates engine_, and returns each site's shard.
  /// Ctor helper.
  std::vector<std::uint32_t> init_sharding();

  SystemConfig config_;
  Rng rng_;
  std::shared_ptr<const net::LatencyModel> latency_;
  std::unique_ptr<sim::ShardedEngine> engine_;
  std::unique_ptr<net::Network> network_;
  /// One set of interning tables (landmark vectors, message metadata) per
  /// shard: the tables are single-threaded, and values cross shards by
  /// value on the wire, so shards never share handles.
  std::vector<std::shared_ptr<ShardTables>> shard_stores_;
  std::vector<std::unique_ptr<GoCastNode>> nodes_;
  std::shared_ptr<GroupDirectory> directory_;
  bool started_ = false;
  std::size_t spawned_ = 0;
};

/// Builds (and caches per-process, keyed by seed/sites) the default synthetic
/// King-like latency model. Generation costs ~n² work; experiments reuse it.
[[nodiscard]] std::shared_ptr<const net::LatencyModel> default_latency_model(
    std::uint64_t seed, std::size_t sites = 1740);

}  // namespace gocast::core
