// Facade that assembles a complete simulated GoCast deployment: the shared
// deployment half (engine, latency model, network; gocast/deployment.h) plus
// GoCast nodes, with the initialization procedure the paper's experiments use
// (seeded partial views, C_degree/2 random bootstrap links per node, one
// designated root).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "gocast/deployment.h"
#include "gocast/group_directory.h"
#include "gocast/node.h"

namespace gocast::core {

/// The deployment fields (node count, network, latency model, seed, shard
/// count) live in DeploymentConfig; these are GoCast's own.
struct SystemConfig : DeploymentConfig {
  GoCastConfig node;  ///< per-node configuration (landmarks filled in by System)
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

  /// Multi-group topology (DESIGN.md §10). group_count == 1 (the default)
  /// keeps the deployment single-group and byte-identical to the
  /// pre-multigroup simulator: no directory is built and no multi-group code
  /// path runs. With more groups, System derives a GroupDirectory from the
  /// seed, subscribes members, bootstraps each group's subgraph, and
  /// designates per-group roots.
  GroupTopology groups;
};

class System : public DeploymentOf<GoCastNode> {
 public:
  explicit System(SystemConfig config);

  /// Seeds views, installs bootstrap links, designates the root, and starts
  /// every node with a small random stagger.
  void start();

  [[nodiscard]] const SystemConfig& config() const { return config_; }

  /// Freezes overlay/tree maintenance on every alive node (Fig 3(b) mode).
  void freeze_all();

  /// Brings a crashed node back online: clears its stale protocol links
  /// (every TCP connection died with the process), recovers it on the
  /// network, and rejoins it through a random alive bootstrap node. The
  /// fault subsystem's recover events use this. No-op for alive nodes.
  void revive_node(NodeId id);

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
  SystemConfig config_;
  /// One set of interning tables (landmark vectors, message metadata) per
  /// shard: the tables are single-threaded, and values cross shards by
  /// value on the wire, so shards never share handles.
  std::vector<std::shared_ptr<ShardTables>> shard_stores_;
  std::shared_ptr<GroupDirectory> directory_;
  bool started_ = false;
  std::size_t spawned_ = 0;
};

}  // namespace gocast::core
