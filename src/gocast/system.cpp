#include "gocast/system.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_set>

#include "common/assert.h"
#include "common/logging.h"

namespace gocast::core {

namespace {
/// Members seeded into each node's partial view at start.
constexpr std::size_t kInitialViewSize = 64;
}  // namespace

System::System(SystemConfig config)
    : DeploymentOf(config), config_(std::move(config)) {
  // One set of interning tables per shard — sharing is what collapses the
  // duplicated member records (a node known to v views costs one 32-byte
  // landmark vector instead of v of them) and the per-node copies of each
  // message's metadata. The tables are single-threaded; values cross shards
  // by value on the wire, never as handles.
  shard_stores_.resize(engine_->shard_count());
  for (auto& tables : shard_stores_) {
    tables = std::make_shared<ShardTables>();
  }
  // Landmarks: the first k nodes (the bootstrap set a deployment would use).
  GoCastConfig node_config = config_.node;
  node_config.landmarks.clear();
  std::size_t landmark_count =
      std::min({config_.landmark_count, config_.node_count,
                membership::kLandmarkSlots});
  for (std::size_t i = 0; i < landmark_count; ++i) {
    node_config.landmarks.push_back(static_cast<NodeId>(i));
  }

  GOCAST_ASSERT(config_.deferred_nodes < config_.node_count - 1);

  // Uniform deployments share one immutable config per shard (the copies
  // differ only in shard_tables); capacity-aware ones need a per-node copy
  // for the scaled degree target.
  std::vector<std::shared_ptr<const GoCastConfig>> shard_configs;
  if (!config_.capacity_of) {
    for (const auto& tables : shard_stores_) {
      GoCastConfig copy = node_config;
      copy.shard_tables = tables;
      shard_configs.push_back(std::make_shared<const GoCastConfig>(copy));
    }
  }

  nodes_.reserve(config_.node_count);
  for (NodeId id = 0; id < config_.node_count; ++id) {
    const std::uint16_t shard = network_->shard_of(id);
    std::shared_ptr<const GoCastConfig> this_config;
    if (config_.capacity_of) {
      // Capacity-aware degrees: scale the nearby target per node.
      double capacity = config_.capacity_of(id);
      GOCAST_ASSERT_MSG(capacity > 0.0, "capacity must be positive");
      int scaled = static_cast<int>(
          std::lround(node_config.overlay.target_near_degree * capacity));
      GoCastConfig scaled_config = node_config;
      scaled_config.overlay.target_near_degree = std::max(1, scaled);
      scaled_config.shard_tables = shard_stores_[shard];
      this_config = std::make_shared<const GoCastConfig>(scaled_config);
    } else {
      this_config = shard_configs[shard];
    }
    nodes_.push_back(std::make_unique<GoCastNode>(
        id, runtime::SimRuntime(*network_, id), std::move(this_config),
        rng_.fork_sparse(static_cast<std::uint64_t>(id))));
  }
}

void System::start() {
  GOCAST_ASSERT_MSG(!started_, "System::start called twice");
  started_ = true;
  // Deferred nodes stay offline until spawn_next().
  std::size_t n = nodes_.size() - config_.deferred_nodes;
  for (NodeId id = static_cast<NodeId>(n); id < nodes_.size(); ++id) {
    network_->fail_node(id);
  }
  Rng init_rng = rng_.fork("init");

  // Seed partial views with uniform random subsets. The scratch containers
  // are hoisted out of the node loop: clearing keeps their capacity, so the
  // seeding pass allocates O(view_seed) once instead of O(n) times (the
  // draws are identical either way).
  std::size_t view_seed = std::min(kInitialViewSize, n - 1);
  std::vector<membership::MemberEntry> seed;
  seed.reserve(view_seed);
  std::unordered_set<NodeId> chosen;
  chosen.reserve(view_seed);
  for (NodeId id = 0; id < n; ++id) {
    seed.clear();
    chosen.clear();
    while (chosen.size() < view_seed) {
      NodeId other = static_cast<NodeId>(init_rng.next_below(n));
      if (other == id || !chosen.insert(other).second) continue;
      membership::MemberEntry entry;
      entry.id = other;
      entry.heard_at = 0.0;
      seed.push_back(entry);
    }
    nodes_[id]->seed_view(seed);
  }

  // Each node initiates bootstrap_links_per_node random links (both sides
  // install the link, as an accepted TCP connection would).
  for (NodeId id = 0; id < n; ++id) {
    std::size_t made = 0;
    std::size_t attempts = 0;
    while (made < config_.bootstrap_links_per_node && attempts < 20 * n) {
      ++attempts;
      NodeId other = static_cast<NodeId>(init_rng.next_below(n));
      if (other == id || nodes_[id]->overlay().is_neighbor(other)) continue;
      nodes_[id]->bootstrap_link(other, overlay::LinkKind::kRandom);
      nodes_[other]->bootstrap_link(id, overlay::LinkKind::kRandom);
      ++made;
    }
  }

  // One random node is designated the tree root (the paper: "originally,
  // the first node in the overlay acts as the root").
  if (config_.node.tree.enabled && config_.node.dissemination.use_tree) {
    NodeId root = static_cast<NodeId>(init_rng.next_below(n));
    nodes_[root]->become_root();
  }

  // Multi-group wiring. Deliberately placed after all init_rng draws and
  // gated on group_count > 1: a single-group deployment takes none of these
  // branches and consumes no extra randomness, keeping it byte-identical to
  // the pre-multigroup simulator. The directory derives memberships from its
  // own fork of the seed.
  if (config_.groups.group_count > 1) {
    directory_ = std::make_shared<GroupDirectory>(config_.groups, n,
                                                  config_.seed);
    std::shared_ptr<const GroupDirectory> shared_dir = directory_;
    for (NodeId id = 0; id < n; ++id) {
      nodes_[id]->enable_multigroup(shared_dir);
    }
    const bool trees = config_.node.tree.enabled &&
                       config_.node.dissemination.use_tree;
    for (GroupId g = 1; g < config_.groups.group_count; ++g) {
      const std::vector<NodeId>& members = directory_->members(g);
      if (members.empty()) continue;
      for (NodeId m : members) nodes_[m]->join_group(g);
      // Ring bootstrap over the (sorted) membership so every group's
      // subgraph starts connected, plus one diameter chord on larger groups
      // to halve the initial gossip distance. The link keeper takes over
      // from there.
      for (std::size_t i = 0; i < members.size(); ++i) {
        NodeId a = members[i];
        NodeId b = members[(i + 1) % members.size()];
        if (a == b || nodes_[a]->overlay().is_neighbor(b)) continue;
        nodes_[a]->bootstrap_link(b, overlay::LinkKind::kRandom);
        nodes_[b]->bootstrap_link(a, overlay::LinkKind::kRandom);
      }
      if (members.size() >= 6) {
        NodeId a = members.front();
        NodeId b = members[members.size() / 2];
        if (!nodes_[a]->overlay().is_neighbor(b)) {
          nodes_[a]->bootstrap_link(b, overlay::LinkKind::kRandom);
          nodes_[b]->bootstrap_link(a, overlay::LinkKind::kRandom);
        }
      }
      if (trees) nodes_[members.front()]->become_root_in(g);
    }
  }

  for (NodeId id = 0; id < n; ++id) {
    SimTime stagger =
        init_rng.next_range(0.0, config_.node.overlay.maintenance_period);
    nodes_[id]->start(stagger);
  }
}

void System::freeze_all() {
  for (auto& node : nodes_) {
    if (network_->alive(node->id())) node->freeze();
  }
}

void System::revive_node(NodeId id) {
  GOCAST_ASSERT_MSG(started_, "System::revive_node before start");
  GOCAST_ASSERT(id < nodes_.size());
  if (network_->alive(id)) return;
  GOCAST_ASSERT_MSG(network_->alive_count() > 0, "no bootstrap node alive");
  // Shed stale links while still marked dead (outbound drop notifications
  // are suppressed): a restarted process holds none of its old connections.
  GoCastNode& node = *nodes_[id];
  for (NodeId peer : node.overlay().neighbor_ids()) {
    node.overlay().on_peer_failure(peer);
  }
  network_->recover_node(id);
  NodeId bootstrap;
  do {
    bootstrap = random_alive_node();
  } while (bootstrap == id);
  node.join_via(bootstrap);
  node.start(rng_.next_range(0.0, config_.node.overlay.maintenance_period));
  GOCAST_INFO("revived node " << id << " via bootstrap " << bootstrap);
}

void System::group_join(NodeId id, GroupId g) {
  GOCAST_ASSERT_MSG(directory_ != nullptr, "group_join without multigroup");
  GOCAST_ASSERT(id < nodes_.size());
  if (directory_->subscribed(id, g)) return;
  directory_->subscribe(id, g);
  nodes_[id]->join_group(g);
}

void System::group_leave(NodeId id, GroupId g) {
  GOCAST_ASSERT_MSG(directory_ != nullptr, "group_leave without multigroup");
  GOCAST_ASSERT(id < nodes_.size());
  if (!directory_->subscribed(id, g)) return;
  directory_->unsubscribe(id, g);
  nodes_[id]->leave_group(g);
}

NodeId System::spawn_next() {
  GOCAST_ASSERT_MSG(started_, "System::spawn_next before start");
  if (spawned_ >= config_.deferred_nodes) return kInvalidNode;
  NodeId id = static_cast<NodeId>(nodes_.size() - config_.deferred_nodes +
                                  spawned_);
  ++spawned_;
  network_->recover_node(id);
  NodeId bootstrap;
  do {
    bootstrap = random_alive_node();
  } while (bootstrap == id);
  nodes_[id]->join_via(bootstrap);
  nodes_[id]->start(
      rng_.next_range(0.0, config_.node.overlay.maintenance_period));
  GOCAST_INFO("spawned node " << id << " via bootstrap " << bootstrap);
  return id;
}

System::MemoryReport System::memory_report() const {
  MemoryReport report;
  report.engine_bytes = engine_->memory_bytes();
  report.network_bytes = network_->memory_bytes();
  report.node_object_bytes = nodes_.size() * sizeof(GoCastNode);
  std::map<GroupId, std::size_t> per_group;
  for (const auto& node : nodes_) {
    report.view_bytes += node->view().memory_bytes();
    report.dissemination += node->dissemination().memory();
    report.message_records += node->dissemination().store_size();
    report.overlay_bytes += node->overlay().memory_bytes();
    report.tree_bytes += node->tree().memory_bytes();
    if (directory_ != nullptr) {
      per_group[kDefaultGroup] += node->dissemination().memory_bytes() +
                                  node->tree().memory_bytes();
      for (GroupId g : node->extra_group_ids()) {
        const DisseminationT<runtime::SimRuntime>* diss =
            node->dissemination_for(g);
        tree::TreeManager* tree = node->tree_for(g);
        report.dissemination += diss->memory();
        report.message_records += diss->store_size();
        report.tree_bytes += tree->memory_bytes();
        per_group[g] += diss->memory_bytes() + tree->memory_bytes();
      }
    }
  }
  report.group_bytes.assign(per_group.begin(), per_group.end());
  for (const auto& tables : shard_stores_) {
    report.landmark_store_bytes += tables->landmarks.memory_bytes();
    report.landmark_unique += tables->landmarks.unique_count();
    report.dissemination.store += tables->messages.memory_bytes();
  }
  report.dissemination_bytes = report.dissemination.total();
  return report;
}

}  // namespace gocast::core
