// The efficient tree embedded in the overlay (paper §2.3).
//
// The tree conceptually has a root; every 15 seconds the root floods a
// heartbeat over every overlay link. Heartbeats carry cumulative latency and
// are re-forwarded only on improvement (distance-vector relaxation), so each
// node's parent lies on a shortest latency path to the root and tree links
// are always overlay links. Parent choices are registered with ChildJoin /
// ChildLeave so both ends treat the link as a tree link. If the root fails,
// one of its overlay neighbors takes over (elected by heartbeat-timeout plus
// deterministic epoch ordering).
//
// Template over a runtime context (see runtime/context.h); the TreeManager
// alias binds the simulator backend. Bodies live in tree_manager.cpp with
// explicit instantiations for both backends.
#pragma once

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "overlay/overlay_manager.h"
#include "runtime/context.h"
#include "runtime/sim_runtime.h"
#include "sim/timer.h"
#include "tree/messages.h"

namespace gocast::tree {

struct TreeParams {
  SimTime heartbeat_period = 15.0;
  bool enabled = true;
};

template <runtime::Context RT>
class TreeManagerT final : public overlay::OverlayListener {
 public:
  /// `group` scopes every outgoing tree message: a multi-group node embeds
  /// one independent tree per group in the shared overlay.
  TreeManagerT(NodeId self, RT rt, overlay::OverlayManagerT<RT>& overlay,
               TreeParams params, GroupId group = kDefaultGroup);

  /// Starts heartbeat/watchdog timers. `stagger` de-synchronizes nodes.
  void start(SimTime stagger);
  void stop();

  /// Group-leave: deregisters from the parent, forgets children, and stops
  /// all repair (the instance stays alive — scheduled callbacks capture
  /// `this`). rejoin() re-arms the watchdog with a clean slate.
  void leave();
  void rejoin(SimTime stagger);

  /// Stops all repair: no heartbeats, no takeover, no parent re-selection.
  /// Existing tree links persist except those lost to dead neighbors
  /// (fragments, as in the paper's Fig 3(b) stress test).
  void freeze();

  /// Designates this node as the initial root (harness calls on one node).
  void become_root();

  /// Observer fired when adopting an epoch replaces a previously known root
  /// with a different one — the signature of a partition healing (the losing
  /// side's root cedes to the winning epoch). Cold path: root changes are
  /// rare, so a std::function costs nothing that matters. The dissemination
  /// layer hooks digest re-advertisement here (GoCastConfig::
  /// readvertise_on_heal).
  void set_root_change_hook(std::function<void(NodeId old_root, NodeId new_root)> hook) {
    root_change_hook_ = std::move(hook);
  }

  // -- message entry points --
  void on_heartbeat(NodeId from, const HeartbeatMsg& msg);
  void on_child_join(NodeId from, const ChildJoinMsg& msg);
  void on_child_leave(NodeId from, const ChildLeaveMsg& msg);

  // -- OverlayListener --
  void on_neighbor_added(NodeId peer, overlay::LinkKind kind) override;
  void on_neighbor_removed(NodeId peer) override;

  // -- queries --
  [[nodiscard]] bool is_root() const { return epoch_.root == self_; }
  [[nodiscard]] Epoch epoch() const { return epoch_; }
  [[nodiscard]] GroupId group() const { return group_; }
  [[nodiscard]] NodeId parent() const { return parent_; }
  [[nodiscard]] const std::unordered_set<NodeId>& children() const {
    return children_;
  }

  /// Parent plus children: the endpoints of this node's tree links.
  [[nodiscard]] std::vector<NodeId> tree_neighbors() const;
  [[nodiscard]] bool is_tree_neighbor(NodeId peer) const;

  /// Latency from the root along the tree, as learned from heartbeats.
  [[nodiscard]] SimTime root_distance() const { return best_dist_; }

  /// Approximate heap bytes owned by the tree layer (children set and
  /// per-neighbor distance cache; node-based containers are estimated at
  /// one bucket pointer plus one ~32-byte node per element).
  [[nodiscard]] std::size_t memory_bytes() const {
    return children_.bucket_count() * sizeof(void*) + children_.size() * 32 +
           neighbor_dist_.bucket_count() * sizeof(void*) +
           neighbor_dist_.size() * 40;
  }

 private:
  void flood_heartbeat();
  void watchdog_check();
  void set_parent(NodeId new_parent);
  void adopt_epoch(const Epoch& epoch);
  void promote_self();

  NodeId self_;
  RT rt_;
  overlay::OverlayManagerT<RT>& overlay_;
  TreeParams params_;
  GroupId group_ = kDefaultGroup;

  Epoch epoch_;
  std::uint32_t current_seq_ = 0;
  std::uint32_t flood_seq_ = 0;  ///< seq counter when we are root
  SimTime best_dist_ = kNever;
  NodeId parent_ = kInvalidNode;
  std::unordered_set<NodeId> children_;
  /// Last cumulative latency each neighbor advertised (parent failover).
  std::unordered_map<NodeId, SimTime> neighbor_dist_;
  SimTime last_heartbeat_ = 0.0;
  std::function<void(NodeId, NodeId)> root_change_hook_;

  runtime::PeriodicTimer<RT> root_timer_;
  runtime::PeriodicTimer<RT> watchdog_;
  bool frozen_ = false;
};

/// The simulation-backed tree manager used throughout the simulator/tests.
using TreeManager = TreeManagerT<runtime::SimRuntime>;

}  // namespace gocast::tree
