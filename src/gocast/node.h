// A complete GoCast node: partial membership view, overlay maintenance,
// embedded tree, and the dissemination layer, wired to a runtime backend.
// This is the main public entry point for using the protocol.
//
// Template over a runtime context (see runtime/context.h): the GoCastNode
// alias binds the simulator; tools/gocastd instantiates
// GoCastNodeT<runtime::UdpContext> to run live nodes over UDP sockets.
// Bodies live in node.cpp with explicit instantiations for both backends.
#pragma once

#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/fault_behavior.h"
#include "common/rng.h"
#include "common/types.h"
#include "gocast/dissemination.h"
#include "gocast/group_directory.h"
#include "gocast/params.h"
#include "gocast/suspicion.h"
#include "membership/partial_view.h"
#include "net/endpoint.h"
#include "overlay/overlay_manager.h"
#include "runtime/context.h"
#include "runtime/sim_runtime.h"
#include "tree/tree_manager.h"

namespace gocast::core {

template <runtime::Context RT>
class GoCastNodeT final : public net::Endpoint {
 public:
  /// Registers itself as `id`'s endpoint on the runtime.
  GoCastNodeT(NodeId id, RT rt, GoCastConfig config, SparseRng rng);

  /// Shared-config variant: nodes of one deployment reference a single
  /// immutable GoCastConfig instead of each holding a ~400-byte copy (the
  /// config is normalized on the way in; an already-consistent one is
  /// shared as-is). `rng` is only forked from, never drawn, so it is sparse:
  /// no generator is seeded for it.
  GoCastNodeT(NodeId id, RT rt, std::shared_ptr<const GoCastConfig> config,
              SparseRng rng);

  GoCastNodeT(const GoCastNodeT&) = delete;
  GoCastNodeT& operator=(const GoCastNodeT&) = delete;

  [[nodiscard]] NodeId id() const { return id_; }

  /// Starts all protocol timers and measures landmark RTTs. `stagger`
  /// de-synchronizes periodic activity across nodes.
  void start(SimTime stagger);
  void stop();

  /// Freezes overlay and tree maintenance (Fig 3(b) stress mode): no link
  /// adds/drops/replacements, no tree repair. Dissemination keeps running.
  void freeze();

  /// Crashes the node: marks it dead on the runtime and stops all timers.
  void kill();

  /// Installs (or, with a default-constructed value, cures) an adversarial
  /// or slow-node behavior (fault injection). Subsystems observe the change
  /// immediately; the node itself stays alive.
  void set_fault_behavior(const FaultBehavior& behavior) {
    behavior_ = behavior;
  }
  [[nodiscard]] const FaultBehavior& fault_behavior() const {
    return behavior_;
  }

  /// Joins an existing overlay through a known bootstrap node: requests its
  /// member list; the maintenance protocols then establish links.
  void join_via(NodeId bootstrap);

  /// Seeds the membership view directly (harness initialization).
  void seed_view(std::span<const membership::MemberEntry> entries);

  /// Installs a pre-established overlay link (harness initialization; must
  /// be mirrored on the peer).
  void bootstrap_link(NodeId peer, overlay::LinkKind kind);

  /// Makes this node the tree root.
  void become_root();

  /// Starts a multicast from this node.
  MsgId multicast(std::size_t payload_bytes);
  MsgId multicast() { return multicast(config_->dissemination.payload_bytes); }

  void set_delivery_hook(DeliveryHook hook);

  // -- multi-group (DESIGN.md §10) --

  /// Switches the node into multi-group mode against a shared directory.
  /// Must be called before start(). Group 0 (the base group every node is in)
  /// keeps the inline tree/dissemination instances; extra groups are joined
  /// with join_group(). When config.multiplex_gossip is set, per-group gossip
  /// timers are replaced by one node-level grouped gossip.
  void enable_multigroup(std::shared_ptr<const GroupDirectory> directory);
  [[nodiscard]] bool multigroup() const { return multigroup_; }

  /// Creates (or reactivates, after leave_group) the per-group protocol
  /// state for extra group `g` (g != 0). Safe before or after start().
  void join_group(GroupId g);
  /// Deactivates group `g`'s tree and dissemination. State is kept (never
  /// destroyed — scheduled callbacks may still reference it) so a later
  /// join_group resumes cleanly.
  void leave_group(GroupId g);
  [[nodiscard]] bool in_group(GroupId g) const;
  /// Sorted ids of the extra groups this node has ever joined (including
  /// currently-left ones; check in_group for liveness).
  [[nodiscard]] const std::vector<GroupId>& extra_group_ids() const {
    return extra_ids_;
  }

  /// Starts a multicast in a specific group this node subscribes to.
  MsgId multicast_in(GroupId g, std::size_t payload_bytes);
  /// Makes this node the root of group `g`'s tree.
  void become_root_in(GroupId g);

  /// Per-group subsystem lookup: group 0 -> the inline instances, else the
  /// group table. Null when the node never joined `g`.
  [[nodiscard]] DisseminationT<RT>* dissemination_for(GroupId g);
  [[nodiscard]] const DisseminationT<RT>* dissemination_for(GroupId g) const;
  [[nodiscard]] tree::TreeManagerT<RT>* tree_for(GroupId g);

  /// Total gossip messages sent by this node: per-group gossips plus grouped
  /// (multiplexed) gossips. The mux saving shows up here: one grouped gossip
  /// replaces one gossip per co-subscribed group.
  [[nodiscard]] std::uint64_t gossip_messages_sent() const;
  [[nodiscard]] std::uint64_t mux_gossips_sent() const {
    return mux_gossips_sent_;
  }

  /// Appends (group, heap bytes) for every extra group's tree+dissemination
  /// state (memory_report per-group breakdown).
  void append_group_memory(
      std::vector<std::pair<GroupId, std::size_t>>& out) const;

  /// Protocol-agnostic counters (shared with the baselines by the harness).
  /// In multi-group mode these aggregate across all groups.
  [[nodiscard]] std::uint64_t deliveries_count() const;
  [[nodiscard]] std::uint64_t duplicates_count() const;

  // -- subsystem access (tests, analysis) --
  [[nodiscard]] membership::PartialView& view() { return view_; }
  [[nodiscard]] const membership::PartialView& view() const { return view_; }
  [[nodiscard]] overlay::OverlayManagerT<RT>& overlay() { return overlay_; }
  [[nodiscard]] const overlay::OverlayManagerT<RT>& overlay() const {
    return overlay_;
  }
  [[nodiscard]] tree::TreeManagerT<RT>& tree() { return tree_; }
  [[nodiscard]] const tree::TreeManagerT<RT>& tree() const { return tree_; }
  [[nodiscard]] DisseminationT<RT>& dissemination() { return dissemination_; }
  [[nodiscard]] const DisseminationT<RT>& dissemination() const {
    return dissemination_;
  }
  [[nodiscard]] const GoCastConfig& config() const { return *config_; }
  [[nodiscard]] const membership::LandmarkVector& landmarks() const {
    return own_landmarks_;
  }

  // -- net::Endpoint --
  void handle_message(NodeId from, const net::MessagePtr& msg) override;
  void handle_send_failure(NodeId to, const net::MessagePtr& msg) override;

 private:
  /// Per-extra-group protocol state: a tree and a dissemination instance
  /// sharing the node-global overlay, view, and suspicion ledger. Never
  /// destroyed once created (deactivate-not-destroy; see leave_group).
  struct GroupState {
    GroupState(NodeId id, RT rt, membership::PartialView& view,
               overlay::OverlayManagerT<RT>& overlay,
               const GoCastConfig& config, GroupId group,
               SuspicionLedger* ledger, Rng rng)
        : tree(id, rt, overlay, config.tree, group),
          diss(id, rt, view, overlay, config.tree.enabled ? &tree : nullptr,
               config.dissemination, config.defense,
               rng.fork("dissemination"), group, ledger),
          peer_rng(rng.fork("peers")) {}
    tree::TreeManagerT<RT> tree;
    DisseminationT<RT> diss;
    /// Draws directory fallback gossip peers (refresh_group_peers).
    Rng peer_rng;
    /// Sticky directory-sampled peers, oldest first. Replaced slowly — a
    /// fallback must outlive several gossip rotations or its queued digests
    /// are recycled before its turn ever comes (see refresh_group_peers).
    std::vector<NodeId> fallbacks;
    /// Keeper ticks seen; paces fallback remixing.
    std::uint64_t keeper_ticks = 0;
    /// Recent gossip contacts (FIFO, newest last): members who sent us a
    /// digest for this group but are not in our peer set. Reciprocating —
    /// folding them into the next refresh — gives every member an in-edge:
    /// a member nobody happened to sample still reaches the group through
    /// its own out-edges, because those peers gossip back.
    std::vector<NodeId> contacts;
    /// Reused scratch for the refreshed peer set.
    std::vector<NodeId> peer_buf;
  };

  void measure_landmarks();
  void apply_landmarks();
  void dispatch_message(NodeId from, const net::MessagePtr& msg);
  void on_join_request(NodeId from);
  void on_join_reply(NodeId from, const overlay::JoinReplyMsg& msg);
  void schedule_join_retry(NodeId bootstrap, int attempt);
  /// Routes a membership batch through the join-path defenses under kFull
  /// (advertiser-attributed merge with diversity cap / corroboration),
  /// otherwise the plain integrate.
  void integrate_members(NodeId from,
                         std::span<const membership::MemberEntry> entries);
  void on_grouped_gossip(NodeId from, const GroupedGossipMsg& msg);
  void on_mux_timer();
  void on_keeper_timer();
  void refresh_group_peers(GroupId g, GroupState& st);
  void note_group_contact(GroupId g, NodeId from);
  [[nodiscard]] GroupState* find_group(GroupId g);
  [[nodiscard]] const GroupState* find_group(GroupId g) const;

  NodeId id_;
  RT rt_;
  std::shared_ptr<const GoCastConfig> config_;
  /// Stable storage for the fault behavior; overlay and dissemination hold a
  /// const pointer to it, so a runtime flip is visible everywhere at once.
  FaultBehavior behavior_;
  /// Node-global suspicion ledger (ISSUE: per-neighbor trust is a property
  /// of the node pair, not of any one group) shared by every group's
  /// dissemination instance.
  SuspicionLedger suspicion_;
  membership::PartialView view_;
  overlay::OverlayManagerT<RT> overlay_;
  tree::TreeManagerT<RT> tree_;
  DisseminationT<RT> dissemination_;
  membership::LandmarkVector own_landmarks_;

  // -- multi-group state (empty / inert unless enable_multigroup ran) --
  std::shared_ptr<const GroupDirectory> directory_;
  /// Sorted by group id (binary-search lookup). unique_ptr keeps each
  /// GroupState heap-stable: scheduled callbacks and overlay listeners hold
  /// raw pointers across vector growth. A node subscribes to a handful of
  /// groups, so a sorted vector beats a hash table here.
  std::vector<std::pair<GroupId, std::unique_ptr<GroupState>>> extra_groups_;
  /// Sorted group ids mirroring extra_groups_ keys (cheap iteration and the
  /// extra_group_ids() accessor).
  std::vector<GroupId> extra_ids_;
  /// Only forked from (one child per joined group), so sparse.
  SparseRng group_rng_;
  DeliveryHook delivery_hook_;
  std::unique_ptr<runtime::PeriodicTimer<RT>> mux_timer_;
  std::unique_ptr<runtime::PeriodicTimer<RT>> keeper_timer_;
  std::size_t mux_idx_ = 0;
  /// Reused scratch: union of overlay neighbors and every active extra
  /// group's gossip peers, rebuilt each mux period.
  std::vector<NodeId> mux_rotation_;
  std::uint64_t mux_gossips_sent_ = 0;
  bool multigroup_ = false;
  bool started_ = false;
  SimTime start_stagger_ = 0.0;
};

/// The simulation-backed node used by the harness and tests.
using GoCastNode = GoCastNodeT<runtime::SimRuntime>;

}  // namespace gocast::core
