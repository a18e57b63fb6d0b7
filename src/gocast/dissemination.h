// Message dissemination (paper §2.1): unconditional push along tree links,
// plus background gossip of message IDs to overlay neighbors (round-robin,
// one per gossip period) with pull-based recovery, the pull-delay threshold
// f, and payload garbage collection after the waiting period b.
//
// Template over a runtime context (see runtime/context.h); the Dissemination
// alias binds the simulator backend. Bodies live in dissemination.cpp with
// explicit instantiations for both backends.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/fault_behavior.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "gocast/message_store.h"
#include "gocast/messages.h"
#include "gocast/params.h"
#include "gocast/suspicion.h"
#include "membership/partial_view.h"
#include "overlay/overlay_manager.h"
#include "runtime/context.h"
#include "runtime/sim_runtime.h"
#include "sim/timer.h"
#include "tree/tree_manager.h"

namespace gocast::core {

enum class DeliveryPath { kLocal, kTree, kPull };

struct DeliveryEvent {
  NodeId node;
  MsgId id;
  SimTime inject_time;
  SimTime deliver_time;
  DeliveryPath path;
  GroupId group = kDefaultGroup;
};

using DeliveryHook = std::function<void(const DeliveryEvent&)>;

/// Heap bytes of the dissemination layer by table (--mem-report).
struct DisseminationMemory {
  std::size_t store = 0;    ///< message store: arrival log + position index
  std::size_t backlog = 0;  ///< per-neighbor pending ids
  std::size_t pulls = 0;    ///< in-flight pull trackers
  std::size_t other = 0;    ///< suspicion/audit/clique trackers, scratch
  [[nodiscard]] std::size_t total() const {
    return store + backlog + pulls + other;
  }
  DisseminationMemory& operator+=(const DisseminationMemory& o) {
    store += o.store;
    backlog += o.backlog;
    pulls += o.pulls;
    other += o.other;
    return *this;
  }
};

template <runtime::Context RT>
class DisseminationT final : public overlay::OverlayListener {
 public:
  /// `tree` may be null (gossip-only baselines). `group` scopes every
  /// outgoing message; `shared_suspicion` (multi-group nodes) points at the
  /// node-global ledger — when null, this instance keeps a private one.
  /// `messages` is the shard's message-metadata table; when null the store
  /// interns into a private one.
  DisseminationT(NodeId self, RT rt, membership::PartialView& view,
                 overlay::OverlayManagerT<RT>& overlay,
                 tree::TreeManagerT<RT>* tree, DisseminationParams params,
                 DefenseProfile defense, Rng rng,
                 GroupId group = kDefaultGroup,
                 SuspicionLedger* shared_suspicion = nullptr,
                 std::shared_ptr<MessageTable> messages = nullptr);

  void start(SimTime stagger);
  void stop();

  /// Group-leave support: stops timers and drops transient per-run state
  /// (pending digests, in-flight pulls) while keeping the instance alive —
  /// scheduled callbacks capture `this`, so per-group state is deactivated,
  /// never destroyed. reactivate() rejoins with a fresh slate.
  void deactivate();
  void reactivate(SimTime stagger);
  [[nodiscard]] bool active() const { return active_; }

  /// Multiplexed-gossip mode (multi-group nodes): the owning node drives one
  /// grouped gossip per period instead of each group's private timer. Must
  /// be set before start().
  void set_external_gossip(bool on) { external_gossip_ = on; }

  /// Replaces the gossip rotation with an explicitly chosen peer set.
  /// Extra groups use this instead of the overlay listener: their peers are
  /// co-subscribed overlay neighbors plus directory-sampled members — the
  /// membership plane, not the overlay, decides who a sparse group gossips
  /// with (the overlay keeps pruning toward its own degree targets, so
  /// group-connectivity links would not survive there). Newly added peers
  /// get every still-held message id queued so they can pull history;
  /// departed peers' backlogs are dropped.
  void set_gossip_peers(const std::vector<NodeId>& peers);
  [[nodiscard]] const std::vector<NodeId>& gossip_peers() const {
    return rotation_;
  }

  /// Drains and returns this group's digest backlog for `target` (the same
  /// fill the private gossip timer performs; the buffer is valid until the
  /// next call). Used by the node-level digest multiplexer.
  [[nodiscard]] const std::vector<DigestEntry>& collect_digest_for(
      NodeId target);

  /// Entry point for one section of a multiplexed gossip (membership was
  /// already integrated once at the node level).
  void on_grouped_digest(NodeId from, const DigestEntry* entries,
                         std::size_t count);

  void set_delivery_hook(DeliveryHook hook) { delivery_hook_ = std::move(hook); }
  void set_own_landmarks(const membership::LandmarkVector& landmarks) {
    own_landmarks_ = landmarks;
  }
  /// Shares the owning node's fault behavior (adversarial models). May be
  /// null (tests constructing the layer directly stay honest).
  void set_behavior(const FaultBehavior* behavior) { behavior_ = behavior; }

  /// Starts a multicast from this node. Returns the assigned message id.
  MsgId multicast(std::size_t payload_bytes);

  /// Partition-heal re-advertisement (GoCastConfig::readvertise_on_heal):
  /// re-queues the IDs of every stored message whose payload is still held
  /// (i.e. younger than the waiting period b) for one more gossip round to
  /// every current overlay neighbor. Called by the owning node when the tree
  /// root changes to a healed epoch. Returns the number of IDs re-queued.
  std::size_t readvertise_recent();

  // -- message entry points --
  void on_data(NodeId from, const DataMsg& msg);
  void on_gossip_digest(NodeId from, const GossipDigestMsg& msg);
  void on_pull_request(NodeId from, const PullRequestMsg& msg);

  // -- OverlayListener (keeps the gossip rotation in sync) --
  void on_neighbor_added(NodeId peer, overlay::LinkKind kind) override;
  void on_neighbor_removed(NodeId peer) override;

  // -- queries / stats --
  [[nodiscard]] bool has_message(MsgId id) const { return store_.contains(id); }
  [[nodiscard]] std::size_t store_size() const { return store_.size(); }
  /// Stored payloads older than `age` seconds (since reception). The GC must
  /// reclaim payloads within b + one sweep; the invariant checker audits it.
  [[nodiscard]] std::size_t payloads_older_than(SimTime age) const;
  /// Stored message records (IDs) older than `age` seconds.
  [[nodiscard]] std::size_t records_older_than(SimTime age) const;
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  [[nodiscard]] std::uint64_t duplicates() const { return duplicates_; }
  [[nodiscard]] std::uint64_t pulls_sent() const { return pulls_sent_; }
  /// Payload bytes of redundant transfers that the abort optimization
  /// (§2.1 item 1) would avoid carrying.
  [[nodiscard]] std::uint64_t aborted_bytes() const { return aborted_bytes_; }
  [[nodiscard]] std::uint64_t gossips_sent() const { return gossips_sent_; }
  [[nodiscard]] std::uint64_t digest_entries_sent() const {
    return digest_entries_sent_;
  }
  [[nodiscard]] std::uint64_t readvertised_ids() const {
    return readvertised_ids_;
  }
  /// Pulls that burned their whole retry budget without an answer.
  [[nodiscard]] std::uint64_t pull_retries_exhausted() const {
    return pull_retries_exhausted_;
  }
  /// Spot-check pulls issued by the audit defense.
  [[nodiscard]] std::uint64_t audits_sent() const { return audits_sent_; }
  /// Evictions performed by the cover-detection defense (clique-aware
  /// eviction, DefenseProfile::kFull). Subset of evictions().
  [[nodiscard]] std::uint64_t cover_evictions() const {
    return cover_evictions_;
  }
  /// Pull recoveries currently in flight (empty once every pull either
  /// succeeded, exhausted its budget, or aged past the waiting period b).
  [[nodiscard]] std::size_t pull_pending_size() const {
    return pull_pending_.size();
  }
  /// Ids the digest backlogs have room for (allocated, not queued): zero
  /// once a GC sweep has found every backlog drained.
  [[nodiscard]] std::size_t backlog_capacity() const;
  /// Current (decay-adjusted) suspicion score for a peer; 0 when unknown or
  /// suspicion tracking is disabled.
  [[nodiscard]] double suspicion_score(NodeId peer) const;
  /// Suspicion-threshold evictions this node performed, with timestamps
  /// (time-to-evict analysis in bench/ext_byzantine). On a multi-group node
  /// the ledger is shared: read it once per node, not once per group.
  using Eviction = SuspicionLedger::Eviction;
  [[nodiscard]] const std::vector<Eviction>& evictions() const {
    return suspicion_ledger_->evictions;
  }
  [[nodiscard]] const DisseminationParams& params() const { return params_; }
  [[nodiscard]] GroupId group() const { return group_; }

  /// Fills and returns the reusable piggyback buffer (valid until the next
  /// call); avoids a fresh vector per gossip tick. Public for the node-level
  /// digest multiplexer, which piggybacks membership exactly once per
  /// grouped gossip.
  [[nodiscard]] const std::vector<membership::MemberEntry>& piggyback_members();

  /// Approximate heap bytes owned by the dissemination layer (message
  /// store, per-neighbor queues, pull/suspicion/audit trackers, scratch),
  /// by table. A shared message table is not included: System counts it
  /// once per shard.
  [[nodiscard]] DisseminationMemory memory() const;
  [[nodiscard]] std::size_t memory_bytes() const { return memory().total(); }

 private:
  /// First receipt of a message from any path: store, deliver, push along
  /// tree links (except `learned_from`), and queue its ID for gossiping to
  /// every overlay neighbor except `learned_from`.
  void accept_message(MsgId id, SimTime inject_time, std::size_t payload_bytes,
                      NodeId learned_from, DeliveryPath path);

  void forward_on_tree(MsgId id, SimTime inject_time,
                       std::uint32_t payload_bytes, NodeId except);
  /// Shared body of on_gossip_digest and on_grouped_digest: the digest-liar
  /// plant path plus the per-entry sanity/dedup/pull-scheduling loop.
  void process_digest_entries(NodeId from, const DigestEntry* entries,
                              std::size_t count);
  void on_gossip_timer();
  /// Fills digest_buf_ with `target`'s backlog of ids still worth
  /// advertising (held payloads; a digest liar also advertises its plants)
  /// and empties the backlog.
  void drain_backlog(NodeId target);
  void gc_sweep();
  void issue_pull(NodeId target, MsgId id);
  void schedule_pull_retry(MsgId id);
  /// Forgets an in-flight pull and any alternate advertisers recorded for
  /// it.
  void end_pull(MsgId id);
  void on_pull_retry_timeout(MsgId id);
  void remove_from_pending(NodeId neighbor, MsgId id);
  /// Adds `increment` to a peer's decayed suspicion score; evicts it from
  /// the overlay once the threshold is crossed. Called only under kBase or
  /// kFull.
  void raise_suspicion(NodeId peer, double increment);
  /// Data-silence watch on the tree parent: called on every delivery;
  /// raises suspicion when the current parent has pushed nothing for a whole
  /// silence window while traffic kept arriving.
  void check_parent_silence();
  /// Challenge pulls (DefenseProfile::kBase): every gossip to `target` also
  /// spot-checks it with a pull for a message old enough that every honest
  /// live node must hold it.
  void maybe_challenge(NodeId target);
  /// Cover-detection bookkeeping: the per-neighbor contribution record,
  /// created (window anchored at now) on first observed activity.
  SuspicionLedger::CoverState& cover_state(NodeId peer);
  /// Windowed contribution sweep (DefenseProfile::kFull): strikes
  /// neighbors that keep serving pulls while volunteering nothing, adds the
  /// correlated-cover bonus strike when several neighbors show the signature
  /// in the same sweep, and evicts at the strike limit. Driven by the gossip
  /// timer; default-group instance only (the ledger is node-shared).
  void cover_sweep();
  /// Colluding clique: a pull for an id we cannot serve is relayed to a
  /// clique peer (round-robin over the roster) and the requester parked in
  /// clique_pending_ until the payload arrives.
  void relay_pull(NodeId requester, MsgId id);
  /// Answers every parked clique relay for `id` (its payload just arrived).
  void serve_clique_waiters(MsgId id, SimTime inject_time,
                            std::uint32_t payload_bytes);
  /// Records that a digest from `peer` carried payload ids (silence
  /// tracking) — and, while a pull for one of them is in flight, remembers
  /// the peer as an alternate source for escalation.
  void note_advertiser(MsgId id, NodeId peer);
  /// Escalation: the best alternate advertiser for a timed-out pull of `id`
  /// (lowest suspicion, earliest-recorded tie-break), or `current` when no
  /// alternate is known.
  [[nodiscard]] NodeId pick_escalation_target(MsgId id, NodeId current) const;

  NodeId self_;
  RT rt_;
  membership::PartialView& view_;
  overlay::OverlayManagerT<RT>& overlay_;
  tree::TreeManagerT<RT>* tree_;
  DisseminationParams params_;
  /// kBase and kFull: suspicion scores and the per-offense countermeasures.
  [[nodiscard]] bool suspicion_defenses() const {
    return defense_ != DefenseProfile::kOff;
  }
  /// kFull only: cover detection and the join-path defenses.
  [[nodiscard]] bool collusion_defenses() const {
    return defense_ == DefenseProfile::kFull;
  }

  DefenseProfile defense_;
  const FaultBehavior* behavior_ = nullptr;
  GroupId group_ = kDefaultGroup;
  /// Private ledger, used only when no shared one was injected.
  SuspicionLedger own_suspicion_;
  SuspicionLedger* suspicion_ledger_ = nullptr;
  bool external_gossip_ = false;
  bool active_ = true;
  Rng rng_;
  /// Separate stream for retry jitter so the backoff draws never perturb
  /// the piggyback-sampling stream. Sparse: most nodes never retry a pull.
  SparseRng retry_rng_;

  MessageStore store_;
  /// Digest backlog: ids not yet advertised to each gossip peer. The GC
  /// sweep frees the buffers of empty ones.
  common::FlatMap<NodeId, std::vector<MsgId>> pending_;
  std::vector<NodeId> rotation_;
  std::size_t rotation_idx_ = 0;
  struct PullState {
    SimTime started = 0.0;
    NodeId target = kInvalidNode;
    int attempts = 0;
  };
  static_assert(sizeof(PullState) == 16);
  common::FlatMap<MsgId, PullState> pull_pending_;
  /// Other neighbors that advertised an id while its pull was in flight:
  /// the escalation candidates. Filled only under the suspicion defenses,
  /// so honest runs keep it empty instead of paying a vector per pull.
  common::FlatMap<MsgId, std::vector<NodeId>> pull_advertisers_;

  /// Parent data-silence watch: the tree parent under observation, and the
  /// last time it pushed any DataMsg (duplicates count — a parent pushing
  /// redundant copies is demonstrably forwarding).
  NodeId watched_parent_ = kInvalidNode;
  SimTime last_parent_data_ = 0.0;
  /// Challenge pulls: the challenges currently awaiting an answer, and a
  /// ring of recent deliveries (time-ordered) that candidate challenge ids
  /// are drawn from. Each probe carries an epoch so a stale timeout (whose
  /// own challenge was already answered) cannot fail a newer in-flight probe
  /// for the same (id, target) pair.
  struct AuditProbe {
    NodeId target = kInvalidNode;
    std::uint64_t epoch = 0;
  };
  common::FlatMap<MsgId, AuditProbe> audit_pending_;
  std::uint64_t audit_epoch_ = 0;
  /// Clique relay parking lot: requesters waiting per id until a clique
  /// peer supplies the payload (bounded; colluding behaviors only — stays
  /// empty on every honest node).
  common::FlatMap<MsgId, std::vector<NodeId>> clique_pending_;
  std::size_t clique_relay_idx_ = 0;
  /// Eclipse piggyback rotation over the roster (adversarial nodes only).
  std::size_t eclipse_idx_ = 0;
  /// Cover-detection sweep clock (default-group instance only).
  SimTime cover_sweep_at_ = 0.0;
  std::vector<std::pair<SimTime, MsgId>> recent_ids_;
  std::size_t recent_head_ = 0;
  std::uint32_t next_seq_ = 0;
  std::vector<membership::MemberEntry> piggyback_buf_;
  std::vector<DigestEntry> digest_buf_;

  membership::LandmarkVector own_landmarks_ = membership::empty_landmarks();
  DeliveryHook delivery_hook_;

  runtime::PeriodicTimer<RT> gossip_timer_;
  runtime::PeriodicTimer<RT> gc_timer_;

  std::uint64_t deliveries_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t aborted_bytes_ = 0;
  std::uint64_t pulls_sent_ = 0;
  std::uint64_t gossips_sent_ = 0;
  std::uint64_t digest_entries_sent_ = 0;
  std::uint64_t readvertised_ids_ = 0;
  std::uint64_t pull_retries_exhausted_ = 0;
  std::uint64_t audits_sent_ = 0;
  std::uint64_t cover_evictions_ = 0;
};

/// The simulation-backed dissemination layer used throughout the simulator.
using Dissemination = DisseminationT<runtime::SimRuntime>;

}  // namespace gocast::core
