// Decentralized overlay construction and maintenance (paper §2.2).
//
// Every maintenance cycle (r seconds) a node:
//   * drives its random degree toward C_rand via the add / transfer / drop
//     operations of §2.2.2;
//   * drives its nearby degree toward C_near and continuously replaces long
//     nearby links with short ones under conditions C1–C4 of §2.2.3,
//     measuring one candidate RTT per cycle.
//
// Degree information needed by the conditions is piggybacked on every
// inter-neighbor message and cached in the NeighborTable. Link establishment
// uses an asynchronous request/accept handshake; the RTT of an established
// link is obtained from the handshake timing (the TCP connect measurement a
// real deployment gets for free).
//
// The manager is a template over a runtime context (see runtime/context.h):
// the same protocol logic runs on the discrete-event simulator
// (runtime::SimRuntime — the default OverlayManager alias) and over UDP
// sockets (runtime::UdpContext). Method bodies live in overlay_manager.cpp
// with explicit instantiations for both backends.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/fault_behavior.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "common/types.h"
#include "membership/partial_view.h"
#include "overlay/messages.h"
#include "overlay/neighbor_table.h"
#include "runtime/context.h"
#include "runtime/sim_runtime.h"
#include "sim/timer.h"

namespace gocast::overlay {

struct OverlayParams {
  int target_rand_degree = 1;  ///< C_rand
  int target_near_degree = 5;  ///< C_near
  SimTime maintenance_period = 0.1;  ///< r seconds
  /// C4: adopt Q over U only if RTT(X,Q) <= replace_ratio * RTT(X,U).
  /// 1.0 accepts any improvement — the paper rejects that as "futile minor
  /// adaptations" (ablated in bench/abl_maintenance_rules).
  double replace_ratio = 0.5;

  /// C1 degree floor offset: a nearby neighbor U is replaceable/droppable
  /// only while D_near(U) >= C_near - replace_floor_offset. The paper uses
  /// 1 and reports that tightening it to 0 produces dramatically longer
  /// links (fewer victims qualify); ablated in bench/abl_maintenance_rules.
  int replace_floor_offset = 1;

  /// Nearby links are shed only once D_near >= C_near + drop_slack. The
  /// paper uses 2 (stable band {C, C+1}) and reports that the aggressive
  /// value 1 adds ~1/3 more link changes and slows stabilization.
  int drop_slack = 2;

  /// Adaptive maintenance (the paper's "the maintenance cycle r can be
  /// increased accordingly... we leave the dynamic tuning of r as future
  /// work"): when enabled, the period stretches toward
  /// maintenance_period_max while the neighbor set is quiet and snaps back
  /// to maintenance_period on any link change.
  bool adaptive_maintenance = false;
  SimTime maintenance_period_max = 1.0;
  /// Handshakes and probes outstanding longer than this are abandoned.
  SimTime pending_timeout = 3.0;
  /// False for pure-random overlays (the "random overlay" baseline):
  /// disables the nearby maintenance sub-protocols entirely.
  bool maintain_nearby = true;
  /// Record a timestamp for every link add/drop (TXT1 convergence bench).
  bool record_link_changes = false;

  [[nodiscard]] int target_degree() const {
    return target_rand_degree + target_near_degree;
  }
};

/// Observer of neighbor-set changes; the tree and dissemination layers
/// register one.
class OverlayListener {
 public:
  virtual ~OverlayListener() = default;
  virtual void on_neighbor_added(NodeId peer, LinkKind kind) = 0;
  virtual void on_neighbor_removed(NodeId peer) = 0;
};

template <runtime::Context RT>
class OverlayManagerT {
 public:
  OverlayManagerT(NodeId self, RT rt, membership::PartialView& view,
                  OverlayParams params, SparseRng rng);

  OverlayManagerT(const OverlayManagerT&) = delete;
  OverlayManagerT& operator=(const OverlayManagerT&) = delete;

  /// Starts the periodic maintenance timer (phase-staggered by `stagger`).
  void start(SimTime stagger);
  void stop();

  /// Freezes adaptation: no more adds, drops, replacements, or transfers.
  /// Failure detection (removing dead neighbors) keeps working — that is
  /// observation, not repair. Used for the paper's Fig 3(b) stress test.
  void freeze();
  [[nodiscard]] bool frozen() const { return frozen_; }

  /// Installs a pre-established link without a handshake. The harness calls
  /// this on both endpoints when building the initial random graph the
  /// paper's experiments start from.
  void bootstrap_link(NodeId peer, LinkKind kind);

  void add_listener(OverlayListener* listener);

  /// The node's own landmark vector, used to order unmeasured candidates.
  void set_own_landmarks(const membership::LandmarkVector& landmarks);

  /// Measures RTT to `target` with a ping/pong exchange; invokes `done`
  /// with the measured RTT (skipped silently if the pong never arrives).
  void measure_rtt(NodeId target, std::function<void(SimTime)> done);

  // -- message entry points (called by the owning node's dispatcher) --
  void on_neighbor_request(NodeId from, const NeighborRequestMsg& msg);
  void on_neighbor_accept(NodeId from, const NeighborAcceptMsg& msg);
  void on_neighbor_reject(NodeId from, const NeighborRejectMsg& msg);
  void on_neighbor_drop(NodeId from, const NeighborDropMsg& msg);
  void on_link_transfer(NodeId from, const LinkTransferMsg& msg);
  void on_ping(NodeId from, const PingMsg& msg);
  void on_pong(NodeId from, const PongMsg& msg);

  /// Any message from `from` carrying degrees refreshes the cache.
  void note_peer_degrees(NodeId from, const net::PeerDegrees& degrees);

  /// TCP-reset analogue or gossip-layer failure evidence: `peer` is dead.
  void on_peer_failure(NodeId peer);

  /// Suspicion-driven eviction (DESIGN.md §9): drops the link to `peer`
  /// through the normal drop machinery and blacklists it as a candidate
  /// until now + blacklist_for. Inbound requests from a blacklisted peer are
  /// rejected. No-op when `peer` is not a neighbor. Returns true on drop.
  bool evict_neighbor(NodeId peer, SimTime blacklist_for);
  [[nodiscard]] bool is_blacklisted(NodeId id) const;

  /// Shares the owning node's fault behavior (degree lies). May be null.
  void set_behavior(const FaultBehavior* behavior) { behavior_ = behavior; }

  // -- queries --
  [[nodiscard]] const NeighborTable& table() const { return table_; }
  [[nodiscard]] std::vector<NodeId> neighbor_ids() const { return table_.ids(); }
  [[nodiscard]] bool is_neighbor(NodeId id) const { return table_.has(id); }
  [[nodiscard]] int rand_degree() const { return table_.rand_degree(); }
  [[nodiscard]] int near_degree() const { return table_.near_degree(); }
  [[nodiscard]] int degree() const { return table_.degree(); }
  [[nodiscard]] net::PeerDegrees my_degrees() const;
  [[nodiscard]] const OverlayParams& params() const { return params_; }

  [[nodiscard]] std::uint64_t links_added() const { return links_added_; }
  [[nodiscard]] std::uint64_t links_dropped() const { return links_dropped_; }
  [[nodiscard]] const std::vector<SimTime>& link_change_times() const {
    return link_change_times_;
  }

  /// Approximate heap bytes owned by the overlay layer (neighbor table,
  /// pending handshakes/pings, blacklist, probe queue, change log, promoted
  /// RNG stream).
  [[nodiscard]] std::size_t memory_bytes() const;
  /// Heap bytes of the initial probe queue: 0 before it is built and again
  /// once it has drained.
  [[nodiscard]] std::size_t measure_queue_bytes() const {
    return measure_queue_.capacity() * sizeof(NodeId);
  }
  [[nodiscard]] std::uint64_t pings_sent() const { return pings_sent_; }
  /// The overlay's random stream (tests drive it past promotion).
  [[nodiscard]] SparseRng& rng() { return rng_; }

 private:
  struct PendingAdd {
    LinkKind kind;
    SimTime started;
    NodeId replace_victim = kInvalidNode;  ///< nearby neighbor to drop on success
  };

  // In-flight RTT probes. A flat vector scanned by nonce: the set stays a
  // few dozen entries at most (bounded by pings issued within one
  // pending_timeout window), so linear search beats a hash table while the
  // records pack at 48 bytes with no slot-state overhead — this table
  // exists once per node, and large runs felt every byte of it.
  struct PendingPing {
    std::uint32_t nonce;
    NodeId target;
    SimTime sent;
    std::function<void(SimTime)> done;
  };

  void on_maintenance();
  void keepalive_check();
  void maintain_random();
  void maintain_nearby();
  void replace_step();
  void evaluate_replace_candidate(NodeId candidate, SimTime rtt);
  void start_nearby_add();
  void drop_excess_nearby();
  void prune_pending();

  /// Picks the next nearby candidate to probe: sorted-by-estimate queue
  /// first (paper: "starting from the node with the lowest estimated
  /// latency"), then round-robin over the member list.
  [[nodiscard]] NodeId next_nearby_candidate();
  void build_initial_measure_queue();

  [[nodiscard]] bool eligible_candidate(NodeId id) const;
  /// eligible_candidate minus the corroboration requirement (the liveness
  /// fallback pass — see next_nearby_candidate).
  [[nodiscard]] bool eligible_uncorroborated(NodeId id) const;

  void establish(NodeId peer, LinkKind kind);
  void drop_link(NodeId peer, bool notify_peer);
  void record_link_change();

  void send_request(NodeId target, LinkKind kind, SimTime rtt, bool transfer);

  NodeId self_;
  RT rt_;
  membership::PartialView& view_;
  OverlayParams params_;
  /// Sparse: a node draws from it a few dozen times per run (DESIGN.md §6.5).
  SparseRng rng_;

  NeighborTable table_;
  common::FlatMap<NodeId, PendingAdd> pending_adds_;
  int pending_rand_ = 0;
  int pending_near_ = 0;

  std::vector<PendingPing> pending_pings_;
  std::uint32_t next_nonce_ = 1;

  /// Evicted suspects barred from candidacy: peer -> ban expiry time.
  common::FlatMap<NodeId, SimTime> blacklist_;
  const FaultBehavior* behavior_ = nullptr;

  /// Consume-once probe order (vector + head index, freed after the drain —
  /// a deque would keep a heap block alive per node forever).
  std::vector<NodeId> measure_queue_;
  std::size_t measure_head_ = 0;
  bool initial_queue_built_ = false;
  membership::LandmarkVector own_landmarks_ = membership::empty_landmarks();

  std::vector<OverlayListener*> listeners_;
  runtime::PeriodicTimer<RT> maintenance_timer_;
  bool frozen_ = false;

  std::uint64_t links_added_ = 0;
  std::uint64_t links_dropped_ = 0;
  std::uint64_t last_cycle_changes_ = 0;
  std::uint64_t pings_sent_ = 0;
  std::vector<SimTime> link_change_times_;
};

/// The simulation-backed manager used throughout the simulator and tests.
using OverlayManager = OverlayManagerT<runtime::SimRuntime>;

}  // namespace gocast::overlay
