#include "overlay/overlay_manager.h"

#include <algorithm>

#include "common/assert.h"
#include "common/logging.h"
#include "coord/triangulation.h"
#include "runtime/udp_runtime.h"

namespace gocast::overlay {

namespace {

/// Acceptance cap (C2): a link request is accepted while D < C + slack.
constexpr int kDegreeSlack = 5;
/// Adaptive maintenance: multiplier applied to the period after each quiet
/// cycle.
constexpr double kMaintenanceBackoff = 1.25;
/// Neighbors silent longer than this get a keepalive probe (refreshes the
/// degree cache and detects dead peers even without gossip traffic).
constexpr SimTime kKeepaliveInterval = 1.0;

}  // namespace

template <runtime::Context RT>
OverlayManagerT<RT>::OverlayManagerT(NodeId self, RT rt,
                                     membership::PartialView& view,
                                     OverlayParams params, SparseRng rng)
    : self_(self),
      rt_(rt),
      view_(view),
      params_(params),
      rng_(std::move(rng)),
      maintenance_timer_(rt_, params.maintenance_period,
                         [this] { on_maintenance(); }) {
  GOCAST_ASSERT(params_.target_rand_degree >= 0);
  GOCAST_ASSERT(params_.target_near_degree >= 0);
  GOCAST_ASSERT(params_.target_degree() > 0);
  GOCAST_ASSERT(params_.maintenance_period > 0.0);
  GOCAST_ASSERT(params_.replace_ratio > 0.0 && params_.replace_ratio <= 1.0);
  GOCAST_ASSERT(params_.replace_floor_offset >= 0);
  GOCAST_ASSERT(params_.drop_slack >= 1);
  GOCAST_ASSERT(params_.maintenance_period_max >= params_.maintenance_period);
  // Flat tables: size once so steady-state maintenance never rehashes.
  table_.reserve(static_cast<std::size_t>(params_.target_degree()) * 2 + 8);
  pending_adds_.reserve(16);
  pending_pings_.reserve(16);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::start(SimTime stagger) {
  maintenance_timer_.start(stagger + params_.maintenance_period);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::stop() {
  maintenance_timer_.stop();
}

template <runtime::Context RT>
void OverlayManagerT<RT>::freeze() {
  frozen_ = true;
}

template <runtime::Context RT>
void OverlayManagerT<RT>::bootstrap_link(NodeId peer, LinkKind kind) {
  GOCAST_ASSERT(peer != self_);
  if (table_.has(peer)) return;
  establish(peer, kind);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::add_listener(OverlayListener* listener) {
  GOCAST_ASSERT(listener != nullptr);
  listeners_.push_back(listener);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::set_own_landmarks(
    const membership::LandmarkVector& landmarks) {
  own_landmarks_ = landmarks;
}

template <runtime::Context RT>
net::PeerDegrees OverlayManagerT<RT>::my_degrees() const {
  net::PeerDegrees d;
  if (behavior_ != nullptr && behavior_->degree_liar) {
    // The lie rides on every outgoing message: peers cache these degrees
    // and feed them into the C1/C4 victim checks and transfer decisions.
    d.rand_degree = behavior_->fake_rand_degree;
    d.near_degree = behavior_->fake_near_degree;
    d.max_nearby_rtt = static_cast<float>(table_.max_nearby_rtt());
    return d;
  }
  d.rand_degree = static_cast<std::uint16_t>(table_.rand_degree());
  d.near_degree = static_cast<std::uint16_t>(table_.near_degree());
  d.max_nearby_rtt = static_cast<float>(table_.max_nearby_rtt());
  return d;
}

// ---------------------------------------------------------------------------
// Maintenance cycle
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void OverlayManagerT<RT>::on_maintenance() {
  if (frozen_) return;
  prune_pending();
  keepalive_check();
  maintain_random();
  if (params_.maintain_nearby) maintain_nearby();

  if (params_.adaptive_maintenance) {
    // Future-work extension the paper sketches: back the cycle off while
    // the neighbor set is stable, snap back on any change.
    std::uint64_t changes = links_added_ + links_dropped_;
    if (changes == last_cycle_changes_) {
      maintenance_timer_.set_period(
          std::min(maintenance_timer_.period() * kMaintenanceBackoff,
                   params_.maintenance_period_max));
    } else {
      maintenance_timer_.set_period(params_.maintenance_period);
    }
    last_cycle_changes_ = changes;
  }
}

template <runtime::Context RT>
void OverlayManagerT<RT>::keepalive_check() {
  // TCP-keepalive analogue: probe the most-stale neighbor so degree caches
  // stay fresh and dead neighbors are discovered even when the higher
  // layers are quiet. At most one probe per maintenance cycle.
  SimTime now = rt_.now();
  NodeId stalest = kInvalidNode;
  SimTime oldest = now - kKeepaliveInterval;
  for (const auto& [peer, info] : table_.raw()) {
    if (info.last_heard < oldest) {
      oldest = info.last_heard;
      stalest = peer;
    }
  }
  if (stalest != kInvalidNode) {
    // Pre-date last_heard refresh via the pong (or removal via the reset).
    table_.update_degrees(stalest, table_.find(stalest)->degrees, now);
    measure_rtt(stalest, [](SimTime) {});
  }
}

template <runtime::Context RT>
void OverlayManagerT<RT>::prune_pending() {
  SimTime now = rt_.now();
  for (auto it = pending_adds_.begin(); it != pending_adds_.end();) {
    if (now - it->second.started > params_.pending_timeout) {
      (it->second.kind == LinkKind::kRandom ? pending_rand_ : pending_near_) -= 1;
      it = pending_adds_.erase(it);
    } else {
      ++it;
    }
  }
  for (std::size_t i = 0; i < pending_pings_.size();) {
    if (now - pending_pings_[i].sent > params_.pending_timeout) {
      pending_pings_[i] = std::move(pending_pings_.back());
      pending_pings_.pop_back();
    } else {
      ++i;
    }
  }
  for (auto it = blacklist_.begin(); it != blacklist_.end();) {
    if (now >= it->second) {
      it = blacklist_.erase(it);
    } else {
      ++it;
    }
  }
}

template <runtime::Context RT>
void OverlayManagerT<RT>::maintain_random() {
  const int c_rand = params_.target_rand_degree;
  int degree = table_.rand_degree();

  if (degree + pending_rand_ < c_rand) {
    // Add: connect to a uniformly random member (§2.2.2).
    for (int attempt = 0; attempt < 3; ++attempt) {
      NodeId target = view_.random_member();
      if (target == kInvalidNode) return;
      if (!eligible_candidate(target)) continue;
      pending_adds_[target] = PendingAdd{LinkKind::kRandom, rt_.now()};
      ++pending_rand_;
      send_request(target, LinkKind::kRandom, kNever, /*transfer=*/false);
      return;
    }
    return;
  }

  if (degree >= c_rand + 2) {
    // Operation 1: hand two random neighbors to each other; our degree
    // drops by two, theirs stay unchanged.
    std::vector<NodeId> rand_ids = table_.ids_of_kind(LinkKind::kRandom);
    GOCAST_ASSERT(rand_ids.size() >= 2);
    std::size_t i = static_cast<std::size_t>(rng_.next_below(rand_ids.size()));
    std::size_t j = static_cast<std::size_t>(rng_.next_below(rand_ids.size() - 1));
    if (j >= i) ++j;
    NodeId y = rand_ids[i];
    NodeId z = rand_ids[j];
    rt_.send(self_, y,
             rt_.template make<LinkTransferMsg>(z, my_degrees()));
    drop_link(y, /*notify_peer=*/false);  // the transfer message implies it
    drop_link(z, /*notify_peer=*/true);
    return;
  }

  if (degree == c_rand + 1) {
    // Operation 2: drop the link to a random neighbor whose own random
    // degree exceeds the target; both sides stay >= C_rand.
    std::vector<NodeId> over = table_.random_with_degree_above(c_rand);
    if (!over.empty()) {
      NodeId victim = over[static_cast<std::size_t>(rng_.next_below(over.size()))];
      drop_link(victim, /*notify_peer=*/true);
    }
    // Otherwise stay at C_rand + 1 (the paper proves degrees settle at
    // C_rand or C_rand + 1).
  }
}

template <runtime::Context RT>
void OverlayManagerT<RT>::maintain_nearby() {
  const int c_near = params_.target_near_degree;
  int degree = table_.near_degree();

  if (degree >= c_near + params_.drop_slack) {
    drop_excess_nearby();
    return;
  }
  if (degree + pending_near_ < c_near) {
    start_nearby_add();
    return;
  }
  replace_step();
}

template <runtime::Context RT>
void OverlayManagerT<RT>::drop_excess_nearby() {
  const int c_near = params_.target_near_degree;
  // Drop longest-RTT neighbors first, but only those whose degree is not
  // dangerously low (condition C1's floor), until we are back at C_near.
  std::vector<NodeId> order =
      table_.droppable_nearby(c_near - params_.replace_floor_offset);
  for (NodeId victim : order) {
    if (table_.near_degree() <= c_near) break;
    drop_link(victim, /*notify_peer=*/true);
  }
}

template <runtime::Context RT>
void OverlayManagerT<RT>::start_nearby_add() {
  NodeId candidate = next_nearby_candidate();
  if (candidate == kInvalidNode) return;
  // Measure first so the request carries a real RTT for Q's C3 check.
  pending_adds_[candidate] = PendingAdd{LinkKind::kNearby, rt_.now()};
  ++pending_near_;
  measure_rtt(candidate, [this, candidate](SimTime rtt) {
    auto it = pending_adds_.find(candidate);
    if (it == pending_adds_.end() || it->second.kind != LinkKind::kNearby) return;
    if (table_.has(candidate)) return;  // raced with an inbound add
    send_request(candidate, LinkKind::kNearby, rtt, /*transfer=*/false);
  });
}

template <runtime::Context RT>
void OverlayManagerT<RT>::replace_step() {
  NodeId candidate = next_nearby_candidate();
  if (candidate == kInvalidNode) return;
  if (pending_near_ > 0) return;  // one replacement in flight at a time
  measure_rtt(candidate, [this, candidate](SimTime rtt) {
    evaluate_replace_candidate(candidate, rtt);
  });
}

template <runtime::Context RT>
void OverlayManagerT<RT>::evaluate_replace_candidate(NodeId candidate,
                                                     SimTime rtt) {
  if (frozen_) return;
  if (table_.has(candidate) || pending_adds_.count(candidate) > 0) return;
  if (pending_near_ > 0) return;
  const int c_near = params_.target_near_degree;
  if (table_.near_degree() < c_near) return;  // the add path handles this

  // C1: a replaceable victim must exist (degree floor C_near - 1 with the
  // default offset); among those, the one with the longest RTT is replaced.
  std::optional<NodeId> victim =
      table_.worst_replaceable_nearby(c_near - params_.replace_floor_offset);
  if (!victim.has_value()) return;
  const NeighborInfo* u = table_.find(*victim);
  GOCAST_ASSERT(u != nullptr);

  // C4: only adopt a significantly better link.
  SimTime u_rtt = u->rtt == kNever ? kNever : u->rtt;
  if (!(rtt <= params_.replace_ratio * u_rtt)) return;

  // C2 and C3 are evaluated by the candidate when it receives the request.
  PendingAdd pending{LinkKind::kNearby, rt_.now()};
  pending.replace_victim = *victim;
  pending_adds_[candidate] = pending;
  ++pending_near_;
  send_request(candidate, LinkKind::kNearby, rtt, /*transfer=*/false);
}

template <runtime::Context RT>
NodeId OverlayManagerT<RT>::next_nearby_candidate() {
  if (!initial_queue_built_ && !view_.empty()) build_initial_measure_queue();

  // Phase 1: probe members in increasing estimated latency. The queue is a
  // consume-once vector walked by index; once drained its storage is freed
  // for the rest of the node's lifetime.
  while (measure_head_ < measure_queue_.size()) {
    NodeId id = measure_queue_[measure_head_++];
    if (eligible_candidate(id) && view_.contains(id)) return id;
  }
  if (!measure_queue_.empty()) {
    std::vector<NodeId>().swap(measure_queue_);  // `= {}` keeps the capacity
    measure_head_ = 0;
  }

  // Phase 2: round-robin over the (evolving) member list.
  for (std::size_t i = 0; i < view_.size(); ++i) {
    NodeId id = view_.next_round_robin();
    if (id == kInvalidNode) return kInvalidNode;
    if (eligible_candidate(id)) return id;
  }
  // Liveness fallback: corroboration is a preference, not a deadlock. When
  // not a single corroborated candidate exists — a node whose only gossip
  // streams are free-riders can stay in that state indefinitely — accept an
  // uncorroborated one rather than sit below the nearby target forever.
  for (std::size_t i = 0; i < view_.size(); ++i) {
    NodeId id = view_.next_round_robin();
    if (id == kInvalidNode) return kInvalidNode;
    if (eligible_uncorroborated(id)) return id;
  }
  return kInvalidNode;
}

template <runtime::Context RT>
void OverlayManagerT<RT>::build_initial_measure_queue() {
  initial_queue_built_ = true;
  std::vector<std::pair<SimTime, NodeId>> est;
  est.reserve(view_.size());
  for (std::size_t i = 0; i < view_.size(); ++i) {
    SimTime estimate =
        coord::estimate_rtt_or_never(own_landmarks_, view_.landmarks_at(i));
    est.emplace_back(estimate, view_.id_at(i));
  }
  std::sort(est.begin(), est.end());
  measure_queue_.reserve(est.size());
  for (const auto& [estimate, id] : est) measure_queue_.push_back(id);
}

template <runtime::Context RT>
bool OverlayManagerT<RT>::eligible_candidate(NodeId id) const {
  // corroborated() is unconditionally true unless the view was switched into
  // corroboration tracking (DefenseProfile::kFull): then a
  // member vouched for by only one advertiser — the eclipse flood pattern —
  // should not become an overlay link while a second, distinct source has
  // not confirmed it. Liveness floor: a node with fewer than two links has
  // at most one gossip stream, so multi-source corroboration is
  // unsatisfiable by construction — a fresh joiner would deadlock with its
  // whole view attributed to its one bootstrap. Until two links exist the
  // filter stands down; nearby selection additionally falls back to
  // uncorroborated candidates when no corroborated one exists at all (see
  // next_nearby_candidate).
  return eligible_uncorroborated(id) &&
         (table_.degree() < 2 || view_.corroborated(id));
}

template <runtime::Context RT>
bool OverlayManagerT<RT>::eligible_uncorroborated(NodeId id) const {
  return id != self_ && id != kInvalidNode && !table_.has(id) &&
         pending_adds_.count(id) == 0 && !is_blacklisted(id);
}

template <runtime::Context RT>
bool OverlayManagerT<RT>::is_blacklisted(NodeId id) const {
  auto it = blacklist_.find(id);
  return it != blacklist_.end() && rt_.now() < it->second;
}

template <runtime::Context RT>
bool OverlayManagerT<RT>::evict_neighbor(NodeId peer, SimTime blacklist_for) {
  if (blacklist_for > 0.0) {
    blacklist_[peer] = rt_.now() + blacklist_for;
  }
  if (!table_.has(peer)) return false;
  drop_link(peer, /*notify_peer=*/true);
  return true;
}

// ---------------------------------------------------------------------------
// RTT measurement
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void OverlayManagerT<RT>::measure_rtt(NodeId target,
                                      std::function<void(SimTime)> done) {
  GOCAST_ASSERT(target != self_);
  std::uint32_t nonce = next_nonce_++;
  pending_pings_.push_back(PendingPing{nonce, target, rt_.now(), std::move(done)});
  ++pings_sent_;
  rt_.send(self_, target, rt_.template make<PingMsg>(nonce));
}

template <runtime::Context RT>
void OverlayManagerT<RT>::on_ping(NodeId from, const PingMsg& msg) {
  rt_.send(self_, from, rt_.template make<PongMsg>(msg.nonce, my_degrees()));
}

template <runtime::Context RT>
void OverlayManagerT<RT>::on_pong(NodeId from, const PongMsg& msg) {
  auto it = std::find_if(pending_pings_.begin(), pending_pings_.end(),
                         [&](const PendingPing& p) { return p.nonce == msg.nonce; });
  if (it == pending_pings_.end()) return;
  if (it->target != from) return;
  SimTime rtt = rt_.now() - it->sent;
  auto done = std::move(it->done);
  *it = std::move(pending_pings_.back());
  pending_pings_.pop_back();
  table_.update_rtt(from, rtt);  // refresh if the peer is a neighbor
  if (done) done(rtt);
}

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void OverlayManagerT<RT>::send_request(NodeId target, LinkKind kind, SimTime rtt,
                                       bool transfer) {
  rt_.send(self_, target, rt_.template make<NeighborRequestMsg>(
                              kind, rtt, transfer, my_degrees()));
}

template <runtime::Context RT>
void OverlayManagerT<RT>::on_neighbor_request(NodeId from,
                                              const NeighborRequestMsg& msg) {
  if (table_.has(from)) {
    // Duplicate (e.g. retry after a lost accept): re-accept idempotently.
    rt_.send(self_, from, rt_.template make<NeighborAcceptMsg>(
                              msg.link, msg.measured_rtt, my_degrees()));
    return;
  }
  if (is_blacklisted(from)) {
    // An evicted suspect trying to re-link before its ban expires.
    rt_.send(self_, from,
             rt_.template make<NeighborRejectMsg>(msg.link, my_degrees()));
    return;
  }

  bool accept = false;
  if (msg.link == LinkKind::kRandom) {
    accept = table_.rand_degree() < params_.target_rand_degree + kDegreeSlack;
  } else {
    const int c_near = params_.target_near_degree;
    // C2: our nearby degree must not be too high.
    bool c2 = table_.near_degree() < c_near + kDegreeSlack;
    // C3: once we have enough nearby neighbors, only accept links better
    // than our current worst nearby link.
    bool c3 = true;
    if (table_.near_degree() >= c_near) {
      SimTime rtt = msg.measured_rtt;
      if (rtt == kNever) rtt = rt_.rtt(self_, from);
      c3 = rtt < table_.max_nearby_rtt();
    }
    accept = c2 && c3;
  }

  if (frozen_) accept = false;

  if (!accept) {
    rt_.send(self_, from,
             rt_.template make<NeighborRejectMsg>(msg.link, my_degrees()));
    return;
  }

  establish(from, msg.link);
  // The request carried the peer's degrees, but it was not yet a neighbor
  // when the dispatcher cached them; seed the cache now.
  if (const net::PeerDegrees* degrees = msg.peer_degrees()) {
    table_.update_degrees(from, *degrees, rt_.now());
  }
  rt_.send(self_, from, rt_.template make<NeighborAcceptMsg>(
                            msg.link, msg.measured_rtt, my_degrees()));
}

template <runtime::Context RT>
void OverlayManagerT<RT>::on_neighbor_accept(NodeId from,
                                             const NeighborAcceptMsg& msg) {
  auto it = pending_adds_.find(from);
  if (it == pending_adds_.end()) {
    // We gave up on this handshake (timeout) but the peer established the
    // link; tear its half down.
    if (!table_.has(from)) {
      rt_.send(self_, from, rt_.template make<NeighborDropMsg>(my_degrees()));
    }
    return;
  }
  PendingAdd pending = it->second;
  (pending.kind == LinkKind::kRandom ? pending_rand_ : pending_near_) -= 1;
  pending_adds_.erase(it);

  if (table_.has(from)) return;  // simultaneous handshakes; already linked
  establish(from, msg.link);
  if (const net::PeerDegrees* degrees = msg.peer_degrees()) {
    table_.update_degrees(from, *degrees, rt_.now());
  }

  // Replacement: drop the victim chosen under C1, re-validated now.
  if (pending.replace_victim != kInvalidNode &&
      table_.near_degree() > params_.target_near_degree &&
      table_.has(pending.replace_victim)) {
    const NeighborInfo* u = table_.find(pending.replace_victim);
    if (u != nullptr && u->kind == LinkKind::kNearby &&
        u->degrees.near_degree >=
            params_.target_near_degree - params_.replace_floor_offset) {
      drop_link(pending.replace_victim, /*notify_peer=*/true);
    }
  }
}

template <runtime::Context RT>
void OverlayManagerT<RT>::on_neighbor_reject(NodeId from,
                                             const NeighborRejectMsg& msg) {
  (void)msg;
  auto it = pending_adds_.find(from);
  if (it == pending_adds_.end()) return;
  (it->second.kind == LinkKind::kRandom ? pending_rand_ : pending_near_) -= 1;
  pending_adds_.erase(it);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::on_neighbor_drop(NodeId from,
                                           const NeighborDropMsg& msg) {
  (void)msg;
  if (!table_.has(from)) return;
  drop_link(from, /*notify_peer=*/false);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::on_link_transfer(NodeId from,
                                           const LinkTransferMsg& msg) {
  // `from` handed us off to msg.target and dropped our link.
  if (table_.has(from)) drop_link(from, /*notify_peer=*/false);
  if (frozen_) return;
  NodeId target = msg.target;
  if (target == self_ || table_.has(target) || pending_adds_.count(target) > 0) {
    return;
  }
  pending_adds_[target] = PendingAdd{LinkKind::kRandom, rt_.now()};
  ++pending_rand_;
  send_request(target, LinkKind::kRandom, kNever, /*transfer=*/true);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::note_peer_degrees(NodeId from,
                                            const net::PeerDegrees& degrees) {
  table_.update_degrees(from, degrees, rt_.now());
}

template <runtime::Context RT>
void OverlayManagerT<RT>::on_peer_failure(NodeId peer) {
  view_.remove(peer);
  if (auto it = pending_adds_.find(peer); it != pending_adds_.end()) {
    (it->second.kind == LinkKind::kRandom ? pending_rand_ : pending_near_) -= 1;
    pending_adds_.erase(it);
  }
  if (table_.has(peer)) {
    drop_link(peer, /*notify_peer=*/false);
  }
}

// ---------------------------------------------------------------------------
// Link state changes
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void OverlayManagerT<RT>::establish(NodeId peer, LinkKind kind) {
  // RTT known from handshake timing (TCP connect) — the simulator provides
  // the true value the timing measurement would produce.
  SimTime rtt = rt_.rtt(self_, peer);
  bool added = table_.add(peer, kind, rtt, rt_.now());
  GOCAST_ASSERT(added);
  ++links_added_;
  record_link_change();
  for (OverlayListener* l : listeners_) l->on_neighbor_added(peer, kind);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::drop_link(NodeId peer, bool notify_peer) {
  std::optional<NeighborInfo> info = table_.remove(peer);
  if (!info.has_value()) return;
  ++links_dropped_;
  record_link_change();
  if (notify_peer) {
    rt_.send(self_, peer, rt_.template make<NeighborDropMsg>(my_degrees()));
  }
  for (OverlayListener* l : listeners_) l->on_neighbor_removed(peer);
}

template <runtime::Context RT>
void OverlayManagerT<RT>::record_link_change() {
  if (params_.record_link_changes) {
    link_change_times_.push_back(rt_.now());
  }
}

template <runtime::Context RT>
std::size_t OverlayManagerT<RT>::memory_bytes() const {
  return table_.raw().memory_bytes() + pending_adds_.memory_bytes() +
         pending_pings_.capacity() * sizeof(PendingPing) +
         blacklist_.memory_bytes() +
         measure_queue_bytes() +
         listeners_.capacity() * sizeof(OverlayListener*) +
         link_change_times_.capacity() * sizeof(SimTime) +
         rng_.memory_bytes();
}

template class OverlayManagerT<runtime::SimRuntime>;
template class OverlayManagerT<runtime::UdpContext>;

}  // namespace gocast::overlay
