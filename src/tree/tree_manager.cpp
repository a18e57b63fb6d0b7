#include "tree/tree_manager.h"

#include <memory>

#include "common/assert.h"
#include "common/logging.h"
#include "runtime/udp_runtime.h"

namespace gocast::tree {

namespace {
constexpr double kRelaxEpsilon = 1e-9;
/// A root neighbor promotes itself after this many silent heartbeat periods.
constexpr double kNeighborTakeoverPeriods = 2.5;
/// Other nodes wait longer, so a live root neighbor wins the race.
constexpr double kDistantTakeoverPeriods = 4.5;
static_assert(kNeighborTakeoverPeriods < kDistantTakeoverPeriods);
}  // namespace

template <runtime::Context RT>
TreeManagerT<RT>::TreeManagerT(NodeId self, RT rt,
                               overlay::OverlayManagerT<RT>& overlay,
                               TreeParams params, GroupId group)
    : self_(self),
      rt_(rt),
      overlay_(overlay),
      params_(params),
      group_(group),
      root_timer_(rt_, params.heartbeat_period, [this] { flood_heartbeat(); }),
      watchdog_(rt_, params.heartbeat_period, [this] { watchdog_check(); }) {
  GOCAST_ASSERT(params_.heartbeat_period > 0.0);
}

template <runtime::Context RT>
void TreeManagerT<RT>::start(SimTime stagger) {
  if (!params_.enabled) return;
  last_heartbeat_ = rt_.now();
  watchdog_.start(stagger + params_.heartbeat_period);
  if (is_root()) root_timer_.start(stagger + 0.01);
}

template <runtime::Context RT>
void TreeManagerT<RT>::stop() {
  root_timer_.stop();
  watchdog_.stop();
}

template <runtime::Context RT>
void TreeManagerT<RT>::freeze() {
  frozen_ = true;
  stop();
}

template <runtime::Context RT>
void TreeManagerT<RT>::leave() {
  set_parent(kInvalidNode);
  children_.clear();
  neighbor_dist_.clear();
  best_dist_ = kNever;
  frozen_ = true;
  stop();
}

template <runtime::Context RT>
void TreeManagerT<RT>::rejoin(SimTime stagger) {
  if (!frozen_) return;
  frozen_ = false;
  current_seq_ = 0;
  start(stagger);
}

template <runtime::Context RT>
void TreeManagerT<RT>::become_root() {
  GOCAST_ASSERT(params_.enabled);
  adopt_epoch(Epoch{epoch_.term + 1, self_});
}

// ---------------------------------------------------------------------------
// Heartbeats
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void TreeManagerT<RT>::flood_heartbeat() {
  if (!is_root() || frozen_) return;
  ++flood_seq_;
  last_heartbeat_ = rt_.now();
  auto msg = rt_.template make<HeartbeatMsg>(epoch_, flood_seq_, 0.0,
                                             overlay_.my_degrees(), group_);
  const std::vector<NodeId> peers = overlay_.neighbor_ids();
  rt_.send_multi(self_, peers.data(), peers.size(), kInvalidNode,
                 std::move(msg));
}

template <runtime::Context RT>
void TreeManagerT<RT>::on_heartbeat(NodeId from, const HeartbeatMsg& msg) {
  if (!params_.enabled || frozen_) return;
  const overlay::NeighborInfo* link = overlay_.table().find(from);
  if (link == nullptr) return;  // heartbeats only flow on overlay links

  if (epoch_.beats(msg.epoch)) return;  // stale incarnation
  if (msg.epoch.beats(epoch_)) adopt_epoch(msg.epoch);
  if (is_root()) return;  // our own flood echoed back through a cycle

  last_heartbeat_ = rt_.now();

  if (msg.seq < current_seq_) return;  // stale round
  if (msg.seq > current_seq_) {
    // New round: restart relaxation but keep the current parent until a
    // better path shows up, to avoid gratuitous churn.
    current_seq_ = msg.seq;
    best_dist_ = kNever;
  }

  SimTime link_latency = link->rtt == kNever
                             ? rt_.one_way(self_, from)
                             : link->rtt / 2.0;
  SimTime candidate = msg.cum_latency + link_latency;
  neighbor_dist_[from] = msg.cum_latency;

  if (candidate + kRelaxEpsilon < best_dist_) {
    best_dist_ = candidate;
    set_parent(from);
    auto fwd = rt_.template make<HeartbeatMsg>(msg.epoch, msg.seq, candidate,
                                               overlay_.my_degrees(), group_);
    const std::vector<NodeId> peers = overlay_.neighbor_ids();
    rt_.send_multi(self_, peers.data(), peers.size(), from, std::move(fwd));
  }
}

template <runtime::Context RT>
void TreeManagerT<RT>::watchdog_check() {
  if (!params_.enabled || frozen_ || is_root()) return;
  if (epoch_.root == kInvalidNode) return;  // no root designated yet
  SimTime now = rt_.now();
  double silent = now - last_heartbeat_;
  double threshold = overlay_.is_neighbor(epoch_.root)
                         ? kNeighborTakeoverPeriods
                         : kDistantTakeoverPeriods;
  if (silent > threshold * params_.heartbeat_period) {
    GOCAST_DEBUG("node " << self_ << " promoting self to root, old root "
                         << epoch_.root << " silent for " << silent << "s");
    promote_self();
  }
}

template <runtime::Context RT>
void TreeManagerT<RT>::promote_self() {
  adopt_epoch(Epoch{epoch_.term + 1, self_});
  flood_heartbeat();
}

template <runtime::Context RT>
void TreeManagerT<RT>::adopt_epoch(const Epoch& epoch) {
  bool was_root = is_root();
  NodeId old_root = epoch_.root;
  epoch_ = epoch;
  current_seq_ = 0;
  best_dist_ = is_root() ? 0.0 : kNever;
  neighbor_dist_.clear();
  last_heartbeat_ = rt_.now();
  if (is_root()) {
    set_parent(kInvalidNode);
    if (!was_root && params_.enabled && !frozen_) {
      root_timer_.start(0.01);
    }
  } else if (was_root) {
    root_timer_.stop();
  }
  // A known root ceding to a different one is how a healed partition looks
  // from the losing side; let the dissemination layer react (cold path).
  if (root_change_hook_ && old_root != kInvalidNode &&
      old_root != epoch_.root) {
    root_change_hook_(old_root, epoch_.root);
  }
}

// ---------------------------------------------------------------------------
// Parent / child bookkeeping
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void TreeManagerT<RT>::set_parent(NodeId new_parent) {
  if (parent_ == new_parent) {
    // Refresh the child registration: every heartbeat round re-selects the
    // parent, and an idempotent re-join heals any parent that missed (or
    // rejected during a link-handshake window) the original ChildJoin.
    if (new_parent != kInvalidNode) {
      rt_.send(self_, new_parent,
               rt_.template make<ChildJoinMsg>(epoch_, overlay_.my_degrees(),
                                               group_));
    }
    return;
  }
  NodeId old_parent = parent_;
  parent_ = new_parent;
  if (old_parent != kInvalidNode && rt_.alive(self_)) {
    rt_.send(self_, old_parent,
             rt_.template make<ChildLeaveMsg>(overlay_.my_degrees(), group_));
  }
  if (new_parent != kInvalidNode) {
    rt_.send(self_, new_parent,
             rt_.template make<ChildJoinMsg>(epoch_, overlay_.my_degrees(),
                                               group_));
  }
}

template <runtime::Context RT>
void TreeManagerT<RT>::on_child_join(NodeId from, const ChildJoinMsg& msg) {
  if (!params_.enabled) return;
  if (!overlay_.is_neighbor(from)) return;  // tree links must be overlay links
  if (epoch_.beats(msg.epoch)) return;      // child follows a stale root
  children_.insert(from);
}

template <runtime::Context RT>
void TreeManagerT<RT>::on_child_leave(NodeId from, const ChildLeaveMsg& msg) {
  (void)msg;
  children_.erase(from);
}

template <runtime::Context RT>
void TreeManagerT<RT>::on_neighbor_added(NodeId peer, overlay::LinkKind kind) {
  (void)peer;
  (void)kind;
}

template <runtime::Context RT>
void TreeManagerT<RT>::on_neighbor_removed(NodeId peer) {
  children_.erase(peer);
  neighbor_dist_.erase(peer);
  if (parent_ == peer) {
    parent_ = kInvalidNode;
    best_dist_ = kNever;
    if (frozen_) return;  // no repair in the stress test
    // Fail over to the best alternative we heard from this epoch.
    NodeId best = kInvalidNode;
    SimTime best_dist = kNever;
    for (const auto& [neighbor, dist] : neighbor_dist_) {
      const overlay::NeighborInfo* link = overlay_.table().find(neighbor);
      if (link == nullptr) continue;
      SimTime through = dist + (link->rtt == kNever ? 0.0 : link->rtt / 2.0);
      if (through < best_dist) {
        best_dist = through;
        best = neighbor;
      }
    }
    if (best != kInvalidNode) {
      best_dist_ = best_dist;
      set_parent(best);
    }
  }
}

template <runtime::Context RT>
std::vector<NodeId> TreeManagerT<RT>::tree_neighbors() const {
  std::vector<NodeId> out;
  out.reserve(children_.size() + 1);
  if (parent_ != kInvalidNode) out.push_back(parent_);
  for (NodeId c : children_) {
    if (c != parent_) out.push_back(c);
  }
  return out;
}

template <runtime::Context RT>
bool TreeManagerT<RT>::is_tree_neighbor(NodeId peer) const {
  return peer == parent_ || children_.count(peer) > 0;
}

template class TreeManagerT<runtime::SimRuntime>;
template class TreeManagerT<runtime::UdpContext>;

}  // namespace gocast::tree
