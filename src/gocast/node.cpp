#include "gocast/node.h"

#include <algorithm>

#include "common/assert.h"
#include "common/logging.h"
#include "overlay/messages.h"
#include "runtime/udp_runtime.h"
#include "tree/messages.h"

namespace gocast::core {

namespace {

/// Partial-view capacity (bounded member list).
constexpr std::size_t kViewCapacity = 256;

/// Multi-group link keeper: how often a node checks that each subscribed
/// extra group still has co-subscribed overlay neighbors, requesting one
/// link per sparse group per check. Keeps every per-group subgraph
/// connected while node-global overlay maintenance churns links.
constexpr SimTime kGroupLinkPeriod = 2.0;
/// Minimum co-subscribed neighbors per extra group before the keeper asks
/// for more.
constexpr std::size_t kGroupMinNeighbors = 2;

GoCastConfig normalize(GoCastConfig config) {
  // Gossip-only baselines have no tree; keep the flags consistent.
  if (!config.dissemination.use_tree) config.tree.enabled = false;
  return config;
}

std::shared_ptr<const GoCastConfig> normalize_shared(
    std::shared_ptr<const GoCastConfig> config) {
  // Copy only when the flags are actually inconsistent; a deployment's
  // shared config passes through untouched.
  if (!config->dissemination.use_tree && config->tree.enabled) {
    return std::make_shared<const GoCastConfig>(normalize(*config));
  }
  return config;
}
}  // namespace

template <runtime::Context RT>
GoCastNodeT<RT>::GoCastNodeT(NodeId id, RT rt, GoCastConfig config,
                             SparseRng rng)
    : GoCastNodeT(id, rt,
                  std::make_shared<const GoCastConfig>(
                      normalize(std::move(config))),
                  std::move(rng)) {}

template <runtime::Context RT>
GoCastNodeT<RT>::GoCastNodeT(NodeId id, RT rt,
                             std::shared_ptr<const GoCastConfig> config,
                             SparseRng rng)
    : id_(id),
      rt_(rt),
      config_(normalize_shared(std::move(config))),
      view_(id, kViewCapacity, rng.fork("view"),
            config_->landmark_store),
      overlay_(id, rt_, view_, config_->overlay, rng.fork_sparse("overlay")),
      tree_(id, rt_, overlay_, config_->tree),
      dissemination_(id, rt_, view_, overlay_,
                     config_->tree.enabled ? &tree_ : nullptr,
                     config_->dissemination, config_->defense,
                     rng.fork("dissemination"), kDefaultGroup, &suspicion_),
      own_landmarks_(membership::empty_landmarks()),
      group_rng_(rng.fork_sparse("multigroup")) {
  if (config_->defense == DefenseProfile::kFull) view_.enable_corroboration();
  overlay_.add_listener(&tree_);
  overlay_.add_listener(&dissemination_);
  overlay_.set_behavior(&behavior_);
  dissemination_.set_behavior(&behavior_);
  if (config_->readvertise_on_heal) {
    tree_.set_root_change_hook([this](NodeId old_root, NodeId new_root) {
      (void)old_root;
      (void)new_root;
      dissemination_.readvertise_recent();
    });
  }
  rt_.set_endpoint(id_, this);
}

template <runtime::Context RT>
void GoCastNodeT<RT>::start(SimTime stagger) {
  started_ = true;
  start_stagger_ = stagger;
  overlay_.start(stagger);
  tree_.start(stagger);
  dissemination_.start(stagger);
  for (GroupId g : extra_ids_) {
    GroupState* st = find_group(g);
    if (!st->diss.active()) continue;  // joined then left before start
    st->tree.start(stagger);
    st->diss.start(stagger);
  }
  if (multigroup_ && config_->multiplex_gossip) {
    mux_timer_ = std::make_unique<runtime::PeriodicTimer<RT>>(
        rt_, config_->dissemination.gossip_period, [this] { on_mux_timer(); });
    mux_timer_->start(stagger + config_->dissemination.gossip_period);
  }
  if (multigroup_) {
    keeper_timer_ = std::make_unique<runtime::PeriodicTimer<RT>>(
        rt_, kGroupLinkPeriod, [this] { on_keeper_timer(); });
    keeper_timer_->start(stagger + kGroupLinkPeriod);
  }
  measure_landmarks();
}

template <runtime::Context RT>
void GoCastNodeT<RT>::stop() {
  overlay_.stop();
  tree_.stop();
  dissemination_.stop();
  for (GroupId g : extra_ids_) {
    GroupState* st = find_group(g);
    st->tree.stop();
    st->diss.stop();
  }
  if (mux_timer_) mux_timer_->stop();
  if (keeper_timer_) keeper_timer_->stop();
}

template <runtime::Context RT>
void GoCastNodeT<RT>::freeze() {
  overlay_.freeze();
  tree_.freeze();
  for (GroupId g : extra_ids_) find_group(g)->tree.freeze();
}

template <runtime::Context RT>
void GoCastNodeT<RT>::kill() {
  rt_.fail_node(id_);
  stop();
}

template <runtime::Context RT>
void GoCastNodeT<RT>::join_via(NodeId bootstrap) {
  GOCAST_ASSERT(bootstrap != id_);
  rt_.send(id_, bootstrap, rt_.template make<overlay::JoinRequestMsg>());
  schedule_join_retry(bootstrap, 1);
}

template <runtime::Context RT>
void GoCastNodeT<RT>::schedule_join_retry(NodeId bootstrap, int attempt) {
  // One lost JoinRequest (or its reply) must not orphan the joiner forever:
  // until the first reply integrates — view still empty, no overlay links —
  // the request is re-sent on a fixed cadence. Bounded so a joiner whose
  // bootstrap contact died between selection and delivery gives up instead
  // of pinging a corpse for the rest of the run.
  constexpr SimTime kRetryInterval = 2.0;
  constexpr int kRetryLimit = 10;
  if (attempt > kRetryLimit) return;
  rt_.schedule_after(kRetryInterval, [this, bootstrap, attempt] {
    if (!rt_.alive(id_)) return;
    if (!view_.empty() || overlay_.degree() > 0) return;  // join took hold
    rt_.send(id_, bootstrap, rt_.template make<overlay::JoinRequestMsg>());
    schedule_join_retry(bootstrap, attempt + 1);
  });
}

template <runtime::Context RT>
void GoCastNodeT<RT>::seed_view(
    std::span<const membership::MemberEntry> entries) {
  view_.integrate(entries);
  // Bootstrap seeds are trusted: the harness handed them over out of band,
  // not a potentially eclipsing advertiser.
  for (const membership::MemberEntry& e : entries) {
    view_.mark_corroborated(e.id);
  }
}

template <runtime::Context RT>
void GoCastNodeT<RT>::integrate_members(
    NodeId from, std::span<const membership::MemberEntry> entries) {
  if (config_->defense == DefenseProfile::kFull) {
    view_.integrate_from(from, entries, membership::kMaxNewPerSource);
  } else {
    view_.integrate(entries);
  }
}

template <runtime::Context RT>
void GoCastNodeT<RT>::bootstrap_link(NodeId peer, overlay::LinkKind kind) {
  overlay_.bootstrap_link(peer, kind);
}

template <runtime::Context RT>
void GoCastNodeT<RT>::become_root() {
  tree_.become_root();
}

template <runtime::Context RT>
MsgId GoCastNodeT<RT>::multicast(std::size_t payload_bytes) {
  GOCAST_ASSERT_MSG(rt_.alive(id_), "dead node starting a multicast");
  return dissemination_.multicast(payload_bytes);
}

template <runtime::Context RT>
void GoCastNodeT<RT>::set_delivery_hook(DeliveryHook hook) {
  delivery_hook_ = std::move(hook);
  dissemination_.set_delivery_hook(delivery_hook_);
  for (GroupId g : extra_ids_) {
    find_group(g)->diss.set_delivery_hook(delivery_hook_);
  }
}

// ---------------------------------------------------------------------------
// Multi-group (DESIGN.md §10)
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void GoCastNodeT<RT>::enable_multigroup(
    std::shared_ptr<const GroupDirectory> directory) {
  GOCAST_ASSERT_MSG(!started_, "enable_multigroup must precede start()");
  GOCAST_ASSERT(directory != nullptr);
  multigroup_ = true;
  directory_ = std::move(directory);
  if (config_->multiplex_gossip) {
    // The node-level grouped gossip replaces every per-group gossip timer,
    // including the base group's.
    dissemination_.set_external_gossip(true);
  }
}

template <runtime::Context RT>
typename GoCastNodeT<RT>::GroupState* GoCastNodeT<RT>::find_group(GroupId g) {
  auto it = std::lower_bound(
      extra_groups_.begin(), extra_groups_.end(), g,
      [](const auto& entry, GroupId key) { return entry.first < key; });
  if (it == extra_groups_.end() || it->first != g) return nullptr;
  return it->second.get();
}

template <runtime::Context RT>
const typename GoCastNodeT<RT>::GroupState* GoCastNodeT<RT>::find_group(
    GroupId g) const {
  auto it = std::lower_bound(
      extra_groups_.begin(), extra_groups_.end(), g,
      [](const auto& entry, GroupId key) { return entry.first < key; });
  if (it == extra_groups_.end() || it->first != g) return nullptr;
  return it->second.get();
}

template <runtime::Context RT>
void GoCastNodeT<RT>::join_group(GroupId g) {
  GOCAST_ASSERT_MSG(multigroup_, "join_group requires enable_multigroup");
  GOCAST_ASSERT_MSG(g != kDefaultGroup, "every node is in group 0 already");
  if (GroupState* st = find_group(g)) {
    // Rejoin after a leave: reuse the deactivated state.
    if (!st->diss.active()) {
      st->tree.rejoin(start_stagger_);
      st->diss.reactivate(start_stagger_);
      refresh_group_peers(g, *st);
    }
    return;
  }
  auto st = std::make_unique<GroupState>(id_, rt_, view_, overlay_, *config_,
                                         g, &suspicion_,
                                         group_rng_.fork(std::uint64_t{g}));
  GroupState* raw = st.get();
  extra_groups_.insert(
      std::lower_bound(
          extra_groups_.begin(), extra_groups_.end(), g,
          [](const auto& entry, GroupId key) { return entry.first < key; }),
      std::make_pair(g, std::move(st)));
  extra_ids_.insert(std::upper_bound(extra_ids_.begin(), extra_ids_.end(), g),
                    g);
  if (config_->multiplex_gossip) raw->diss.set_external_gossip(true);
  raw->diss.set_behavior(&behavior_);
  if (delivery_hook_) raw->diss.set_delivery_hook(delivery_hook_);
  raw->diss.set_own_landmarks(own_landmarks_);
  overlay_.add_listener(&raw->tree);
  // The group's gossip rotation is NOT overlay-listener-driven: extra
  // groups pick peers from the membership plane (refresh_group_peers), so
  // sparse groups stay gossip-connected even when the shared overlay holds
  // no co-subscribed link. The keeper timer re-refreshes periodically.
  refresh_group_peers(g, *raw);
  if (started_) {
    raw->tree.start(start_stagger_);
    raw->diss.start(start_stagger_);
  }
}

template <runtime::Context RT>
void GoCastNodeT<RT>::leave_group(GroupId g) {
  GroupState* st = find_group(g);
  if (st == nullptr || !st->diss.active()) return;
  st->tree.leave();
  st->diss.deactivate();
}

template <runtime::Context RT>
bool GoCastNodeT<RT>::in_group(GroupId g) const {
  if (g == kDefaultGroup) return true;
  const GroupState* st = find_group(g);
  return st != nullptr && st->diss.active();
}

template <runtime::Context RT>
MsgId GoCastNodeT<RT>::multicast_in(GroupId g, std::size_t payload_bytes) {
  GOCAST_ASSERT_MSG(rt_.alive(id_), "dead node starting a multicast");
  if (g == kDefaultGroup) return dissemination_.multicast(payload_bytes);
  GroupState* st = find_group(g);
  GOCAST_ASSERT_MSG(st != nullptr && st->diss.active(),
                    "multicast_in on an unsubscribed group");
  return st->diss.multicast(payload_bytes);
}

template <runtime::Context RT>
void GoCastNodeT<RT>::become_root_in(GroupId g) {
  if (g == kDefaultGroup) {
    tree_.become_root();
    return;
  }
  GroupState* st = find_group(g);
  GOCAST_ASSERT_MSG(st != nullptr, "become_root_in on an unjoined group");
  st->tree.become_root();
}

template <runtime::Context RT>
DisseminationT<RT>* GoCastNodeT<RT>::dissemination_for(GroupId g) {
  if (g == kDefaultGroup) return &dissemination_;
  GroupState* st = find_group(g);
  return st == nullptr ? nullptr : &st->diss;
}

template <runtime::Context RT>
const DisseminationT<RT>* GoCastNodeT<RT>::dissemination_for(GroupId g) const {
  if (g == kDefaultGroup) return &dissemination_;
  const GroupState* st = find_group(g);
  return st == nullptr ? nullptr : &st->diss;
}

template <runtime::Context RT>
tree::TreeManagerT<RT>* GoCastNodeT<RT>::tree_for(GroupId g) {
  if (g == kDefaultGroup) return &tree_;
  GroupState* st = find_group(g);
  return st == nullptr ? nullptr : &st->tree;
}

template <runtime::Context RT>
std::uint64_t GoCastNodeT<RT>::gossip_messages_sent() const {
  std::uint64_t total = dissemination_.gossips_sent() + mux_gossips_sent_;
  for (GroupId g : extra_ids_) total += find_group(g)->diss.gossips_sent();
  return total;
}

template <runtime::Context RT>
std::uint64_t GoCastNodeT<RT>::deliveries_count() const {
  std::uint64_t total = dissemination_.deliveries();
  for (GroupId g : extra_ids_) total += find_group(g)->diss.deliveries();
  return total;
}

template <runtime::Context RT>
std::uint64_t GoCastNodeT<RT>::duplicates_count() const {
  std::uint64_t total = dissemination_.duplicates();
  for (GroupId g : extra_ids_) total += find_group(g)->diss.duplicates();
  return total;
}

template <runtime::Context RT>
void GoCastNodeT<RT>::append_group_memory(
    std::vector<std::pair<GroupId, std::size_t>>& out) const {
  for (GroupId g : extra_ids_) {
    const GroupState* st = find_group(g);
    out.emplace_back(g, st->diss.memory_bytes() + st->tree.memory_bytes());
  }
}

template <runtime::Context RT>
void GoCastNodeT<RT>::on_mux_timer() {
  // One grouped gossip per period — the O(fanout) invariant. The rotation
  // unions the overlay neighbors (group 0's audience) with every active
  // extra group's peer set, so each peer periodically receives one message
  // carrying a digest section for every group it shares with us. Groups
  // trade a longer per-peer gossip interval (rotation is wider) for a flat
  // per-node message rate; pending digests simply accumulate until the
  // peer's turn comes around.
  mux_rotation_.clear();
  for (NodeId peer : overlay_.neighbor_ids()) mux_rotation_.push_back(peer);
  for (GroupId g : extra_ids_) {
    GroupState* st = find_group(g);
    if (!st->diss.active()) continue;
    for (NodeId peer : st->diss.gossip_peers()) {
      if (std::find(mux_rotation_.begin(), mux_rotation_.end(), peer) ==
          mux_rotation_.end()) {
        mux_rotation_.push_back(peer);
      }
    }
  }
  if (mux_rotation_.empty()) return;
  if (mux_idx_ >= mux_rotation_.size()) mux_idx_ = 0;
  const NodeId target = mux_rotation_[mux_idx_];
  mux_idx_ = (mux_idx_ + 1) % mux_rotation_.size();

  std::vector<GroupSection> sections;
  std::vector<DigestEntry> entries;
  auto add_section = [&](GroupId g, DisseminationT<RT>& diss) {
    if (!diss.active()) return;
    // A group's section is useful only when the target co-subscribes; a
    // section for a group the target is not in would be dropped unread.
    if (g != kDefaultGroup && !directory_->subscribed(target, g)) return;
    const std::vector<DigestEntry>& fresh = diss.collect_digest_for(target);
    // Extra groups keep a zero-entry section as a contact beacon: the
    // receiver reciprocates by folding us into its peer set (see
    // note_group_contact), which is what gives unsampled members in-edges.
    // Group 0's section is only worth its bytes when it carries entries.
    if (fresh.empty() && g == kDefaultGroup) return;
    sections.push_back(
        GroupSection{g, static_cast<std::uint32_t>(fresh.size())});
    entries.insert(entries.end(), fresh.begin(), fresh.end());
  };
  add_section(kDefaultGroup, dissemination_);
  for (GroupId g : extra_ids_) add_section(g, find_group(g)->diss);

  if (sections.empty() && config_->dissemination.skip_empty_gossips) return;
  rt_.send(id_, target,
           rt_.template make<GroupedGossipMsg>(
               sections, entries, dissemination_.piggyback_members(),
               overlay_.my_degrees()));
  ++mux_gossips_sent_;
}

template <runtime::Context RT>
void GoCastNodeT<RT>::on_keeper_timer() {
  for (GroupId g : extra_ids_) {
    GroupState* st = find_group(g);
    if (!st->diss.active()) continue;
    refresh_group_peers(g, *st);
  }
}

template <runtime::Context RT>
void GoCastNodeT<RT>::refresh_group_peers(GroupId g, GroupState& st) {
  // Gossip peers for an extra group come from the membership plane: every
  // co-subscribed overlay neighbor rides for free (the link already
  // exists), topped up to kGroupMinNeighbors with members sampled from
  // the directory. Overlay maintenance keeps optimizing toward its own
  // degree targets and would prune any link we added for group
  // connectivity, so sparse groups instead stay connected through these
  // directory samples — per-node random member picks, which form an
  // expander over the membership.
  //
  // Fallbacks are sticky: a peer must survive several gossip rotations
  // (the mux rotation can be tens of peers wide at 1 per period) or its
  // queued digest backlog is recycled before its turn ever comes. So
  // instead of resampling wholesale, at most one fallback — the oldest —
  // retires per remix interval, which still slowly re-mixes the random
  // graph against unlucky static topologies.
  ++st.keeper_ticks;
  std::vector<NodeId>& peers = st.peer_buf;
  peers.clear();
  for (NodeId peer : overlay_.neighbor_ids()) {
    if (directory_->subscribed(peer, g)) peers.push_back(peer);
  }
  const std::size_t organic = peers.size();
  std::erase_if(st.fallbacks, [&](NodeId p) {
    return !directory_->subscribed(p, g) ||
           std::find(peers.begin(), peers.end(), p) != peers.end();
  });
  const std::size_t want = kGroupMinNeighbors;
  if (organic >= want) {
    // Enough organic co-subscribed links: retire fallbacks one per tick,
    // oldest first, so backlogs queued to them still get a turn.
    if (!st.fallbacks.empty()) st.fallbacks.erase(st.fallbacks.begin());
  } else {
    constexpr std::uint64_t kRemixInterval = 5;  // keeper ticks; ~10 s
    if (organic + st.fallbacks.size() >= want &&
        st.keeper_ticks % kRemixInterval == 0 && !st.fallbacks.empty()) {
      st.fallbacks.erase(st.fallbacks.begin());
    }
    const std::vector<NodeId>& members = directory_->members(g);
    if (members.size() > 1) {
      for (std::size_t attempt = 0;
           organic + st.fallbacks.size() < want && attempt < 16; ++attempt) {
        const NodeId candidate = members[static_cast<std::size_t>(
            st.peer_rng.next_below(members.size()))];
        if (candidate == id_) continue;
        if (std::find(peers.begin(), peers.end(), candidate) != peers.end() ||
            std::find(st.fallbacks.begin(), st.fallbacks.end(), candidate) !=
                st.fallbacks.end()) {
          continue;
        }
        st.fallbacks.push_back(candidate);
      }
    }
  }
  peers.insert(peers.end(), st.fallbacks.begin(), st.fallbacks.end());
  // Reciprocate recent contacts: a member who gossiped to us gets a slot in
  // our rotation, so its own out-edges double as in-edges.
  std::erase_if(st.contacts,
                [&](NodeId p) { return !directory_->subscribed(p, g); });
  for (NodeId p : st.contacts) {
    if (std::find(peers.begin(), peers.end(), p) == peers.end()) {
      peers.push_back(p);
    }
  }
  st.diss.set_gossip_peers(peers);
}

template <runtime::Context RT>
void GoCastNodeT<RT>::note_group_contact(GroupId g, NodeId from) {
  if (g == kDefaultGroup || from == id_) return;
  GroupState* st = find_group(g);
  if (st == nullptr || !st->diss.active()) return;
  auto it = std::find(st->contacts.begin(), st->contacts.end(), from);
  if (it != st->contacts.end()) {
    // Already known: move to the back (freshest) instead of duplicating.
    st->contacts.erase(it);
  }
  st->contacts.push_back(from);
  constexpr std::size_t kMaxContacts = 4;
  if (st->contacts.size() > kMaxContacts) st->contacts.erase(st->contacts.begin());
}

template <runtime::Context RT>
void GoCastNodeT<RT>::on_grouped_gossip(NodeId from,
                                        const GroupedGossipMsg& msg) {
  // Membership piggyback is node-level: integrate once, not per section.
  integrate_members(from, {msg.members.data(), msg.members.size()});
  std::size_t offset = 0;
  for (const GroupSection& section : msg.sections) {
    if (offset + section.count > msg.entries.size()) break;  // malformed
    if (DisseminationT<RT>* diss = dissemination_for(section.group)) {
      diss->on_grouped_digest(from, msg.entries.data() + offset,
                              section.count);
      note_group_contact(section.group, from);
    }
    offset += section.count;
  }
}

template <runtime::Context RT>
void GoCastNodeT<RT>::apply_landmarks() {
  overlay_.set_own_landmarks(own_landmarks_);
  dissemination_.set_own_landmarks(own_landmarks_);
  for (GroupId g : extra_ids_) {
    find_group(g)->diss.set_own_landmarks(own_landmarks_);
  }
}

template <runtime::Context RT>
void GoCastNodeT<RT>::measure_landmarks() {
  const auto& landmarks = config_->landmarks;
  for (std::size_t i = 0;
       i < landmarks.size() && i < membership::kLandmarkSlots; ++i) {
    NodeId lm = landmarks[i];
    if (lm == id_) {
      own_landmarks_[i] = 0.0f;
      apply_landmarks();
      continue;
    }
    overlay_.measure_rtt(lm, [this, i](SimTime rtt) {
      own_landmarks_[i] = static_cast<float>(rtt);
      apply_landmarks();
    });
  }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

template <runtime::Context RT>
void GoCastNodeT<RT>::handle_message(NodeId from, const net::MessagePtr& msg) {
  if (behavior_.processing_delay > 0.0) {
    // Slow node: a CPU-bound receive path pays the processing delay before
    // any protocol logic runs. (Capture fits the engine's inline budget:
    // this + from + one MessagePtr.)
    rt_.schedule_after(behavior_.processing_delay, [this, from, msg] {
      if (!rt_.alive(id_)) return;
      dispatch_message(from, msg);
    });
    return;
  }
  dispatch_message(from, msg);
}

template <runtime::Context RT>
void GoCastNodeT<RT>::dispatch_message(NodeId from, const net::MessagePtr& msg) {
  if (const net::PeerDegrees* degrees = msg->peer_degrees()) {
    overlay_.note_peer_degrees(from, *degrees);
  }

  switch (msg->packet_type()) {
    case overlay::kPktNeighborRequest:
      overlay_.on_neighbor_request(
          from, static_cast<const overlay::NeighborRequestMsg&>(*msg));
      return;
    case overlay::kPktNeighborAccept:
      overlay_.on_neighbor_accept(
          from, static_cast<const overlay::NeighborAcceptMsg&>(*msg));
      return;
    case overlay::kPktNeighborReject:
      overlay_.on_neighbor_reject(
          from, static_cast<const overlay::NeighborRejectMsg&>(*msg));
      return;
    case overlay::kPktNeighborDrop:
      overlay_.on_neighbor_drop(from,
                                static_cast<const overlay::NeighborDropMsg&>(*msg));
      return;
    case overlay::kPktLinkTransfer:
      overlay_.on_link_transfer(from,
                                static_cast<const overlay::LinkTransferMsg&>(*msg));
      return;
    case overlay::kPktPing:
      overlay_.on_ping(from, static_cast<const overlay::PingMsg&>(*msg));
      return;
    case overlay::kPktPong:
      overlay_.on_pong(from, static_cast<const overlay::PongMsg&>(*msg));
      return;
    case overlay::kPktJoinRequest:
      on_join_request(from);
      return;
    case overlay::kPktJoinReply:
      on_join_reply(from, static_cast<const overlay::JoinReplyMsg&>(*msg));
      return;
    // Group-scoped packets route by the message's group id: group 0 is the
    // inline tree/dissemination pair, other groups the per-node group table.
    // A packet for a group this node never joined is dropped silently —
    // common under churn (heartbeats flood all overlay links).
    case tree::kPktHeartbeat: {
      const auto& m = static_cast<const tree::HeartbeatMsg&>(*msg);
      if (auto* tree = tree_for(m.group)) tree->on_heartbeat(from, m);
      return;
    }
    case tree::kPktChildJoin: {
      const auto& m = static_cast<const tree::ChildJoinMsg&>(*msg);
      if (auto* tree = tree_for(m.group)) tree->on_child_join(from, m);
      return;
    }
    case tree::kPktChildLeave: {
      const auto& m = static_cast<const tree::ChildLeaveMsg&>(*msg);
      if (auto* tree = tree_for(m.group)) tree->on_child_leave(from, m);
      return;
    }
    case kPktData: {
      const auto& m = static_cast<const DataMsg&>(*msg);
      if (auto* diss = dissemination_for(m.group)) diss->on_data(from, m);
      return;
    }
    case kPktGossipDigest: {
      const auto& m = static_cast<const GossipDigestMsg&>(*msg);
      if (auto* diss = dissemination_for(m.group)) {
        diss->on_gossip_digest(from, m);
        note_group_contact(m.group, from);
      }
      return;
    }
    case kPktPullRequest: {
      const auto& m = static_cast<const PullRequestMsg&>(*msg);
      if (auto* diss = dissemination_for(m.group)) {
        diss->on_pull_request(from, m);
      }
      return;
    }
    case kPktGroupedGossip:
      on_grouped_gossip(from, static_cast<const GroupedGossipMsg&>(*msg));
      return;
    default:
      GOCAST_WARN("node " << id_ << " ignoring unknown packet type "
                          << msg->packet_type() << " from " << from);
  }
}

template <runtime::Context RT>
void GoCastNodeT<RT>::handle_send_failure(NodeId to, const net::MessagePtr& msg) {
  (void)msg;
  overlay_.on_peer_failure(to);
}

template <runtime::Context RT>
void GoCastNodeT<RT>::on_join_request(NodeId from) {
  std::vector<membership::MemberEntry> members;
  if (behavior_.eclipse && behavior_.roster != nullptr &&
      !behavior_.roster->empty()) {
    // Eclipse attack on the join path: the reply names only fellow ring
    // members (with our own landmark vector as a fabricated proximity
    // claim), so an undefended joiner builds its entire candidate set — and
    // then its overlay links — out of the ring.
    members.reserve(behavior_.roster->size());
    for (NodeId peer : *behavior_.roster) {
      if (peer == id_) continue;
      membership::MemberEntry entry;
      entry.id = peer;
      entry.landmark_rtt = own_landmarks_;
      entry.heard_at = rt_.now();
      members.push_back(entry);
    }
  } else {
    members = view_.sample(64);
  }
  membership::MemberEntry self_entry;
  self_entry.id = id_;
  self_entry.landmark_rtt = own_landmarks_;
  self_entry.heard_at = rt_.now();
  members.push_back(self_entry);
  rt_.send(id_, from,
           rt_.template make<overlay::JoinReplyMsg>(std::move(members)));
}

template <runtime::Context RT>
void GoCastNodeT<RT>::on_join_reply(NodeId from,
                                    const overlay::JoinReplyMsg& msg) {
  integrate_members(from, msg.members);
  // The bootstrap node itself is a direct contact, not hearsay.
  view_.mark_corroborated(from);
}

template class GoCastNodeT<runtime::SimRuntime>;
template class GoCastNodeT<runtime::UdpContext>;

}  // namespace gocast::core
