#include "baselines/push_gossip.h"

#include <unordered_set>

#include "common/assert.h"
#include "gocast/system.h"  // default_latency_model
#include "runtime/udp_runtime.h"

namespace gocast::baselines {

namespace {
/// An unanswered pull is re-issued after this, at most kPullMaxAttempts
/// times (the timeout and attempt budget of GoCast's dissemination layer).
constexpr SimTime kPullRetryTimeout = 2.0;
constexpr int kPullMaxAttempts = 5;
}  // namespace

template <runtime::Context RT>
PushGossipNodeT<RT>::PushGossipNodeT(NodeId id, RT rt, PushGossipParams params,
                                     Rng rng)
    : id_(id),
      rt_(rt),
      params_(params),
      rng_(std::move(rng)),
      gossip_timer_(rt_, params.gossip_period, [this] { on_gossip_timer(); }),
      gc_timer_(rt_, params.gc_sweep_period, [this] { gc_sweep(); }) {
  GOCAST_ASSERT(params_.fanout >= 1);
  GOCAST_ASSERT(params_.gossip_period > 0.0);
  rt_.set_endpoint(id_, this);
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::start(SimTime stagger) {
  if (!params_.no_wait) gossip_timer_.start(stagger + params_.gossip_period);
  gc_timer_.start(stagger + params_.gc_sweep_period);
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::stop() {
  gossip_timer_.stop();
  gc_timer_.stop();
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::kill() {
  rt_.fail_node(id_);
  stop();
}

template <runtime::Context RT>
MsgId PushGossipNodeT<RT>::multicast(std::size_t payload_bytes) {
  GOCAST_ASSERT(rt_.alive(id_));
  MsgId id{id_, next_seq_++};
  accept_message(id, rt_.now(), payload_bytes, core::DeliveryPath::kLocal);
  return id;
}

template <runtime::Context RT>
NodeId PushGossipNodeT<RT>::random_target() {
  GOCAST_ASSERT(rt_.node_count() >= 2);
  for (;;) {
    NodeId target = static_cast<NodeId>(rng_.next_below(rt_.node_count()));
    if (target != id_) return target;
  }
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::accept_message(MsgId id, SimTime inject_time,
                                         std::size_t payload_bytes,
                                         core::DeliveryPath path) {
  auto [it, inserted] = store_.try_emplace(
      id, Stored{inject_time, rt_.now(), payload_bytes, params_.fanout, true});
  GOCAST_ASSERT(inserted);
  ++deliveries_;
  pull_pending_.erase(id);
  if (delivery_hook_) {
    delivery_hook_(core::DeliveryEvent{id_, id, inject_time, rt_.now(), path});
  }
  if (params_.no_wait) gossip_now(id);
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::gossip_now(MsgId id) {
  // Immediately tell `fanout` distinct random nodes.
  auto it = store_.find(id);
  GOCAST_ASSERT(it != store_.end());
  it->second.remaining_fanout = 0;
  std::unordered_set<NodeId> picked;
  int wanted = std::min<int>(params_.fanout,
                             static_cast<int>(rt_.node_count()) - 1);
  while (static_cast<int>(picked.size()) < wanted) {
    picked.insert(random_target());
  }
  for (NodeId target : picked) {
    ++gossips_sent_;
    rt_.send(id_, target,
             rt_.template make<core::GossipDigestMsg>(
                 std::vector<core::DigestEntry>{
                     core::DigestEntry{id, it->second.inject_time}},
                 std::vector<membership::MemberEntry>{},
                 net::PeerDegrees{}));
  }
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::on_gossip_timer() {
  // One digest per period to one random node, containing every ID that
  // still owes gossip rounds; each send consumes one round per ID.
  std::vector<core::DigestEntry> entries;
  for (auto& [id, stored] : store_) {
    if (stored.remaining_fanout > 0 && stored.payload_present) {
      entries.push_back(core::DigestEntry{id, stored.inject_time});
      --stored.remaining_fanout;
    }
  }
  if (entries.empty()) return;  // "a gossip can be saved"
  ++gossips_sent_;
  rt_.send(id_, random_target(),
           rt_.template make<core::GossipDigestMsg>(
               std::move(entries), std::vector<membership::MemberEntry>{},
               net::PeerDegrees{}));
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::on_digest(NodeId from,
                                    const core::GossipDigestMsg& msg) {
  SimTime now = rt_.now();
  for (const core::DigestEntry& entry : msg.entries) {
    if (store_.count(entry.id) > 0) continue;
    if (pull_pending_.count(entry.id) > 0) continue;
    pull_pending_[entry.id] = PullState{from, now, 0};
    issue_pull(from, entry.id);
  }
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::issue_pull(NodeId target, MsgId id) {
  rt_.send(id_, target,
           rt_.template make<core::PullRequestMsg>(id, net::PeerDegrees{}));
  // Self-driven retry: a lost pull or response must not orphan the message.
  rt_.schedule_after(kPullRetryTimeout, [this, id] {
    auto it = pull_pending_.find(id);
    if (it == pull_pending_.end()) return;
    if (store_.count(id) > 0 || !rt_.alive(id_)) {
      pull_pending_.erase(it);
      return;
    }
    if (++it->second.attempts >= kPullMaxAttempts) {
      pull_pending_.erase(it);
      return;
    }
    issue_pull(it->second.target, id);
  });
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::on_pull(NodeId from, const core::PullRequestMsg& msg) {
  for (MsgId id : msg.ids) {
    auto it = store_.find(id);
    if (it == store_.end() || !it->second.payload_present) continue;
    rt_.send(id_, from,
             rt_.template make<core::DataMsg>(
                 id, it->second.inject_time, it->second.payload_bytes,
                 /*via_tree=*/false, net::PeerDegrees{}));
  }
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::on_data(NodeId from, const core::DataMsg& msg) {
  if (store_.count(msg.id) > 0) {
    ++duplicates_;
    // Same abort courtesy as GoCast: a redundant transfer is cut short.
    rt_.report_aborted_transfer(from, id_, msg.payload_bytes);
    return;
  }
  accept_message(msg.id, msg.inject_time, msg.payload_bytes,
                 core::DeliveryPath::kPull);
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::gc_sweep() {
  SimTime now = rt_.now();
  for (auto it = store_.begin(); it != store_.end();) {
    SimTime age = now - it->second.received_at;
    if (age > params_.gc_record_after) {
      it = store_.erase(it);
      continue;
    }
    if (age > params_.gc_payload_after) it->second.payload_present = false;
    ++it;
  }
  for (auto it = pull_pending_.begin(); it != pull_pending_.end();) {
    if (now - it->second.started > params_.gc_payload_after) {
      it = pull_pending_.erase(it);
    } else {
      ++it;
    }
  }
}

template <runtime::Context RT>
void PushGossipNodeT<RT>::handle_message(NodeId from,
                                         const net::MessagePtr& msg) {
  switch (msg->packet_type()) {
    case core::kPktGossipDigest:
      on_digest(from, static_cast<const core::GossipDigestMsg&>(*msg));
      return;
    case core::kPktPullRequest:
      on_pull(from, static_cast<const core::PullRequestMsg&>(*msg));
      return;
    case core::kPktData:
      on_data(from, static_cast<const core::DataMsg&>(*msg));
      return;
    default:
      return;  // baseline ignores anything else
  }
}

template class PushGossipNodeT<runtime::SimRuntime>;
template class PushGossipNodeT<runtime::UdpContext>;

// ---------------------------------------------------------------------------
// System facade
// ---------------------------------------------------------------------------

PushGossipSystem::PushGossipSystem(PushGossipSystemConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  GOCAST_ASSERT(config_.node_count >= 2);
  latency_ = config_.latency != nullptr
                 ? config_.latency
                 : core::default_latency_model(config_.seed);
  network_ = std::make_unique<net::Network>(engine_, latency_, config_.net,
                                            rng_.fork("network"));
  network_->add_nodes_round_robin(config_.node_count);
  nodes_.reserve(config_.node_count);
  for (NodeId id = 0; id < config_.node_count; ++id) {
    nodes_.push_back(std::make_unique<PushGossipNode>(
        id, runtime::SimRuntime(*network_, id), config_.node,
        rng_.fork(static_cast<std::uint64_t>(id))));
  }
}

void PushGossipSystem::start() {
  Rng init_rng = rng_.fork("init");
  for (auto& node : nodes_) {
    node->start(init_rng.next_range(0.0, config_.node.gossip_period));
  }
}

std::vector<NodeId> PushGossipSystem::fail_random_fraction(double fraction) {
  GOCAST_ASSERT(fraction >= 0.0 && fraction <= 1.0);
  std::vector<NodeId> alive = alive_nodes();
  Rng fail_rng = rng_.fork("failures");
  fail_rng.shuffle(alive);
  std::size_t count = static_cast<std::size_t>(
      static_cast<double>(alive.size()) * fraction + 0.5);
  std::vector<NodeId> killed(alive.begin(),
                             alive.begin() + static_cast<long>(count));
  for (NodeId id : killed) nodes_[id]->kill();
  return killed;
}

NodeId PushGossipSystem::random_alive_node() {
  GOCAST_ASSERT(network_->alive_count() > 0);
  for (;;) {
    NodeId id = static_cast<NodeId>(rng_.next_below(nodes_.size()));
    if (network_->alive(id)) return id;
  }
}

void PushGossipSystem::set_delivery_hook(const core::DeliveryHook& hook) {
  for (auto& node : nodes_) node->set_delivery_hook(hook);
}

std::vector<NodeId> PushGossipSystem::alive_nodes() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (network_->alive(id)) out.push_back(id);
  }
  return out;
}

}  // namespace gocast::baselines
