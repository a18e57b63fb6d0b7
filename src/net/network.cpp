#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/logging.h"

namespace gocast::net {

Network::Network(sim::ShardedEngine& engine,
                 std::shared_ptr<const LatencyModel> latency,
                 NetworkConfig config, Rng rng)
    : engine_(engine),
      latency_(std::move(latency)),
      config_(config),
      rng_(std::move(rng)) {
  GOCAST_ASSERT(latency_ != nullptr);
  GOCAST_ASSERT(config_.intra_site_one_way >= 0.0);
  GOCAST_ASSERT(config_.loss_probability >= 0.0 && config_.loss_probability < 1.0);
  GOCAST_ASSERT(config_.uplink_bytes_per_second >= 0.0);
  const std::size_t shards = engine_.shard_count();
  if (shards > 1) shard_traffic_.resize(shards);
  pools_.reserve(shards);
  for (std::size_t k = 0; k < shards; ++k) {
    pools_.push_back(std::make_shared<MessageArena>());
    pools_.back()->set_shared(shards > 1);
  }
}

NodeId Network::add_node(std::uint32_t site) {
  GOCAST_ASSERT_MSG(site < latency_->site_count(),
                    "site " << site << " out of range");
  GOCAST_ASSERT_MSG(nodes_.size() < kMaxNodes,
                    "at most " << kMaxNodes << " nodes (ordering-key width)");
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRecord{nullptr, site, true});
  shard_of_.push_back(0);
  ++alive_count_;
  return id;
}

void Network::add_nodes_round_robin(std::size_t count) {
  auto sites = static_cast<std::uint32_t>(latency_->site_count());
  for (std::size_t i = 0; i < count; ++i) {
    add_node(static_cast<std::uint32_t>(nodes_.size()) % sites);
  }
}

void Network::set_endpoint(NodeId node, Endpoint* endpoint) {
  GOCAST_ASSERT(node < nodes_.size());
  nodes_[node].endpoint = endpoint;
}

std::uint32_t Network::site_of(NodeId node) const {
  GOCAST_ASSERT(node < nodes_.size());
  return nodes_[node].site;
}

bool Network::alive(NodeId node) const {
  GOCAST_ASSERT(node < nodes_.size());
  return nodes_[node].alive;
}

void Network::fail_node(NodeId node) {
  GOCAST_ASSERT(node < nodes_.size());
  if (!nodes_[node].alive) return;
  nodes_[node].alive = false;
  GOCAST_ASSERT(alive_count_ > 0);
  --alive_count_;
}

void Network::recover_node(NodeId node) {
  GOCAST_ASSERT(node < nodes_.size());
  if (nodes_[node].alive) return;
  nodes_[node].alive = true;
  ++alive_count_;
}

SimTime Network::one_way(NodeId a, NodeId b) const {
  GOCAST_ASSERT(a < nodes_.size() && b < nodes_.size());
  if (a == b) return 0.0;
  std::uint32_t sa = nodes_[a].site;
  std::uint32_t sb = nodes_[b].site;
  if (sa == sb) return config_.intra_site_one_way;
  return latency_->one_way(sa, sb);
}

void Network::set_loss_probability(double p) {
  GOCAST_ASSERT(p >= 0.0 && p < 1.0);
  config_.loss_probability = p;
}

void Network::report_aborted_transfer(NodeId from, NodeId to, std::size_t bytes) {
  GOCAST_ASSERT(from < nodes_.size() && to < nodes_.size());
  if (config_.record_site_pairs) {
    // The receiver aborts, so the refund accrues in its shard.
    stats_of(to).refund_site_pair(nodes_[from].site, nodes_[to].site, bytes);
  }
}

void Network::assign_shards(std::vector<std::uint16_t> shard_of_node,
                            std::uint64_t draw_seed) {
  GOCAST_ASSERT(shard_of_node.size() == nodes_.size());
  for (std::uint16_t s : shard_of_node) {
    GOCAST_ASSERT(s < engine_.shard_count());
  }
  shard_of_ = std::move(shard_of_node);
  draw_seed_ = draw_seed;
}

void Network::fold_shard_traffic() {
  for (TrafficStats& stats : shard_traffic_) {
    traffic_.merge_from(stats);
    stats = TrafficStats{};
  }
}

Network::PoolCounters Network::pool_counters() const {
  PoolCounters c;
  for (const auto& pool : pools_) {
    c.reused += pool->reused();
    c.fresh += pool->fresh();
    c.oversized += pool->oversized();
    c.chunks += pool->chunks();
  }
  return c;
}

double Network::prf_uniform(NodeId origin) {
  // splitmix64 over (seed, origin, per-origin counter): every origin gets an
  // independent stream consumed in its own program order, so draw outcomes
  // do not depend on how sends from different origins interleave.
  std::uint64_t state = draw_seed_ ^
                        (0x9e3779b97f4a7c15ULL *
                         (static_cast<std::uint64_t>(origin) + 1)) ^
                        (static_cast<std::uint64_t>(nodes_[origin].draw_ctr++)
                         << 32);
  const std::uint64_t x = splitmix64(state);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

bool Network::chance(NodeId origin, double p) {
  return engine_.shard_count() == 1 ? rng_.next_bool(p)
                                    : prf_uniform(origin) < p;
}

SimTime Network::jitter(NodeId origin, SimTime max) {
  return engine_.shard_count() == 1 ? rng_.next_range(0.0, max)
                                    : prf_uniform(origin) * max;
}

void Network::route(NodeId origin, std::uint16_t dst_shard, SimTime at,
                    sim::InlineCallback cb) {
  const std::uint16_t src_shard = shard_of_[origin];
  const std::uint64_t key = next_order_key(origin);
  if (src_shard == dst_shard) {
    engine_.shard(dst_shard).schedule_at_ordered(at, key, std::move(cb));
  } else {
    engine_.post(src_shard, dst_shard, at, key, std::move(cb));
  }
}

void Network::send(NodeId from, NodeId to, MessagePtr msg) {
  GOCAST_ASSERT(from < nodes_.size() && to < nodes_.size());
  GOCAST_ASSERT(msg != nullptr);
  GOCAST_ASSERT_MSG(from != to, "node " << from << " sending to itself");
  if (!nodes_[from].alive) {
    stats_of(from).record_sender_dead();
    return;
  }
  const SimTime now = engine_of(from).now();
  SimTime delay = 0.0;
  if (!admit(from, to, msg, now, delay)) return;
  route(from, shard_of_[to], now + delay,
        sim::InlineCallback([this, from, to, msg = std::move(msg)] {
          deliver(from, to, msg);
        }));
}

void Network::send_multi(NodeId from, const NodeId* targets, std::size_t count,
                         NodeId except, MessagePtr msg) {
  GOCAST_ASSERT(from < nodes_.size());
  GOCAST_ASSERT(msg != nullptr);
  if (!nodes_[from].alive) {
    // Matches the equivalent send() loop: one sender-dead record per target.
    TrafficStats& stats = stats_of(from);
    for (std::size_t i = 0; i < count; ++i) {
      if (targets[i] != except) stats.record_sender_dead();
    }
    return;
  }
  const SimTime now = engine_of(from).now();
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId to = targets[i];
    if (to == except) continue;
    GOCAST_ASSERT(to < nodes_.size());
    SimTime delay = 0.0;
    if (!admit(from, to, msg, now, delay)) continue;
    route(from, shard_of_[to], now + delay,
          sim::InlineCallback(
              [this, from, to, msg] { deliver(from, to, msg); }));
  }
}

bool Network::admit(NodeId from, NodeId to, const MessagePtr& msg,
                    SimTime now, SimTime& delay) {
  GOCAST_ASSERT_MSG(from != to, "node " << from << " sending to itself");

  std::size_t bytes = msg->wire_size();
  TrafficStats& stats = stats_of(from);
  stats.record_send(msg->kind(), bytes);
  if (trace_ != nullptr) trace_->on_send(now, from, to, *msg);
  if (config_.record_site_pairs) {
    stats.record_site_pair(nodes_[from].site, nodes_[to].site, bytes);
  }

  LinkDecision link;
  if (policy_ != nullptr) link = policy_->evaluate(from, to);
  if (link.blocked ||
      (link.extra_loss > 0.0 && chance(from, link.extra_loss))) {
    // Partition blackhole / degraded-link loss: silent (no TCP reset — a
    // partitioned peer is unreachable, not provably dead).
    stats.record_policy_dropped();
    if (trace_ != nullptr) {
      trace_->on_drop(now, from, to, *msg, DropReason::kLinkPolicy);
    }
    return false;
  }

  if (config_.loss_probability > 0.0 &&
      chance(from, config_.loss_probability)) {
    stats.record_lost();
    if (trace_ != nullptr) {
      trace_->on_drop(now, from, to, *msg, DropReason::kRandomLoss);
    }
    return false;
  }

  delay = one_way(from, to);
  if (link.latency_multiplier != 1.0) {
    GOCAST_ASSERT(link.latency_multiplier > 0.0);
    // A multiplier below 1 would undercut the cross-shard lookahead bound.
    GOCAST_ASSERT_MSG(link.latency_multiplier >= 1.0 ||
                          engine_.shard_count() == 1,
                      "multi-shard runs require latency multipliers >= 1, got "
                          << link.latency_multiplier);
    delay *= link.latency_multiplier;
  }
  if (link.jitter > 0.0) delay += jitter(from, link.jitter);
  if (config_.uplink_bytes_per_second > 0.0) {
    // Fluid uplink: serialization queues behind earlier sends.
    NodeRecord& sender = nodes_[from];
    SimTime start = std::max(now, sender.uplink_free_at);
    SimTime serialize = static_cast<double>(bytes) / config_.uplink_bytes_per_second;
    sender.uplink_free_at = start + serialize;
    delay += (sender.uplink_free_at - now);
  }
  return true;
}

void Network::deliver(NodeId from, NodeId to, const MessagePtr& msg) {
  NodeRecord& target = nodes_[to];
  // Deliveries account into the receiver's shard stats (this code runs on
  // the receiver's thread).
  TrafficStats& stats = stats_of(to);
  if (target.alive && target.endpoint != nullptr) {
    stats.record_delivered();
    if (trace_ != nullptr) {
      trace_->on_deliver(engine_of(to).now(), from, to, *msg);
    }
    target.endpoint->handle_message(from, msg);
    return;
  }
  const SimTime now = engine_of(to).now();
  stats.record_dropped_dead();
  if (trace_ != nullptr) {
    trace_->on_drop(now, from, to, *msg, DropReason::kDeadReceiver);
  }
  // The reset notification takes another one-way trip back. It runs on the
  // dead receiver's shard: the key comes from the receiver's own counter (its
  // program order is shard-invariant), and the trip back covers the
  // cross-shard lookahead bound.
  route(to, shard_of_[from], now + one_way(from, to),
        sim::InlineCallback([this, from, to, msg] {
          NodeRecord& s = nodes_[from];
          if (s.alive && s.endpoint != nullptr) {
            s.endpoint->handle_send_failure(to, msg);
          }
        }));
}

}  // namespace gocast::net
