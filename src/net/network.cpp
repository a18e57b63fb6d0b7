#include "net/network.h"

#include <algorithm>
#include <utility>

#include "common/assert.h"
#include "common/logging.h"

namespace gocast::net {

Network::Network(sim::Engine& engine, std::shared_ptr<const LatencyModel> latency,
                 NetworkConfig config, Rng rng)
    : engine_(engine),
      latency_(std::move(latency)),
      config_(config),
      rng_(std::move(rng)) {
  GOCAST_ASSERT(latency_ != nullptr);
  GOCAST_ASSERT(config_.intra_site_one_way >= 0.0);
  GOCAST_ASSERT(config_.loss_probability >= 0.0 && config_.loss_probability < 1.0);
  GOCAST_ASSERT(config_.uplink_bytes_per_second >= 0.0);
}

NodeId Network::add_node(std::uint32_t site) {
  GOCAST_ASSERT_MSG(site < latency_->site_count(),
                    "site " << site << " out of range");
  NodeId id = static_cast<NodeId>(nodes_.size());
  nodes_.push_back(NodeRecord{nullptr, site, true});
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
    traffic_.refund_site_pair(nodes_[from].site, nodes_[to].site, bytes);
  }
}

void Network::enable_sharding(sim::ShardedEngine& sharded,
                              std::vector<std::uint16_t> shard_of_node,
                              std::uint64_t draw_seed) {
  GOCAST_ASSERT_MSG(sharded_engine_ == nullptr, "already sharded");
  GOCAST_ASSERT_MSG(trace_ == nullptr,
                    "trace sinks are unsupported in sharded runs");
  GOCAST_ASSERT_MSG(!config_.record_site_pairs,
                    "site-pair accounting is unsupported in sharded runs");
  GOCAST_ASSERT(shard_of_node.size() == nodes_.size());
  // next_order_key packs the origin above a 20-bit counter.
  GOCAST_ASSERT_MSG(nodes_.size() < (std::size_t{1} << 20),
                    "sharded runs support < 2^20 nodes");
  for (std::uint16_t s : shard_of_node) {
    GOCAST_ASSERT(s < sharded.shard_count());
  }
  sharded_engine_ = &sharded;
  shard_of_ = std::move(shard_of_node);
  draw_seed_ = draw_seed;
  shard_traffic_.resize(sharded.shard_count());
  shard_pools_.reserve(sharded.shard_count());
  for (std::size_t k = 0; k < sharded.shard_count(); ++k) {
    shard_pools_.push_back(std::make_shared<MessageArena>());
    shard_pools_.back()->set_shared(true);
  }
}

void Network::fold_shard_traffic() {
  for (TrafficStats& stats : shard_traffic_) {
    traffic_.merge_from(stats);
    stats = TrafficStats{};
  }
}

Network::PoolCounters Network::pool_counters() const {
  PoolCounters c{pool_->reused(), pool_->fresh(), pool_->oversized(),
                 pool_->chunks()};
  for (const auto& pool : shard_pools_) {
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

void Network::route_sharded(NodeId origin, std::uint16_t dst_shard, SimTime at,
                            sim::InlineCallback cb) {
  const std::uint16_t src_shard = shard_of_[origin];
  const std::uint64_t key = next_order_key(origin);
  if (src_shard == dst_shard) {
    sharded_engine_->shard(dst_shard).schedule_at_ordered(at, key,
                                                          std::move(cb));
  } else {
    sharded_engine_->post(src_shard, dst_shard, at, key, std::move(cb));
  }
}

void Network::send_sharded(NodeId from, NodeId to, MessagePtr msg) {
  if (!nodes_[from].alive) {
    shard_traffic_[shard_of_[from]].record_sender_dead();
    return;
  }
  SimTime delay = 0.0;
  if (!admit_sharded(from, to, msg, delay)) return;
  const SimTime at = engine_of(from).now() + delay;
  route_sharded(from, shard_of_[to], at,
                sim::InlineCallback([this, from, to, msg = std::move(msg)] {
                  deliver(from, to, msg);
                }));
}

bool Network::admit_sharded(NodeId from, NodeId to, const MessagePtr& msg,
                            SimTime& delay) {
  GOCAST_ASSERT_MSG(from != to, "node " << from << " sending to itself");
  TrafficStats& stats = shard_traffic_[shard_of_[from]];
  stats.record_send(msg->kind(), msg->wire_size());

  LinkDecision link;
  if (policy_ != nullptr) link = policy_->evaluate(from, to);
  if (link.blocked ||
      (link.extra_loss > 0.0 && prf_uniform(from) < link.extra_loss)) {
    stats.record_policy_dropped();
    return false;
  }
  if (config_.loss_probability > 0.0 &&
      prf_uniform(from) < config_.loss_probability) {
    stats.record_lost();
    return false;
  }

  delay = one_way(from, to);
  if (link.latency_multiplier != 1.0) {
    // A multiplier below 1 would undercut the cross-shard lookahead bound.
    GOCAST_ASSERT_MSG(link.latency_multiplier >= 1.0,
                      "sharded runs require latency multipliers >= 1, got "
                          << link.latency_multiplier);
    delay *= link.latency_multiplier;
  }
  if (link.jitter > 0.0) delay += prf_uniform(from) * link.jitter;
  if (config_.uplink_bytes_per_second > 0.0) {
    NodeRecord& sender = nodes_[from];
    const SimTime now = engine_of(from).now();
    SimTime start = std::max(now, sender.uplink_free_at);
    SimTime serialize =
        static_cast<double>(msg->wire_size()) / config_.uplink_bytes_per_second;
    sender.uplink_free_at = start + serialize;
    delay += (sender.uplink_free_at - now);
  }
  return true;
}

void Network::send(NodeId from, NodeId to, MessagePtr msg) {
  GOCAST_ASSERT(from < nodes_.size() && to < nodes_.size());
  GOCAST_ASSERT(msg != nullptr);
  GOCAST_ASSERT_MSG(from != to, "node " << from << " sending to itself");

  if (sharded_engine_ != nullptr) {
    send_sharded(from, to, std::move(msg));
    return;
  }

  if (!nodes_[from].alive) {
    traffic_.record_sender_dead();
    return;
  }

  SimTime delay = 0.0;
  if (!admit(from, to, msg, delay)) return;
  engine_.schedule_after(delay, [this, from, to, msg = std::move(msg)] {
    deliver(from, to, msg);
  });
}

void Network::send_multi(NodeId from, const NodeId* targets, std::size_t count,
                         NodeId except, MessagePtr msg) {
  GOCAST_ASSERT(from < nodes_.size());
  GOCAST_ASSERT(msg != nullptr);

  if (sharded_engine_ != nullptr) {
    // Per-target routing instead of schedule_batch: cross-shard ordering is
    // carried by the per-origin keys, so the batched admission would buy
    // nothing and the targets may live on different engines anyway.
    if (!nodes_[from].alive) {
      TrafficStats& stats = shard_traffic_[shard_of_[from]];
      for (std::size_t i = 0; i < count; ++i) {
        if (targets[i] != except) stats.record_sender_dead();
      }
      return;
    }
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId to = targets[i];
      if (to == except) continue;
      GOCAST_ASSERT(to < nodes_.size());
      SimTime delay = 0.0;
      if (!admit_sharded(from, to, msg, delay)) continue;
      route_sharded(from, shard_of_[to], engine_of(from).now() + delay,
                    sim::InlineCallback(
                        [this, from, to, msg] { deliver(from, to, msg); }));
    }
    return;
  }

  if (!nodes_[from].alive) {
    // Matches the equivalent send() loop: one sender-dead record per target.
    for (std::size_t i = 0; i < count; ++i) {
      if (targets[i] != except) traffic_.record_sender_dead();
    }
    return;
  }

  batch_scratch_.clear();
  batch_scratch_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId to = targets[i];
    if (to == except) continue;
    GOCAST_ASSERT(to < nodes_.size());
    SimTime delay = 0.0;
    if (!admit(from, to, msg, delay)) continue;
    batch_scratch_.push_back(
        {engine_.now() + delay,
         sim::InlineCallback([this, from, to, msg] { deliver(from, to, msg); })});
  }
  engine_.schedule_batch(batch_scratch_);
  batch_scratch_.clear();
}

bool Network::admit(NodeId from, NodeId to, const MessagePtr& msg,
                    SimTime& delay) {
  GOCAST_ASSERT_MSG(from != to, "node " << from << " sending to itself");

  std::size_t bytes = msg->wire_size();
  traffic_.record_send(msg->kind(), bytes);
  if (trace_ != nullptr) trace_->on_send(engine_.now(), from, to, *msg);
  if (config_.record_site_pairs) {
    traffic_.record_site_pair(nodes_[from].site, nodes_[to].site, bytes);
  }

  LinkDecision link;
  if (policy_ != nullptr) link = policy_->evaluate(from, to);
  if (link.blocked ||
      (link.extra_loss > 0.0 && rng_.next_bool(link.extra_loss))) {
    // Partition blackhole / degraded-link loss: silent (no TCP reset — a
    // partitioned peer is unreachable, not provably dead).
    traffic_.record_policy_dropped();
    if (trace_ != nullptr) {
      trace_->on_drop(engine_.now(), from, to, *msg, DropReason::kLinkPolicy);
    }
    return false;
  }

  if (config_.loss_probability > 0.0 && rng_.next_bool(config_.loss_probability)) {
    traffic_.record_lost();
    if (trace_ != nullptr) {
      trace_->on_drop(engine_.now(), from, to, *msg, DropReason::kRandomLoss);
    }
    return false;
  }

  delay = one_way(from, to);
  if (link.latency_multiplier != 1.0) {
    GOCAST_ASSERT(link.latency_multiplier > 0.0);
    delay *= link.latency_multiplier;
  }
  if (link.jitter > 0.0) delay += rng_.next_range(0.0, link.jitter);
  if (config_.uplink_bytes_per_second > 0.0) {
    // Fluid uplink: serialization queues behind earlier sends.
    NodeRecord& sender = nodes_[from];
    SimTime start = std::max(engine_.now(), sender.uplink_free_at);
    SimTime serialize = static_cast<double>(bytes) / config_.uplink_bytes_per_second;
    sender.uplink_free_at = start + serialize;
    delay += (sender.uplink_free_at - engine_.now());
  }
  return true;
}

void Network::deliver(NodeId from, NodeId to, const MessagePtr& msg) {
  NodeRecord& target = nodes_[to];
  const bool sharded = sharded_engine_ != nullptr;
  // Sharded runs account deliveries into the receiver's shard stats (this
  // code runs on the receiver's thread).
  TrafficStats& stats = sharded ? shard_traffic_[shard_of_[to]] : traffic_;
  if (target.alive && target.endpoint != nullptr) {
    stats.record_delivered();
    if (trace_ != nullptr) trace_->on_deliver(engine_.now(), from, to, *msg);
    target.endpoint->handle_message(from, msg);
    return;
  }
  stats.record_dropped_dead();
  if (trace_ != nullptr) {
    trace_->on_drop(engine_.now(), from, to, *msg, DropReason::kDeadReceiver);
  }
  // The reset notification takes another one-way trip back.
  auto notify = [this, from, to, msg] {
    NodeRecord& s = nodes_[from];
    if (s.alive && s.endpoint != nullptr) {
      s.endpoint->handle_send_failure(to, msg);
    }
  };
  if (sharded) {
    // Runs on the dead receiver's shard: the key comes from the receiver's
    // own counter (its program order is shard-invariant), and the trip back
    // covers the cross-shard lookahead bound.
    route_sharded(to, shard_of_[from], engine_of(to).now() + one_way(from, to),
                  sim::InlineCallback(std::move(notify)));
    return;
  }
  engine_.schedule_after(one_way(from, to), std::move(notify));
}

}  // namespace gocast::net
