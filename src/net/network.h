// Simulated wide-area network. Delivers messages between nodes with one-way
// latencies drawn from a LatencyModel, models node failure (silent drop of
// inbound traffic plus a TCP-reset analogue notification to the sender), and
// accounts traffic for the analysis layer.
//
// The network runs on a sim::ShardedEngine (DESIGN.md §11). Every node lives
// on one shard — shard 0 until assign_shards says otherwise — and every event
// a node causes is admitted with that node's next ordering key, so the pop
// order is the same at any shard count. A serial run is the one-shard case.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "net/endpoint.h"
#include "net/latency_model.h"
#include "net/link_policy.h"
#include "net/message.h"
#include "net/message_pool.h"
#include "net/trace.h"
#include "net/traffic_stats.h"
#include "sim/engine.h"
#include "sim/sharded_engine.h"

namespace gocast::net {

struct NetworkConfig {
  /// One-way latency between two distinct nodes mapped to the same site
  /// (the paper co-locates surplus nodes at measured DNS-server sites).
  SimTime intra_site_one_way = 0.0005;

  /// Probability that a message is silently lost in transit. Neighbor links
  /// are TCP in GoCast, so the default is 0; failure-injection tests raise it
  /// to exercise gossip recovery.
  double loss_probability = 0.0;

  /// Collect per site-pair byte counts for underlay link-stress analysis.
  bool record_site_pairs = false;

  /// Per-node uplink bandwidth in bytes/second; 0 disables transmission
  /// delay (the paper's model). When set, a message's delivery time is
  /// latency + wire_size / bandwidth, and concurrent sends from one node
  /// queue behind each other (a simple fluid uplink model).
  double uplink_bytes_per_second = 0.0;
};

class Network {
 public:
  /// Nodes must stay below kMaxNodes: ordering keys pack the origin id
  /// above a 20-bit counter (see next_order_key).
  static constexpr std::size_t kMaxNodes = std::size_t{1} << 20;

  Network(sim::ShardedEngine& engine,
          std::shared_ptr<const LatencyModel> latency, NetworkConfig config,
          Rng rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node at a site. Endpoints are attached separately so nodes
  /// can be constructed after their ids are known.
  NodeId add_node(std::uint32_t site);

  /// Adds `count` nodes with the default round-robin site mapping
  /// (node i -> site i mod site_count).
  void add_nodes_round_robin(std::size_t count);

  void set_endpoint(NodeId node, Endpoint* endpoint);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] std::uint32_t site_of(NodeId node) const;
  [[nodiscard]] bool alive(NodeId node) const;
  [[nodiscard]] std::size_t alive_count() const { return alive_count_; }

  /// Marks the node dead: inbound traffic is dropped, outbound sends are
  /// suppressed. The owning protocol node must also stop its timers (the
  /// harness calls both together).
  void fail_node(NodeId node);

  /// Brings a previously failed node back (used by churn tests).
  void recover_node(NodeId node);

  /// One-way latency between two nodes (0 for self, intra-site value for
  /// distinct co-located nodes).
  [[nodiscard]] SimTime one_way(NodeId a, NodeId b) const;
  [[nodiscard]] SimTime rtt(NodeId a, NodeId b) const { return 2.0 * one_way(a, b); }

  /// Sends `msg` from `from` to `to`. Drops silently (with accounting) when
  /// the sender is dead; notifies the sender after one RTT when the receiver
  /// is dead.
  void send(NodeId from, NodeId to, MessagePtr msg);

  /// Fan-out: sends `msg` from `from` to every id in targets[0..count) except
  /// `except` (pass kInvalidNode to exclude nobody), in index order.
  /// Byte-identical to the equivalent send() loop.
  void send_multi(NodeId from, const NodeId* targets, std::size_t count,
                  NodeId except, MessagePtr msg);

  /// Constructs a message of type `M` from `owner`'s shard pool (one slab
  /// arena per shard). Steady-state traffic recycles message blocks instead
  /// of hitting the global allocator; the returned pointer is a normal
  /// MessagePtr-compatible shared_ptr (in-flight messages keep the pool
  /// alive on their own). Message types with an arena-first constructor get
  /// the pool passed through, so their variable-length payloads (PoolVec
  /// members) are pooled too. With more than one shard, messages are freed
  /// on other shards' threads, so the arenas run in shared mode.
  template <class M, class... Args>
  [[nodiscard]] std::shared_ptr<const M> make_for(NodeId owner,
                                                  Args&&... args) {
    return make_pooled<M>(pools_[shard_of(owner)],
                          std::forward<Args>(args)...);
  }

  /// Pool telemetry summed over the shard pools (bench reporting).
  struct PoolCounters {
    std::uint64_t reused = 0;
    std::uint64_t fresh = 0;
    std::uint64_t oversized = 0;
    std::size_t chunks = 0;
  };
  [[nodiscard]] PoolCounters pool_counters() const;

  /// Reports that a transfer from `from` to `to` was aborted after `bytes`
  /// of its recorded size turned out redundant (the receiver already had
  /// the message — paper §2.1 optimization 1). Corrects site-pair traffic.
  void report_aborted_transfer(NodeId from, NodeId to, std::size_t bytes);

  /// Installs (or clears, with nullptr) a message-flow observer. The sink
  /// must outlive the network. One-shard runs only (a sink would observe
  /// events out of global order across shard threads).
  void set_trace(TraceSink* sink) {
    GOCAST_ASSERT_MSG(engine_.shard_count() == 1 || sink == nullptr,
                      "trace sinks need a one-shard run");
    trace_ = sink;
  }

  // -- shard placement (DESIGN.md §11) --

  /// Places node `i` on shard `shard_of_node[i]`: sends to another shard
  /// travel through the cross-shard mailboxes. Must be called after all
  /// add_node calls and before any traffic. `draw_seed` keys the stateless
  /// per-sender loss/jitter draws that replace the rng_ stream when the run
  /// has more than one shard (see DESIGN.md §11 for why draws must be
  /// per-origin there).
  void assign_shards(std::vector<std::uint16_t> shard_of_node,
                     std::uint64_t draw_seed);
  [[nodiscard]] std::uint16_t shard_of(NodeId node) const {
    return shard_of_[node];
  }

  /// The shard engine that runs `node`'s events.
  [[nodiscard]] sim::Engine& engine_of(NodeId node) {
    return engine_.shard(shard_of_[node]);
  }

  /// Next ordering key for an event caused by `origin`: (origin << 20) |
  /// per-origin counter. Each origin's admissions happen in its own program
  /// order — which is shard-count-invariant — so the packed (time, key)
  /// order the engines pop in is byte-identical at any K. Counter wrap at
  /// 2^20 is benign for correctness (the engine's slot bits keep tags
  /// unique) and unreachable for same-(origin, time) pairs.
  [[nodiscard]] std::uint64_t next_order_key(NodeId origin) {
    GOCAST_ASSERT(origin < nodes_.size());
    NodeRecord& rec = nodes_[origin];
    return (static_cast<std::uint64_t>(origin) << 20) |
           (rec.order_ctr++ & 0xFFFFFu);
  }

  /// Folds per-shard traffic counters into the main TrafficStats (barrier
  /// context only). No-op with one shard, whose sends account directly.
  void fold_shard_traffic();

  /// Installs (or clears, with nullptr) a per-link policy consulted on every
  /// send (partitions, degraded links — see net/link_policy.h). The policy
  /// must outlive the network.
  void set_link_policy(const LinkPolicy* policy) { policy_ = policy; }

  /// Changes the global loss probability at runtime (fault injection).
  void set_loss_probability(double p);

  /// Child generator derived from this network's seed material. Forking is
  /// independent of the network's own consumption, so runtime backends can
  /// hand out per-node streams without perturbing loss/latency draws.
  [[nodiscard]] Rng fork_rng(std::uint64_t salt) const {
    return rng_.fork(salt);
  }

  /// Approximate heap bytes owned by the network (node records, message
  /// pool slabs). The engine is counted separately.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = nodes_.capacity() * sizeof(NodeRecord);
    for (const auto& pool : pools_) bytes += pool->memory_bytes();
    bytes += shard_of_.capacity() * sizeof(std::uint16_t);
    return bytes;
  }

  [[nodiscard]] const LatencyModel& latency_model() const { return *latency_; }
  [[nodiscard]] TrafficStats& traffic() { return traffic_; }
  [[nodiscard]] const TrafficStats& traffic() const { return traffic_; }
  [[nodiscard]] const NetworkConfig& config() const { return config_; }

 private:
  struct NodeRecord {
    Endpoint* endpoint = nullptr;
    std::uint32_t site = 0;
    bool alive = true;
    /// When the node's uplink frees up (fluid queueing model).
    SimTime uplink_free_at = 0.0;
    /// Both written exclusively by the owning shard's thread (or at
    /// barriers). Ordering-key counter and (multi-shard runs) stateless-draw
    /// counter (see next_order_key / prf_uniform).
    std::uint32_t order_ctr = 0;
    std::uint32_t draw_ctr = 0;
  };

  /// Computes a target's admission at the sender's time `now` — stats,
  /// trace, site pairs, link policy and loss draws, latency/jitter/uplink
  /// delay — and returns false when the message is dropped before the wire.
  /// On true, `delay` holds the delivery delay. Shared by send() and
  /// send_multi(); the sender must be alive.
  bool admit(NodeId from, NodeId to, const MessagePtr& msg, SimTime now,
             SimTime& delay);

  /// Delivery-time handling: hand to the endpoint, or account the dead
  /// receiver and schedule the TCP-reset-analogue notification.
  void deliver(NodeId from, NodeId to, const MessagePtr& msg);

  /// Schedules `cb` at `at` on `dst_shard` with `origin`'s next order key —
  /// directly when the origin owns the shard, via the mailbox otherwise.
  void route(NodeId origin, std::uint16_t dst_shard, SimTime at,
             sim::InlineCallback cb);

  /// The stats that events on `node`'s shard account into: traffic_ itself
  /// with one shard, else that shard's own counters.
  [[nodiscard]] TrafficStats& stats_of(NodeId node) {
    return shard_traffic_.empty() ? traffic_ : shard_traffic_[shard_of_[node]];
  }

  // The run's randomness seam. One shard draws from rng_ in send order (the
  // historical stream); more shards draw from per-origin streams (see
  // prf_uniform), whose outcomes do not depend on how sends from different
  // origins interleave.
  /// True with probability `p`, drawn for a send by `origin`.
  [[nodiscard]] bool chance(NodeId origin, double p);
  /// Uniform delay in [0, max), drawn for a send by `origin`.
  [[nodiscard]] SimTime jitter(NodeId origin, SimTime max);
  /// Stateless uniform [0,1) draw keyed by (draw_seed, origin, counter).
  [[nodiscard]] double prf_uniform(NodeId origin);

  sim::ShardedEngine& engine_;
  std::shared_ptr<const LatencyModel> latency_;
  NetworkConfig config_;
  Rng rng_;
  std::vector<NodeRecord> nodes_;
  std::size_t alive_count_ = 0;
  TrafficStats traffic_;
  TraceSink* trace_ = nullptr;
  const LinkPolicy* policy_ = nullptr;

  std::vector<std::uint16_t> shard_of_;
  /// Multi-shard runs only: one stats object per shard, written only by the
  /// owning shard's thread; folded into traffic_ at barriers. Senders
  /// account into their own shard's stats, deliveries into the receiver's.
  std::vector<TrafficStats> shard_traffic_;
  /// One arena per shard (shared-mode mutex armed for cross-thread frees
  /// when there is more than one).
  std::vector<std::shared_ptr<MessageArena>> pools_;
  std::uint64_t draw_seed_ = 0;
};

}  // namespace gocast::net
