// Records every multicast delivery across the system and produces the delay
// distributions the paper's figures plot. Protocol-agnostic: any system that
// emits core::DeliveryEvent can be tracked.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "gocast/dissemination.h"

namespace gocast::analysis {

class DeliveryTracker {
 public:
  /// `node_count` is the size of the node universe.
  explicit DeliveryTracker(std::size_t node_count);

  /// While recording is off, deliveries of previously unseen messages are
  /// ignored (warmup traffic). Deliveries of already-tracked messages are
  /// always recorded.
  void set_recording(bool on) { recording_ = on; }

  /// The hook to install on every node. The tracker must outlive the run.
  [[nodiscard]] core::DeliveryHook hook();

  void on_delivery(const core::DeliveryEvent& event);

  [[nodiscard]] std::size_t message_count() const { return inject_times_.size(); }
  [[nodiscard]] std::uint64_t delivery_count() const { return deliveries_; }

  struct Report {
    std::size_t messages = 0;
    std::size_t live_nodes = 0;
    /// Fraction of (live node, message) pairs that were delivered.
    double delivered_fraction = 0.0;
    std::size_t undelivered_pairs = 0;
    /// Fraction of live nodes that received every tracked message.
    double nodes_with_all_messages = 0.0;
    Summary delay;  ///< over delivered pairs on live nodes
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    double max_delay = 0.0;
    /// Per-live-node mean delivery delay (for CDFs over nodes); only nodes
    /// that delivered at least one message appear.
    std::vector<double> per_node_mean_delay;
  };

  /// Summarizes deliveries restricted to `live_nodes` (pass all nodes when
  /// none failed).
  [[nodiscard]] Report report(const std::vector<NodeId>& live_nodes) const;

  /// Folds another tracker into this one. Multi-shard runs (DESIGN.md §11)
  /// keep one tracker per shard — each node's deliveries land in its shard's
  /// tracker, single-writer — and merge them at the end. Node rows must be
  /// disjoint; message sets may overlap (counts are summed).
  void merge_from(const DeliveryTracker& other);

  /// FNV-1a digest of everything the delay reports derive from: message and
  /// delivery counts plus, per node in id order, the delivered count and the
  /// delay bit patterns in delivery order. Two runs with equal checksums
  /// produce identical reports; the shard-invariance goldens compare this.
  [[nodiscard]] std::uint64_t checksum() const;

  struct CurvePoint {
    double delay;
    double fraction;
  };

  /// CDF curve over (live node, message) pairs: fraction of pairs delivered
  /// within x seconds. Tops out below 1.0 when some pairs were never
  /// delivered — exactly how the paper's Fig 3 renders gossip losses.
  [[nodiscard]] std::vector<CurvePoint> pair_delay_curve(
      const std::vector<NodeId>& live_nodes, std::size_t points) const;

  /// Approximate heap bytes held by the tracker (per-node delay logs
  /// dominate; the node-based message index is estimated at one bucket
  /// pointer plus one ~48-byte node per message).
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t bytes = msg_index_.bucket_count() * sizeof(void*) +
                        msg_index_.size() * 48 +
                        inject_times_.capacity() * sizeof(SimTime) +
                        per_message_deliveries_.capacity() *
                            sizeof(std::uint32_t) +
                        per_node_.capacity() * sizeof(PerNode);
    for (const PerNode& n : per_node_) {
      bytes += n.delays.capacity() * sizeof(float);
    }
    return bytes;
  }

 private:
  struct PerNode {
    std::uint32_t delivered = 0;
    double delay_sum = 0.0;
    double delay_max = 0.0;
    std::vector<float> delays;  ///< one entry per delivered message
  };

  /// All delays on live nodes, sorted ascending.
  [[nodiscard]] std::vector<double> gather_sorted_delays(
      const std::vector<NodeId>& live_nodes) const;

  std::size_t node_count_;
  bool recording_ = false;

  std::unordered_map<MsgId, std::uint32_t> msg_index_;
  std::vector<SimTime> inject_times_;
  std::vector<std::uint32_t> per_message_deliveries_;
  std::vector<PerNode> per_node_;
  std::uint64_t deliveries_ = 0;
};

}  // namespace gocast::analysis
