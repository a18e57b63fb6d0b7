// Traffic accounting: global and per-kind counters, plus optional per
// site-pair byte counts feeding the underlay link-stress analysis.
#pragma once

#include <utility>
#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>

#include "net/message.h"

namespace gocast::net {

struct KindCounters {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

class TrafficStats {
 public:
  void record_send(MsgKind kind, std::size_t bytes) {
    ++sent_.messages;
    sent_.bytes += bytes;
    auto& k = per_kind_[static_cast<std::size_t>(kind)];
    ++k.messages;
    k.bytes += bytes;
  }

  void record_delivered() { ++delivered_; }
  void record_dropped_dead() { ++dropped_dead_; }
  void record_lost() { ++lost_; }
  void record_sender_dead() { ++sender_dead_; }
  void record_policy_dropped() { ++policy_dropped_; }

  void record_site_pair(std::uint32_t site_a, std::uint32_t site_b,
                        std::size_t bytes) {
    if (site_a == site_b) return;
    auto key = pack_pair(site_a, site_b);
    site_pair_bytes_[key] += static_cast<double>(bytes);
  }

  [[nodiscard]] const KindCounters& total_sent() const { return sent_; }
  [[nodiscard]] const KindCounters& kind(MsgKind k) const {
    return per_kind_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped_dead() const { return dropped_dead_; }
  [[nodiscard]] std::uint64_t lost() const { return lost_; }
  [[nodiscard]] std::uint64_t sender_dead() const { return sender_dead_; }
  /// Messages a LinkPolicy blocked (partition) or lossily degraded away.
  [[nodiscard]] std::uint64_t policy_dropped() const { return policy_dropped_; }

  /// Per unordered-site-pair byte totals (only populated when the owning
  /// Network was configured with record_site_pairs).
  [[nodiscard]] const std::unordered_map<std::uint64_t, double>&
  site_pair_bytes() const {
    return site_pair_bytes_;
  }

  /// Drops accumulated site-pair traffic (e.g. to exclude warmup traffic
  /// from a link-stress comparison).
  void clear_site_pairs() { site_pair_bytes_.clear(); }

  /// Refunds bytes that were recorded at send time but never actually
  /// crossed the wire (a receiver aborted a redundant transfer, paper §2.1
  /// optimization 1). The refund is a signed delta: in a sharded run the
  /// send was recorded in the sender's shard stats and the refund lands in
  /// the receiver's, and the barrier fold sums the two. Callers clear only
  /// while no data transfer is in flight (the harness clears at injection),
  /// so every refund follows its recorded send and no folded pair total
  /// goes below zero.
  void refund_site_pair(std::uint32_t site_a, std::uint32_t site_b,
                        std::size_t bytes) {
    if (site_a == site_b) return;
    site_pair_bytes_[pack_pair(site_a, site_b)] -= static_cast<double>(bytes);
    aborted_bytes_ += bytes;
  }

  [[nodiscard]] std::uint64_t aborted_bytes() const { return aborted_bytes_; }

  /// Folds another stats object into this one (sharded runs keep one
  /// TrafficStats per shard and fold them into the Network's main stats at
  /// window barriers; see net::Network::fold_shard_traffic).
  void merge_from(const TrafficStats& other) {
    sent_.messages += other.sent_.messages;
    sent_.bytes += other.sent_.bytes;
    for (std::size_t k = 0; k < per_kind_.size(); ++k) {
      per_kind_[k].messages += other.per_kind_[k].messages;
      per_kind_[k].bytes += other.per_kind_[k].bytes;
    }
    delivered_ += other.delivered_;
    dropped_dead_ += other.dropped_dead_;
    lost_ += other.lost_;
    sender_dead_ += other.sender_dead_;
    policy_dropped_ += other.policy_dropped_;
    aborted_bytes_ += other.aborted_bytes_;
    for (const auto& [key, bytes] : other.site_pair_bytes_) {
      site_pair_bytes_[key] += bytes;
    }
  }

  [[nodiscard]] static std::uint64_t pack_pair(std::uint32_t a, std::uint32_t b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(a) << 32) | b;
  }

  [[nodiscard]] std::string report() const;

 private:
  KindCounters sent_;
  std::array<KindCounters, kMsgKindCount> per_kind_{};
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_dead_ = 0;
  std::uint64_t lost_ = 0;
  std::uint64_t sender_dead_ = 0;
  std::uint64_t policy_dropped_ = 0;
  std::uint64_t aborted_bytes_ = 0;
  std::unordered_map<std::uint64_t, double> site_pair_bytes_;
};

}  // namespace gocast::net
