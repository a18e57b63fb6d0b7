// The benchmark's own arithmetic: percentiles with sample counts, SLO rung
// selection, PDES window and imbalance ratios, and per-kind byte totals.
// Header-only and free of simulator state so tests/stats_test.cpp can pin it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

#include "net/traffic_stats.h"

namespace perfbench {

/// Nearest-rank percentile of an ascending-sorted sample, with the number of
/// samples strictly beyond it. A percentile is "supported" when at least ten
/// samples lie beyond it (the rule the benchmark reports tail latency by).
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  [[nodiscard]] bool supported() const { return beyond >= 10; }
};

inline Percentile percentile_sorted(const std::vector<double>& sorted,
                                    double p) {
  Percentile out;
  out.samples = sorted.size();
  if (sorted.empty()) return out;
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  out.value = sorted[idx];
  out.beyond = sorted.size() - idx - 1;
  return out;
}

/// The highest of p50/p90/p99/p99.9/p99.99 that has at least ten samples
/// beyond it (0 when even p50 is unsupported).
inline double highest_supported_percentile(std::size_t samples) {
  double best = 0.0;
  for (double p : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const double rank = std::ceil(p * static_cast<double>(samples));
    if (rank >= 1.0 && static_cast<double>(samples) - rank >= 10.0) best = p;
  }
  return best;
}

/// Median of an unsorted sample (mean of the two middle values when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// One rung of an open-loop multicast ladder.
struct Rung {
  double rate = 0.0;        ///< offered multicasts per simulated second
  double p99 = 0.0;         ///< delivery delay p99 (seconds)
  double delivered = 0.0;   ///< delivered / attempted pairs
};

/// A rung meets the SLO when its p99 is within `p99_bound` and at least
/// `min_delivered` of its pairs arrived.
inline bool rung_meets(const Rung& r, double p99_bound, double min_delivered) {
  return r.p99 <= p99_bound && r.delivered >= min_delivered;
}

/// Highest passing rate of an ascending ladder, refined by linear
/// interpolation of p99 toward the first failing rung above it: a quantised
/// rung would jump a whole step between seeds, the crossing point moves
/// smoothly. Returns the top rate when every rung passes, and 0 when the
/// lowest rung already fails. Rungs above the first failure are ignored.
inline double slo_rate(const std::vector<Rung>& ladder, double p99_bound,
                       double min_delivered) {
  double best = 0.0;
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const Rung& r = ladder[i];
    if (rung_meets(r, p99_bound, min_delivered)) {
      best = r.rate;
      continue;
    }
    if (i == 0) return 0.0;
    const Rung& pass = ladder[i - 1];
    // Only the delay crossing interpolates; a delivery-ratio failure stops
    // at the passing rung.
    if (r.delivered >= min_delivered && r.p99 > pass.p99) {
      const double frac = (p99_bound - pass.p99) / (r.p99 - pass.p99);
      best = pass.rate + std::clamp(frac, 0.0, 1.0) * (r.rate - pass.rate);
    }
    return best;
  }
  return best;
}

/// Max over mean of per-shard event counts (1 = perfectly balanced).
inline double shard_imbalance(const std::vector<std::uint64_t>& per_shard) {
  if (per_shard.empty()) return 0.0;
  const double total = static_cast<double>(
      std::accumulate(per_shard.begin(), per_shard.end(), std::uint64_t{0}));
  if (total == 0.0) return 0.0;
  const double mean = total / static_cast<double>(per_shard.size());
  return static_cast<double>(
             *std::max_element(per_shard.begin(), per_shard.end())) /
         mean;
}

/// Mean window width in units of the lookahead: horizon / windows /
/// lookahead. 1 means every window was exactly one lookahead wide.
inline double window_over_lookahead(double horizon, std::uint64_t windows,
                                    double lookahead) {
  if (windows == 0 || lookahead <= 0.0) return 0.0;
  return horizon / static_cast<double>(windows) / lookahead;
}

/// Sum of the byte counters of `kinds`. Over every kind it equals
/// TrafficStats::total_sent().bytes; over a subset it falls short by the
/// bytes sent under the kinds left out.
inline std::uint64_t kind_bytes(const gocast::net::TrafficStats& t,
                                const std::vector<gocast::net::MsgKind>& kinds) {
  std::uint64_t sum = 0;
  for (gocast::net::MsgKind k : kinds) sum += t.kind(k).bytes;
  return sum;
}

}  // namespace perfbench
