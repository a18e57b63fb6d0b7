// Node-global suspicion/eviction state (DESIGN.md §9), factored out of the
// dissemination layer so that every per-group Dissemination instance on a
// multi-group node shares ONE ledger: evidence against a neighbor observed
// in any group counts against it everywhere, and an eviction (an overlay
// action) is naturally node-scoped. Single-group deployments keep a private
// ledger inside their lone Dissemination — same behavior, same bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace gocast::core {

struct SuspicionLedger {
  struct State {
    double score = 0.0;
    SimTime updated = 0.0;
  };
  struct Eviction {
    NodeId peer;
    SimTime at;
  };

  /// Per-neighbor contribution ledger for clique-aware eviction
  /// (DefenseProfile::kFull). Tracks, inside the current cover window
  /// (kCoverWindow), what the neighbor volunteered (digest entries + tree
  /// pushes) versus merely served on demand (pull answers), plus the strike
  /// count across windows. Unlike `scores`, strikes survive answered audits:
  /// an audit answer proves liveness, not contribution, and wiping cover
  /// evidence on it is exactly the exploit cliques use.
  struct CoverState {
    SimTime window_start = 0.0;
    std::uint64_t deliveries_at_start = 0;  ///< owner's delivery counter
    std::uint32_t volunteered = 0;
    std::uint32_t served = 0;
    std::uint32_t strikes = 0;
  };

  common::FlatMap<NodeId, State> scores;
  common::FlatMap<NodeId, CoverState> cover;
  /// Suspicion-threshold evictions, with timestamps (time-to-evict analysis
  /// in bench/ext_byzantine). Cover-evidence evictions land here too.
  std::vector<Eviction> evictions;

  [[nodiscard]] std::size_t memory_bytes() const {
    return scores.memory_bytes() + cover.memory_bytes() +
           evictions.capacity() * sizeof(Eviction);
  }
};

}  // namespace gocast::core
