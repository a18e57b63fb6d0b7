// Experiment harness: builds a system for any of the five evaluated
// protocols, runs the paper's phases (warmup → optional failure → message
// injection → drain), and returns delay/traffic reports.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/delivery_tracker.h"
#include "common/types.h"
#include "gocast/params.h"
#include "net/latency_model.h"
#include "net/traffic_stats.h"

namespace gocast::harness {

/// The five protocols of the paper's Fig 3.
enum class Protocol {
  kGoCast,            ///< full protocol: tree + neighbor gossip
  kProximityOverlay,  ///< GoCast overlay, gossip-only (no tree)
  kRandomOverlay,     ///< 6 random neighbors, gossip-only
  kPushGossip,        ///< Bimodal-style push gossip, fanout F
  kNoWaitGossip,      ///< push gossip with zero gossip period
};

[[nodiscard]] const char* protocol_name(Protocol protocol);

struct ScenarioConfig {
  Protocol protocol = Protocol::kGoCast;
  std::size_t node_count = 1024;
  std::uint64_t seed = 1;

  /// Overlay/tree adaptation time before any message is injected (the paper
  /// uses 500 s; the benches default to less — convergence is mostly done
  /// by 100 s, see Fig 5b).
  SimTime warmup = 300.0;

  std::size_t message_count = 200;
  double message_rate = 100.0;  ///< messages per second, random sources
  std::size_t payload_bytes = 1024;

  /// Nodes created but not started: they come online later through the
  /// fault plan's `flash:` / `session:` join events (trace-driven churn).
  /// They count as dead until joined. GoCast-family protocols only.
  std::size_t deferred_nodes = 0;

  /// Fraction of nodes killed right after warmup (0 = no failures).
  double fail_fraction = 0.0;
  /// Fig 3(b): freeze all repair after the failure.
  bool freeze_after_failure = true;

  /// Time to keep simulating after the last injection.
  SimTime drain = 30.0;

  /// GoCast pull-delay threshold f (seconds).
  SimTime pull_delay_threshold = 0.0;

  /// Baseline gossip fanout F.
  int fanout = 5;

  /// Overlay targets (GoCast-family protocols). kRandomOverlay overrides
  /// these to 6 random / 0 nearby internally.
  int target_rand_degree = 1;
  int target_near_degree = 5;

  /// Shared latency model (null → synthetic King from the seed). Passing
  /// one model across runs makes protocol comparisons apples-to-apples and
  /// skips regeneration.
  std::shared_ptr<const net::LatencyModel> latency;

  /// Collect per site-pair traffic for link-stress analysis (TXT4).
  bool record_site_pairs = false;

  /// Sharded conservative-PDES execution (DESIGN.md §11): run the system on
  /// this many engines synchronized in lookahead windows. 1 (the default) is
  /// the serial run. Every protocol and scenario shards; only a single-site
  /// latency model or a sub-floor lookahead warns and runs one shard
  /// (core::DeploymentConfig::shard_count). Lossless results are
  /// byte-identical at any shard count.
  std::size_t shards = 1;

  /// Scripted fault timeline in the compact spec grammar (see
  /// fault::FaultPlan::parse); times are absolute sim times, so events meant
  /// for the injection phase go after `warmup`. Empty = no faults.
  /// GoCast-family protocols only.
  std::string fault_spec;

  /// Run the fault::InvariantChecker alongside the scenario and report its
  /// violations in the result. GoCast-family protocols only.
  bool check_invariants = false;

  /// Protocol-level defenses against adversarial neighbors (DESIGN.md §9).
  /// GoCast-family protocols only.
  core::DefenseProfile defense = core::DefenseProfile::kOff;

  /// Global per-message loss probability active for the whole run (0 = no
  /// loss). Unlike a `loss` fault event this applies from t=0.
  double loss_probability = 0.0;

  /// Byzantine runs: source traffic at honest nodes only and compute the
  /// delivery report over honest nodes only. The service guarantee under
  /// attack concerns honest participants — an ostracized adversary that can
  /// neither multicast nor receive is the defense working, not a delivery
  /// failure. No effect unless the fault spec creates adversaries.
  bool exclude_adversaries = false;

  /// When > 0: sample adversary_free_fraction at this absolute sim time
  /// (typically the end of the traffic window) instead of at the end of the
  /// run. Eviction coverage is only meaningful while traffic flows — during
  /// a silent drain there is no evidence against a re-connecting adversary,
  /// so an end-of-run snapshot understates what the defenses achieved.
  SimTime coverage_probe_at = 0.0;

  /// Multi-group topology in the GroupTopology spec grammar (e.g.
  /// "groups=8;zipf=0.9;pop=0.6;corr=0.25;churn=1.0" — see
  /// core::GroupTopology::parse). Empty or groups=1 keeps the run
  /// single-group and byte-identical to the pre-multigroup harness. Each
  /// injected message targets a group drawn Zipf-style by popularity, from a
  /// random alive member of that group. GoCast-family protocols only.
  std::string group_spec;

  /// Multi-group runs: multiplex co-subscribed groups' digests into one
  /// grouped gossip per period (the §10 optimization). False sends one
  /// gossip per group per period — the baseline ext_multigroup compares
  /// against. Ignored for single-group runs.
  bool multiplex_gossip = true;
};

struct ScenarioResult {
  analysis::DeliveryTracker::Report report;
  std::vector<analysis::DeliveryTracker::CurvePoint> curve;
  std::uint64_t deliveries = 0;   ///< first-time message receptions
  std::uint64_t duplicates = 0;   ///< redundant payload receptions
  net::TrafficStats traffic;      ///< full traffic accounting
  std::size_t alive_nodes = 0;
  SimTime sim_end = 0.0;

  /// DeliveryTracker::checksum() over the recorded deliveries — the
  /// shard-invariance gates compare this across shard counts. Multi-group
  /// runs digest the per-group checksums in group order.
  std::uint64_t delivery_checksum = 0;
  /// Shards the run used: `shards` unless a fallback applied.
  std::size_t shard_count = 1;

  /// Fault-injection results (empty unless fault_spec / check_invariants
  /// were set): the injector's deterministic log and the checker's findings.
  /// `expected_violations` are those the checker attributed to active
  /// adversarial victims — attack damage, not protocol failures.
  std::vector<std::string> fault_log;
  std::vector<std::string> invariant_violations;
  std::vector<std::string> expected_violations;

  /// Pull-recovery accounting (GoCast-family): total pulls issued, pulls
  /// that burned their whole retry budget without an answer, and spot-check
  /// pulls issued by the audit defense.
  std::uint64_t pulls_sent = 0;
  std::uint64_t pull_retries_exhausted = 0;
  std::uint64_t audits_sent = 0;

  /// Suspicion-defense outcomes (zero unless defenses were on): eviction
  /// count, per-eviction sim times (time-to-evict analysis), and the
  /// fraction of alive honest nodes whose neighbor set holds no active
  /// adversary at the end of the run (1.0 when no adversaries exist).
  std::uint64_t suspects_evicted = 0;
  /// Of those, evictions whose target really was an adversary (the rest are
  /// false positives — honest neighbors caught by noise).
  std::uint64_t adversary_evictions = 0;
  /// Evictions performed by the cover-detection defense specifically
  /// (clique-aware eviction; subset of suspects_evicted).
  std::uint64_t cover_evictions = 0;
  std::vector<SimTime> eviction_times;
  double adversary_free_fraction = 1.0;

  /// Colluding adversaries (clique / eclipse events) installed by the fault
  /// plan, sorted. The membership bench gates eviction coverage on them.
  std::vector<NodeId> colluders;
  /// Distinct adversaries that at least one honest node evicted (sorted).
  /// |evicted_adversaries ∩ colluders| / |colluders| is the clique-eviction
  /// coverage the ≥80% smoke gate checks.
  std::vector<NodeId> evicted_adversaries;

  /// Per-join instrumentation for flash-crowd / session-churn joins, in join
  /// order. Filled only when the fault plan contains `flash:`/`session:`
  /// events (GoCast-family).
  struct JoinStats {
    NodeId node = kInvalidNode;
    SimTime at = 0.0;              ///< sim time the join started
    SimTime first_delivery = -1.0; ///< time to first delivery; < 0 = never
    SimTime to_band = -1.0;  ///< time until total degree first reached the
                             ///< target C (the {C, C+1} band); < 0 = never
    std::uint64_t messages = 0;  ///< gossip+pull+ping messages the joiner
                                 ///< sent while integrating (until to_band,
                                 ///< or end of run when the band was missed)
  };
  std::vector<JoinStats> joins;

  /// Eclipse exposure of the joiners: fraction of all joiners' overlay links
  /// that point at an adversary at the end of the run. 0 when there were no
  /// joins or no adversaries. The eclipse gate compares this defended vs
  /// undefended.
  double joiner_adversary_link_fraction = 0.0;

  /// Per-group delivery stats (multi-group runs only; group 0 first). The
  /// aggregate `report`/`curve` above cover group 0 — the one group every
  /// node subscribes to — so they stay comparable with single-group runs.
  struct GroupStats {
    GroupId group = kDefaultGroup;
    std::size_t members = 0;  ///< live subscribers at the end of the run
    std::size_t messages = 0;
    std::uint64_t deliveries = 0;
    double delivered_fraction = 0.0;
    double mean_delay = 0.0;
  };
  std::vector<GroupStats> group_stats;

  /// Total gossip messages sent across all nodes (per-group gossips plus
  /// multiplexed grouped gossips). The ext_multigroup bench's headline
  /// metric: with multiplexing this stays O(fanout) per node per period
  /// regardless of group count. Zero for non-GoCast-family protocols.
  std::uint64_t gossip_messages = 0;

  /// Mean receptions of a message per delivery: 1.0 is perfect (TXT6).
  [[nodiscard]] double redundancy() const {
    return deliveries == 0
               ? 0.0
               : 1.0 + static_cast<double>(duplicates) /
                           static_cast<double>(deliveries);
  }
};

[[nodiscard]] ScenarioResult run_scenario(const ScenarioConfig& config);

}  // namespace gocast::harness
