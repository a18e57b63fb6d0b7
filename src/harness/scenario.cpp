#include "harness/scenario.h"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "baselines/push_gossip.h"
#include "common/assert.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/zipf.h"
#include "fault/fault_injector.h"
#include "fault/invariant_checker.h"
#include "gocast/system.h"

namespace gocast::harness {

const char* protocol_name(Protocol protocol) {
  switch (protocol) {
    case Protocol::kGoCast: return "GoCast";
    case Protocol::kProximityOverlay: return "proximity overlay";
    case Protocol::kRandomOverlay: return "random overlay";
    case Protocol::kPushGossip: return "gossip";
    case Protocol::kNoWaitGossip: return "no-wait gossip";
  }
  return "?";
}

namespace {

constexpr std::size_t kCurvePoints = 41;

/// Settle time between the post-warmup failure and the first injection.
constexpr SimTime kPostFailureSettle = 0.5;

/// Delivery trackers, one per shard (or, in multi-group runs, per group of
/// one shard). A node's hook writes only its own shard's trackers, so each
/// tracker has a single writer: that shard's window thread (DESIGN.md §11).
using Trackers = std::vector<std::unique_ptr<analysis::DeliveryTracker>>;

Trackers make_trackers(std::size_t count, std::size_t node_count) {
  Trackers trackers;
  for (std::size_t k = 0; k < count; ++k) {
    trackers.push_back(std::make_unique<analysis::DeliveryTracker>(node_count));
  }
  return trackers;
}

/// Folds every shard's tracker into trackers[0] (node rows are disjoint) and
/// returns it. Call after the run, when no hook fires again.
analysis::DeliveryTracker& merge_shard_trackers(Trackers& trackers) {
  for (std::size_t k = 1; k < trackers.size(); ++k) {
    trackers[0]->merge_from(*trackers[k]);
  }
  return *trackers[0];
}

/// Drives the shared run phases against either system facade, recording
/// each node's deliveries in its shard's tracker; on return trackers[0]
/// holds the merged record. When `excluded_sources` is non-null, traffic
/// injection re-rolls sources that appear in that (sorted) list — it may
/// fill in mid-run, so membership is checked at each injection's fire time.
template <typename SystemT>
ScenarioResult drive(SystemT& system, const ScenarioConfig& config,
                     Trackers& trackers,
                     const std::vector<NodeId>* excluded_sources = nullptr) {
  for (NodeId id = 0; id < config.node_count; ++id) {
    system.node(id).set_delivery_hook(
        trackers[system.network().shard_of(id)]->hook());
  }
  if (config.loss_probability > 0.0) {
    system.network().set_loss_probability(config.loss_probability);
  }
  system.start();
  system.run_for(config.warmup);

  if (config.fail_fraction > 0.0) {
    system.fail_random_fraction(config.fail_fraction);
    if constexpr (requires { system.freeze_all(); }) {
      if (config.freeze_after_failure) system.freeze_all();
    }
    system.run_for(kPostFailureSettle);
  }

  for (auto& tracker : trackers) tracker->set_recording(true);
  // Link-stress comparisons measure the message workload, not warmup
  // control traffic: restart site-pair accounting at injection time.
  if (config.record_site_pairs) system.network().traffic().clear_site_pairs();
  SimTime inject_start = system.now();
  Rng source_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  // Injection is a simulation-global action: it runs at window barriers
  // (single-threaded, exact times).
  for (std::size_t i = 0; i < config.message_count; ++i) {
    SimTime at = inject_start + static_cast<double>(i) / config.message_rate;
    system.schedule_control(at, [&system, &config, excluded_sources] {
      NodeId source = system.random_alive_node();
      if (excluded_sources != nullptr) {
        for (int guard = 0;
             guard < 128 && std::binary_search(excluded_sources->begin(),
                                               excluded_sources->end(), source);
             ++guard) {
          source = system.random_alive_node();
        }
      }
      system.node(source).multicast(config.payload_bytes);
    });
  }
  SimTime inject_end = inject_start + static_cast<double>(config.message_count) /
                                          config.message_rate;
  system.run_until(inject_end + config.drain);

  const analysis::DeliveryTracker& tracker = merge_shard_trackers(trackers);

  ScenarioResult result;
  result.delivery_checksum = tracker.checksum();
  result.shard_count = system.shard_count();
  std::vector<NodeId> alive = system.alive_nodes();
  result.report = tracker.report(alive);
  result.curve = tracker.pair_delay_curve(alive, kCurvePoints);
  result.alive_nodes = alive.size();
  result.sim_end = system.now();
  result.traffic = system.network().traffic();
  for (NodeId id : alive) {
    result.deliveries += system.node(id).deliveries_count();
    result.duplicates += system.node(id).duplicates_count();
    if constexpr (requires(SystemT& s) { s.node(NodeId{0}).dissemination(); }) {
      const auto& diss = system.node(id).dissemination();
      result.pulls_sent += diss.pulls_sent();
      result.pull_retries_exhausted += diss.pull_retries_exhausted();
      result.audits_sent += diss.audits_sent();
      result.suspects_evicted += diss.evictions().size();
      result.cover_evictions += diss.cover_evictions();
      for (const auto& eviction : diss.evictions()) {
        result.eviction_times.push_back(eviction.at);
      }
      result.gossip_messages += system.node(id).gossip_messages_sent();
    }
  }
  return result;
}

/// Multi-group variant of drive(): per-group delivery trackers, Zipf group
/// popularity for injected traffic, and optional group join/leave churn.
/// GoCast-family only (needs System's group plumbing). `by_shard[k][g]`
/// records group g's deliveries on shard k; it is filled by this function
/// and owned by the caller so the hooks installed on the nodes stay valid
/// while the caller reads results.
ScenarioResult drive_multigroup(core::System& system,
                                const ScenarioConfig& config,
                                const core::GroupTopology& topology,
                                std::vector<Trackers>& by_shard) {
  const std::size_t group_count = topology.group_count;
  for (std::size_t k = 0; k < system.shard_count(); ++k) {
    by_shard.push_back(make_trackers(group_count, config.node_count));
  }
  for (NodeId id = 0; id < config.node_count; ++id) {
    system.node(id).set_delivery_hook(
        [&groups = by_shard[system.network().shard_of(id)]](
            const core::DeliveryEvent& event) {
          if (event.group < groups.size()) groups[event.group]->on_delivery(event);
        });
  }
  if (config.loss_probability > 0.0) {
    system.network().set_loss_probability(config.loss_probability);
  }
  system.start();
  system.run_for(config.warmup);
  for (Trackers& groups : by_shard) {
    for (auto& tracker : groups) tracker->set_recording(true);
  }

  const SimTime inject_start = system.now();
  const double window =
      static_cast<double>(config.message_count) / config.message_rate;
  // Group churn and traffic are simulation-global actions (controls);
  // same-time controls fire in admission order.

  // Group churn: topology.churn_rate join/leave events per second during the
  // traffic window, alternating by coin flip, never draining a group below
  // three members (an empty group has no delivery semantics to measure).
  Rng churn_rng = Rng(config.seed).fork("group-churn");
  if (topology.churn_rate > 0.0 && group_count > 1) {
    const std::size_t churn_events =
        static_cast<std::size_t>(topology.churn_rate * window);
    for (std::size_t i = 0; i < churn_events; ++i) {
      SimTime at = inject_start +
                   (static_cast<double>(i) + 0.5) / topology.churn_rate;
      system.schedule_control(at, [&system, &churn_rng, group_count] {
        const auto& dir = system.directory();
        GroupId g = static_cast<GroupId>(
            1 + churn_rng.next_below(group_count - 1));
        const std::vector<NodeId>& members = dir->members(g);
        const bool leave = churn_rng.next_below(2) == 0 && members.size() > 3;
        if (leave) {
          NodeId victim = members[churn_rng.next_below(members.size())];
          system.group_leave(victim, g);
        } else {
          for (int guard = 0; guard < 64; ++guard) {
            NodeId candidate = system.random_alive_node();
            if (!dir->subscribed(candidate, g)) {
              system.group_join(candidate, g);
              break;
            }
          }
        }
      });
    }
  }

  // Traffic: each message targets a group drawn by Zipf popularity (rank 0 —
  // the most popular — is group 0) and originates at a random alive member.
  common::ZipfSampler popularity(group_count, topology.popularity_exponent,
                                 config.seed ^ 0xa24baed4963ee407ULL);
  Rng source_rng(config.seed ^ 0x9e3779b97f4a7c15ULL);
  for (std::size_t i = 0; i < config.message_count; ++i) {
    SimTime at = inject_start + static_cast<double>(i) / config.message_rate;
    system.schedule_control(at, [&system, &config, &popularity, &source_rng] {
      GroupId g = static_cast<GroupId>(popularity.next());
      NodeId source = kInvalidNode;
      if (g == kDefaultGroup) {
        source = system.random_alive_node();
      } else {
        const std::vector<NodeId>& members = system.directory()->members(g);
        for (int guard = 0; guard < 128 && !members.empty(); ++guard) {
          NodeId candidate = members[source_rng.next_below(members.size())];
          if (system.network().alive(candidate)) {
            source = candidate;
            break;
          }
        }
        if (source == kInvalidNode) {
          // Group fully dead/drained: fall back to the universal group so
          // the injection schedule keeps its length.
          g = kDefaultGroup;
          source = system.random_alive_node();
        }
      }
      system.node(source).multicast_in(g, config.payload_bytes);
    });
  }
  system.run_until(inject_start + window + config.drain);

  // Fold every shard's group trackers into shard 0's; trackers[g] is then
  // group g's whole record.
  Trackers& trackers = by_shard[0];
  for (std::size_t k = 1; k < by_shard.size(); ++k) {
    for (std::size_t g = 0; g < group_count; ++g) {
      trackers[g]->merge_from(*by_shard[k][g]);
    }
  }

  ScenarioResult result;
  const std::vector<NodeId> alive = system.alive_nodes();
  // Group 0 spans every node, so its report keeps the single-group meaning.
  result.report = trackers[0]->report(alive);
  result.curve = trackers[0]->pair_delay_curve(alive, kCurvePoints);
  result.alive_nodes = alive.size();
  result.sim_end = system.now();
  result.traffic = system.network().traffic();
  for (NodeId id : alive) {
    result.deliveries += system.node(id).deliveries_count();
    result.duplicates += system.node(id).duplicates_count();
    const auto& diss = system.node(id).dissemination();
    result.pulls_sent += diss.pulls_sent();
    result.pull_retries_exhausted += diss.pull_retries_exhausted();
    result.audits_sent += diss.audits_sent();
    result.gossip_messages += system.node(id).gossip_messages_sent();
  }
  // One digest over the groups' checksums, in group order.
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const auto& tracker : trackers) {
    checksum = (checksum ^ tracker->checksum()) * 0x100000001b3ULL;
  }
  result.delivery_checksum = checksum;
  result.shard_count = system.shard_count();
  result.group_stats.reserve(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    ScenarioResult::GroupStats stats;
    stats.group = static_cast<GroupId>(g);
    std::vector<NodeId> live_members;
    if (g == 0) {
      live_members = alive;
    } else {
      for (NodeId m : system.directory()->members(static_cast<GroupId>(g))) {
        if (system.network().alive(m)) live_members.push_back(m);
      }
    }
    stats.members = live_members.size();
    const auto report = trackers[g]->report(live_members);
    stats.messages = report.messages;
    stats.deliveries = trackers[g]->delivery_count();
    stats.delivered_fraction = report.delivered_fraction;
    stats.mean_delay = report.delay.mean();
    result.group_stats.push_back(stats);
  }
  return result;
}

ScenarioResult run_gocast_family(const ScenarioConfig& config) {
  core::SystemConfig sys;
  sys.node_count = config.node_count;
  sys.seed = config.seed;
  sys.latency = config.latency;
  sys.deferred_nodes = config.deferred_nodes;
  sys.net.record_site_pairs = config.record_site_pairs;
  sys.shard_count = config.shards;

  core::GoCastConfig& node = sys.node;
  node.dissemination.payload_bytes = config.payload_bytes;
  node.dissemination.pull_delay_threshold = config.pull_delay_threshold;
  node.defense = config.defense;

  switch (config.protocol) {
    case Protocol::kGoCast:
      node.overlay.target_rand_degree = config.target_rand_degree;
      node.overlay.target_near_degree = config.target_near_degree;
      break;
    case Protocol::kProximityOverlay:
      node.overlay.target_rand_degree = config.target_rand_degree;
      node.overlay.target_near_degree = config.target_near_degree;
      node.dissemination.use_tree = false;
      break;
    case Protocol::kRandomOverlay:
      node.overlay.target_rand_degree =
          config.target_rand_degree + config.target_near_degree;
      node.overlay.target_near_degree = 0;
      node.overlay.maintain_nearby = false;
      node.dissemination.use_tree = false;
      break;
    default:
      GOCAST_ASSERT_MSG(false, "not a GoCast-family protocol");
  }
  sys.bootstrap_links_per_node =
      static_cast<std::size_t>(node.overlay.target_degree() / 2);

  // Multi-group runs branch to their own driver: per-group trackers, Zipf
  // group popularity, group churn. An empty/singleton group_spec leaves sys
  // untouched and the single-group path byte-identical.
  core::GroupTopology topology;
  if (!config.group_spec.empty()) {
    topology = core::GroupTopology::parse(config.group_spec);
  }

  if (topology.group_count > 1) {
    GOCAST_ASSERT_MSG(config.fault_spec.empty() && !config.check_invariants &&
                          config.fail_fraction == 0.0,
                      "multi-group runs do not compose with fault injection");
    sys.groups = topology;
    sys.node.multiplex_gossip = config.multiplex_gossip;
    core::System system(sys);
    std::vector<Trackers> trackers;
    return drive_multigroup(system, config, topology, trackers);
  }

  core::System system(sys);

  // Scripted faults + invariant auditing run as controls next to the normal
  // phases; the injector/checker must outlive drive().
  std::optional<fault::FaultInjector> injector;
  std::optional<fault::InvariantChecker> checker;
  if (config.check_invariants) {
    checker.emplace(system);
    checker->start();
  }
  if (!config.fault_spec.empty()) {
    injector.emplace(system, fault::FaultPlan::parse(config.fault_spec),
                     Rng(config.seed).fork("faults"));
    if (checker.has_value()) injector->set_invariant_checker(&*checker);
    injector->arm();
  }

  Trackers trackers = make_trackers(system.shard_count(), config.node_count);

  // Per-join instrumentation (trace-driven churn): for every node the fault
  // plan brings online, record messages sent while integrating, time to
  // first delivery, and time until its total degree first reaches the target
  // C (the {C, C+1} band the C1–C4 rules keep nodes in).
  struct JoinTrack {
    ScenarioResult::JoinStats stats;
    std::uint64_t base_msgs = 0;
    bool first_done = false;  ///< first_delivery stamped
    bool msgs_done = false;   ///< to_band/messages finalized
  };
  auto join_tracks = std::make_shared<std::vector<JoinTrack>>();
  // The band probes are self-rescheduling closures; this holder owns them so
  // the engine can reference them by raw pointer without a shared_ptr cycle.
  std::vector<std::shared_ptr<std::function<void()>>> probe_holders;
  auto msgs_sent = [&system](NodeId id) -> std::uint64_t {
    const auto& n = system.node(id);
    return n.overlay().pings_sent() + n.gossip_messages_sent() +
           n.dissemination().pulls_sent();
  };
  if (injector.has_value()) {
    injector->set_join_hook([&, join_tracks](NodeId id, SimTime at) {
      const std::size_t idx = join_tracks->size();
      join_tracks->push_back({});
      JoinTrack& jt = join_tracks->back();
      jt.stats.node = id;
      jt.stats.at = at;
      jt.base_msgs = msgs_sent(id);
      // Wrap the delivery hook so the joiner's first delivery is stamped
      // while still feeding its shard's tracker (the hook runs on the
      // joiner's shard thread).
      system.node(id).set_delivery_hook(
          [base = trackers[system.network().shard_of(id)]->hook(), join_tracks,
           idx,
           at](const core::DeliveryEvent& event) {
            base(event);
            JoinTrack& track = (*join_tracks)[idx];
            if (!track.first_done) {
              track.first_done = true;
              track.stats.first_delivery = event.deliver_time - at;
            }
          });
      // Degree-band probe: poll every 0.5 s until the joiner's total degree
      // reaches C, it dies (session churn), or a 120 s deadline passes.
      const SimTime deadline = at + 120.0;
      auto probe = std::make_shared<std::function<void()>>();
      probe_holders.push_back(probe);
      *probe = [&system, &msgs_sent, join_tracks, idx, deadline,
                step = probe.get()] {
        JoinTrack& track = (*join_tracks)[idx];
        if (track.msgs_done) return;
        const NodeId node_id = track.stats.node;
        const auto& overlay = system.node(node_id).overlay();
        const bool dead = !system.network().alive(node_id);
        if (dead || overlay.degree() >= overlay.params().target_degree()) {
          if (!dead) track.stats.to_band = system.now() - track.stats.at;
          track.stats.messages = msgs_sent(node_id) - track.base_msgs;
          track.msgs_done = true;
          return;
        }
        if (system.now() >= deadline) return;  // finalized at end of run
        system.schedule_control(system.now() + 0.5, [step] { (*step)(); });
      };
      system.schedule_control(at + 0.5, [step = probe.get()] { (*step)(); });
    });
  }

  // Eviction coverage: how many honest nodes have no active adversary left
  // in their neighbor set — sampled mid-run at coverage_probe_at when set,
  // otherwise at the end of the run.
  auto coverage_now = [&]() -> double {
    const std::vector<NodeId>& adversaries = injector->adversaries();
    auto is_adversary = [&adversaries](NodeId id) {
      return std::binary_search(adversaries.begin(), adversaries.end(), id);
    };
    std::size_t honest = 0;
    std::size_t clean = 0;
    for (NodeId id : system.alive_nodes()) {
      if (is_adversary(id)) continue;
      ++honest;
      bool has_adversary_neighbor = false;
      for (NodeId peer : system.node(id).overlay().neighbor_ids()) {
        if (is_adversary(peer)) {
          has_adversary_neighbor = true;
          break;
        }
      }
      if (!has_adversary_neighbor) ++clean;
    }
    return honest == 0
               ? 1.0
               : static_cast<double>(clean) / static_cast<double>(honest);
  };
  std::optional<double> probed_coverage;
  if (config.coverage_probe_at > 0.0 && injector.has_value()) {
    system.schedule_control(config.coverage_probe_at, [&] {
      if (!injector->adversaries().empty()) probed_coverage = coverage_now();
    });
  }

  const std::vector<NodeId>* excluded_sources =
      config.exclude_adversaries && injector.has_value()
          ? &injector->adversaries()
          : nullptr;
  ScenarioResult result = drive(system, config, trackers, excluded_sources);
  const analysis::DeliveryTracker& tracker = *trackers[0];
  if (config.exclude_adversaries && injector.has_value() &&
      !injector->adversaries().empty()) {
    // Honest-participant report: drop adversaries from the receiver set too.
    const std::vector<NodeId>& adversaries = injector->adversaries();
    std::vector<NodeId> honest_alive;
    for (NodeId id : system.alive_nodes()) {
      if (!std::binary_search(adversaries.begin(), adversaries.end(), id)) {
        honest_alive.push_back(id);
      }
    }
    result.report = tracker.report(honest_alive);
    result.curve = tracker.pair_delay_curve(honest_alive, kCurvePoints);
  }
  if (injector.has_value()) result.fault_log = injector->log();
  if (checker.has_value()) {
    for (const fault::InvariantViolation& v : checker->violations()) {
      std::ostringstream line;
      line << "t=" << v.at << " " << v.what;
      result.invariant_violations.push_back(line.str());
    }
    for (const fault::InvariantViolation& v : checker->expected_violations()) {
      std::ostringstream line;
      line << "t=" << v.at << " " << v.what;
      result.expected_violations.push_back(line.str());
    }
  }
  if (injector.has_value() && !injector->adversaries().empty()) {
    result.adversary_free_fraction =
        probed_coverage.has_value() ? *probed_coverage : coverage_now();
    const std::vector<NodeId>& adversaries = injector->adversaries();
    for (NodeId id : system.alive_nodes()) {
      for (const auto& eviction : system.node(id).dissemination().evictions()) {
        if (std::binary_search(adversaries.begin(), adversaries.end(),
                               eviction.peer)) {
          ++result.adversary_evictions;
          result.evicted_adversaries.push_back(eviction.peer);
        }
      }
    }
    std::sort(result.evicted_adversaries.begin(),
              result.evicted_adversaries.end());
    result.evicted_adversaries.erase(
        std::unique(result.evicted_adversaries.begin(),
                    result.evicted_adversaries.end()),
        result.evicted_adversaries.end());
  }
  if (injector.has_value()) result.colluders = injector->colluders();

  // Finalize per-join instrumentation: joins that never reached the degree
  // band keep to_band < 0 and count messages to the end of the run.
  if (!join_tracks->empty()) {
    result.joins.reserve(join_tracks->size());
    for (JoinTrack& track : *join_tracks) {
      if (!track.msgs_done) {
        track.stats.messages = msgs_sent(track.stats.node) - track.base_msgs;
      }
      result.joins.push_back(track.stats);
    }
    // Eclipse exposure: fraction of the (alive) joiners' overlay links that
    // point at an adversary at the end of the run.
    if (injector.has_value() && !injector->adversaries().empty()) {
      const std::vector<NodeId>& adversaries = injector->adversaries();
      std::size_t links = 0;
      std::size_t adversarial = 0;
      for (const ScenarioResult::JoinStats& join : result.joins) {
        if (!system.network().alive(join.node)) continue;
        for (NodeId peer : system.node(join.node).overlay().neighbor_ids()) {
          ++links;
          if (std::binary_search(adversaries.begin(), adversaries.end(),
                                 peer)) {
            ++adversarial;
          }
        }
      }
      if (links > 0) {
        result.joiner_adversary_link_fraction =
            static_cast<double>(adversarial) / static_cast<double>(links);
      }
    }
  }
  return result;
}

ScenarioResult run_push_gossip(const ScenarioConfig& config) {
  baselines::PushGossipSystemConfig sys;
  sys.node_count = config.node_count;
  sys.seed = config.seed;
  sys.latency = config.latency;
  sys.net.record_site_pairs = config.record_site_pairs;
  sys.shard_count = config.shards;
  sys.node.fanout = config.fanout;
  sys.node.no_wait = config.protocol == Protocol::kNoWaitGossip;
  sys.node.payload_bytes = config.payload_bytes;

  baselines::PushGossipSystem system(sys);
  Trackers trackers = make_trackers(system.shard_count(), config.node_count);
  return drive(system, config, trackers);
}

}  // namespace

ScenarioResult run_scenario(const ScenarioConfig& config) {
  GOCAST_ASSERT(config.node_count >= 8);
  GOCAST_ASSERT(config.message_rate > 0.0);
  GOCAST_ASSERT_MSG(
      (config.fault_spec.empty() && !config.check_invariants) ||
          config.protocol == Protocol::kGoCast ||
          config.protocol == Protocol::kProximityOverlay ||
          config.protocol == Protocol::kRandomOverlay,
      "fault injection / invariant checking require a GoCast-family protocol");
  switch (config.protocol) {
    case Protocol::kGoCast:
    case Protocol::kProximityOverlay:
    case Protocol::kRandomOverlay:
      return run_gocast_family(config);
    case Protocol::kPushGossip:
    case Protocol::kNoWaitGossip:
      return run_push_gossip(config);
  }
  GOCAST_ASSERT_MSG(false, "unknown protocol");
  return {};
}

}  // namespace gocast::harness
