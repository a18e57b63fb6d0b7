#include "fault/invariant_checker.h"

#include <sstream>
#include <unordered_set>

#include "analysis/graph_analysis.h"
#include "common/logging.h"

namespace gocast::fault {

namespace {

/// Sweep period.
constexpr SimTime kPeriod = 5.0;

/// Structural invariants (degrees, tree, connectivity) hold only at
/// equilibrium: they are checked once this long has passed since start /
/// the last disturbance (fault event).
constexpr SimTime kSettleAfter = 60.0;

/// Per-node tolerance below the target C before under-degree counts as a
/// violation. 2 audits the C1 floor (§2.2.3: never drop below C - 2): the
/// paper promises the band {C, C+1} only for "most nodes" — a node can sit
/// under target indefinitely when every candidate is at capacity — but C1
/// must hold for every node.
constexpr int kDegreeLowerSlack = 2;

/// Aggregate band check: the fraction of live nodes whose random or nearby
/// degree is outside the strict band {C, C+1} may not exceed this (mirrors
/// the property-test reading of the paper's claim).
constexpr double kOutOfBandFraction = 0.10;

/// A live node may list a dead neighbor at most this long (TCP-reset and
/// keepalive detection should fire well within it).
constexpr SimTime kDeadNeighborTimeout = 10.0;

/// Slack added on top of gc_payload_after / gc_record_after (one sweep
/// period plus margin) before store retention counts as a violation.
constexpr SimTime kGcMargin = 10.0;

std::uint64_t pack_link(NodeId node, NodeId peer) {
  return (static_cast<std::uint64_t>(node) << 32) | peer;
}
}  // namespace

InvariantChecker::InvariantChecker(core::System& system,
                                   InvariantCheckerParams params)
    : system_(system), params_(params) {}

void InvariantChecker::start() {
  stop();
  armed_ = std::make_shared<bool>(true);
  arm(armed_);
}

void InvariantChecker::stop() {
  if (armed_ == nullptr) return;
  *armed_ = false;
  armed_.reset();
}

void InvariantChecker::arm(std::shared_ptr<bool> armed) {
  system_.schedule_control(system_.now() + kPeriod,
                           [this, armed = std::move(armed)]() mutable {
                             if (!*armed) return;
                             arm(std::move(armed));
                             sweep();
                           });
}

void InvariantChecker::check_now() { sweep(); }

void InvariantChecker::note_disturbance() { last_disturbance_ = system_.now(); }

bool InvariantChecker::settled(SimTime now) const {
  return now - last_disturbance_ >= kSettleAfter;
}

void InvariantChecker::set_partition_active(bool active) {
  partition_active_ = active;
  note_disturbance();
}

void InvariantChecker::mark_adversary(NodeId id, bool active) {
  if (active) {
    adversaries_.insert(id);
  } else {
    adversaries_.erase(id);
  }
  note_disturbance();
}

bool InvariantChecker::in_adversary_blast_radius(NodeId id) const {
  if (adversaries_.empty()) return false;
  if (adversaries_.count(id) > 0) return true;
  for (NodeId peer : system_.node(id).overlay().neighbor_ids()) {
    if (adversaries_.count(peer) > 0) return true;
  }
  return false;
}

void InvariantChecker::report(SimTime at, std::string what) {
  GOCAST_WARN("invariant violation at t=" << at << ": " << what);
  violations_.push_back(InvariantViolation{at, std::move(what)});
}

void InvariantChecker::report_expected(SimTime at, std::string what) {
  GOCAST_INFO("expected (adversary-caused) violation at t=" << at << ": "
                                                            << what);
  expected_violations_.push_back(InvariantViolation{at, std::move(what)});
}

void InvariantChecker::sweep() {
  ++sweeps_;
  SimTime now = system_.now();
  check_dead_neighbors(now);
  check_store_gc(now);
  // Structural equilibrium checks only once the system had time to settle
  // (and never across an active partition, which they cannot hold under).
  if (!partition_active_ && settled(now)) {
    if (params_.check_degrees) check_degrees(now);
    if (params_.check_tree || params_.check_connectivity) {
      check_tree_and_connectivity(now);
    }
  }
}

void InvariantChecker::check_degrees(SimTime now) {
  // Two-level audit of the paper's §2.2 degree promise. Per node: the C1
  // floor (target - kDegreeLowerSlack) and the strict upper bound C+1 (settled
  // maintenance sheds excess every r << sweep period). Aggregate: "most
  // nodes" sit in the strict band {C, C+1} — at most kOutOfBandFraction
  // may stray. Capacity-aware configs scale per-node targets, so targets
  // are read off each node.
  // Nodes inside an adversary's blast radius (the victim itself and its
  // direct neighbors: degree lies distort exactly their C1–C4 decisions,
  // evictions deflate exactly their degree) report as *expected* and drop
  // out of the aggregate band statistic — the band promise is audited over
  // the unaffected population.
  std::vector<NodeId> alive = system_.alive_nodes();
  std::size_t out_of_band = 0;
  std::size_t audited = 0;
  for (NodeId id : alive) {
    const core::GoCastNode& node = system_.node(id);
    const overlay::OverlayParams& params = node.config().overlay;
    bool in_band = true;
    bool expected = in_adversary_blast_radius(id);

    int rand_lo = params.target_rand_degree - kDegreeLowerSlack;
    int rand_hi = params.target_rand_degree + 1;
    int rand_deg = node.overlay().rand_degree();
    if (rand_deg < rand_lo || rand_deg > rand_hi) {
      std::ostringstream what;
      what << "node " << id << " random degree " << rand_deg
           << " outside [" << rand_lo << ", " << rand_hi << "]";
      if (expected) {
        report_expected(now, what.str());
      } else {
        report(now, what.str());
      }
    }
    if (rand_deg < params.target_rand_degree ||
        rand_deg > params.target_rand_degree + 1) {
      in_band = false;
    }

    if (params.maintain_nearby) {
      int near_lo = params.target_near_degree - kDegreeLowerSlack;
      int near_hi = params.target_near_degree + 1;
      int near_deg = node.overlay().near_degree();
      if (near_deg < near_lo || near_deg > near_hi) {
        std::ostringstream what;
        what << "node " << id << " nearby degree " << near_deg << " outside ["
             << near_lo << ", " << near_hi << "]";
        if (expected) {
          report_expected(now, what.str());
        } else {
          report(now, what.str());
        }
      }
      if (near_deg < params.target_near_degree ||
          near_deg > params.target_near_degree + 1) {
        in_band = false;
      }
    }
    if (expected) continue;
    ++audited;
    if (!in_band) ++out_of_band;
  }
  if (audited > 0 &&
      static_cast<double>(out_of_band) >
          kOutOfBandFraction * static_cast<double>(audited)) {
    std::ostringstream what;
    what << out_of_band << " of " << audited
         << " audited live nodes outside the stable degree band {C, C+1}";
    report(now, what.str());
  }
}

void InvariantChecker::check_dead_neighbors(SimTime now) {
  std::unordered_set<std::uint64_t> current;
  for (NodeId id : system_.alive_nodes()) {
    for (NodeId peer : system_.node(id).overlay().neighbor_ids()) {
      if (system_.network().alive(peer)) continue;
      std::uint64_t key = pack_link(id, peer);
      current.insert(key);
      auto [it, inserted] = stale_links_.emplace(key, now);
      if (inserted) continue;
      if (now - it->second > kDeadNeighborTimeout) {
        std::ostringstream what;
        what << "node " << id << " still lists dead neighbor " << peer
             << " after " << (now - it->second) << " s";
        report(now, what.str());
        it->second = now;  // re-arm instead of flagging every sweep
      }
    }
  }
  // Forget entries that resolved (neighbor dropped or node died/recovered).
  for (auto it = stale_links_.begin(); it != stale_links_.end();) {
    if (current.count(it->first) == 0) {
      it = stale_links_.erase(it);
    } else {
      ++it;
    }
  }
}

void InvariantChecker::check_tree_and_connectivity(SimTime now) {
  // While adversaries are active, defended nodes legitimately evict and
  // blacklist them — an isolated (fully-evicted) adversary splits the
  // overlay and falls off the tree by design, so global structure
  // violations are attack damage, not protocol failures.
  const bool adversaries_active = !adversaries_.empty();
  if (params_.check_connectivity) {
    analysis::OverlayGraph graph = analysis::snapshot_overlay(system_);
    analysis::ComponentStats comp = analysis::components(graph);
    if (comp.largest_fraction < 1.0) {
      std::ostringstream what;
      what << "overlay split into " << comp.component_count
           << " components (largest holds " << comp.largest_fraction
           << " of live nodes)";
      if (adversaries_active) {
        report_expected(now, what.str());
      } else {
        report(now, what.str());
      }
    }
  }
  if (params_.check_tree && system_.config().node.tree.enabled &&
      system_.config().node.dissemination.use_tree) {
    analysis::TreeStats tree = analysis::tree_stats(system_);
    if (!tree.is_forest) {
      report(now, "tree links contain a cycle");
    }
    if (!tree.spanning) {
      std::ostringstream what;
      what << "tree spans " << tree.reachable_from_root << " of "
           << system_.network().alive_count() << " live nodes (root "
           << tree.root << ")";
      if (adversaries_active) {
        report_expected(now, what.str());
      } else {
        report(now, what.str());
      }
    }
  }
}

void InvariantChecker::check_store_gc(SimTime now) {
  const core::DisseminationParams& d =
      system_.config().node.dissemination;
  SimTime payload_bound = d.gc_payload_after + d.gc_sweep_period + kGcMargin;
  SimTime record_bound = d.gc_record_after + d.gc_sweep_period + kGcMargin;
  for (NodeId id : system_.alive_nodes()) {
    const core::Dissemination& diss = system_.node(id).dissemination();
    std::size_t payloads = diss.payloads_older_than(payload_bound);
    if (payloads > 0) {
      std::ostringstream what;
      what << "node " << id << " retains " << payloads
           << " payloads beyond b=" << d.gc_payload_after << " s (+slack)";
      report(now, what.str());
    }
    std::size_t records = diss.records_older_than(record_bound);
    if (records > 0) {
      std::ostringstream what;
      what << "node " << id << " retains " << records
           << " message records beyond " << d.gc_record_after << " s (+slack)";
      report(now, what.str());
    }
  }
}

}  // namespace gocast::fault
