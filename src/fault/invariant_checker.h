// Runtime protocol-health auditor: periodically asserts the structural
// invariants GoCast promises — degree bounds among live nodes, timely
// removal of dead overlay neighbors, a connected overlay with an acyclic
// spanning tree once the system has settled, and message-store reclamation
// within the paper's waiting period b. Violations are collected (and
// logged), never fatal: the checker observes, experiments decide.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.h"
#include "gocast/system.h"

namespace gocast::fault {

struct InvariantViolation {
  SimTime at = 0.0;
  std::string what;
};

/// Which structural checks run. Dead-neighbor and store-GC checks always
/// run; their thresholds, the sweep period and the settle time are constants
/// in invariant_checker.cpp.
struct InvariantCheckerParams {
  bool check_degrees = true;
  bool check_tree = true;
  bool check_connectivity = true;
};

class InvariantChecker {
 public:
  InvariantChecker(core::System& system, InvariantCheckerParams params = {});
  ~InvariantChecker() { stop(); }
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  /// Starts periodic sweeps. Each sweep is a system control (it reads every
  /// node, so it runs at a window barrier) that schedules the next one.
  void start();
  void stop();

  /// Runs one sweep immediately.
  void check_now();

  /// A fault was applied: restart the settle clock for structural checks.
  void note_disturbance();

  /// While a partition is active the overlay *cannot* be connected or
  /// spanned by one tree; connectivity/tree checks are suspended (and
  /// resume a settle time after the partition heals).
  void set_partition_active(bool active);

  /// Marks a node as an active adversarial victim (FaultInjector behavior
  /// events call this; a cure clears it). Structural violations caused by an
  /// adversary — on the victim itself, on its direct neighbors (degree lies
  /// distort their C1–C4 decisions), or overlay/tree splits while any
  /// adversary is active — are *expected* consequences of the attack: they
  /// are reported separately and never count as protocol failures.
  void mark_adversary(NodeId id, bool active);
  [[nodiscard]] bool is_adversary(NodeId id) const {
    return adversaries_.count(id) > 0;
  }

  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::size_t violation_count() const { return violations_.size(); }
  /// Violations attributed to active adversarial victims (see
  /// mark_adversary) — attack damage, not protocol bugs.
  [[nodiscard]] const std::vector<InvariantViolation>& expected_violations()
      const {
    return expected_violations_;
  }
  [[nodiscard]] std::size_t expected_violation_count() const {
    return expected_violations_.size();
  }
  [[nodiscard]] std::uint64_t sweeps() const { return sweeps_; }
  [[nodiscard]] const InvariantCheckerParams& params() const { return params_; }

 private:
  void sweep();
  /// Schedules the sweep one period from now, live while `armed` holds.
  void arm(std::shared_ptr<bool> armed);
  void check_degrees(SimTime now);
  void check_dead_neighbors(SimTime now);
  void check_tree_and_connectivity(SimTime now);
  void check_store_gc(SimTime now);
  void report(SimTime at, std::string what);
  void report_expected(SimTime at, std::string what);
  /// True when `id` is an adversary or directly neighbors one (the blast
  /// radius inside which degree distortion is attributable to the attack).
  [[nodiscard]] bool in_adversary_blast_radius(NodeId id) const;

  [[nodiscard]] bool settled(SimTime now) const;

  core::System& system_;
  InvariantCheckerParams params_;
  /// Shared with the pending sweep control; stop() clears it, so a control
  /// that outlives the sweep series (or the checker) fires as a no-op.
  std::shared_ptr<bool> armed_;

  SimTime last_disturbance_ = 0.0;
  bool partition_active_ = false;
  std::unordered_set<NodeId> adversaries_;

  /// (node, dead neighbor) -> when the checker first saw the stale link.
  std::unordered_map<std::uint64_t, SimTime> stale_links_;

  std::vector<InvariantViolation> violations_;
  std::vector<InvariantViolation> expected_violations_;
  std::uint64_t sweeps_ = 0;
};

}  // namespace gocast::fault
