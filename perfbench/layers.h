// The per-layer metric vocabulary. Every workload prints every name of
// layer_metrics(), so the traced output has one shape; a layer that does not
// run in a workload (PDES outside maint_8k_sharded) reads 0 there.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "report.h"

namespace perfbench {

/// The eight traffic kinds the benchmark breaks bytes and spans down by.
inline const std::vector<gocast::net::MsgKind>& traced_kinds() {
  using gocast::net::MsgKind;
  static const std::vector<MsgKind> kinds{
      MsgKind::kData,        MsgKind::kGossipDigest, MsgKind::kPullRequest,
      MsgKind::kOverlayControl, MsgKind::kTreeControl, MsgKind::kPing,
      MsgKind::kPong,        MsgKind::kMembership};
  return kinds;
}

inline const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = [] {
    std::vector<std::pair<std::string, std::string>> v{
        {"sim.events", "count"},
        {"sim.ns_per_event", "ns"},
        {"sim.pending_end", "count"},
        {"mem.engine_bytes", "B"},
        {"pdes.windows", "count"},
        {"pdes.window_over_lookahead", "ratio"},
        {"pdes.shard_imbalance", "ratio"},
        {"pdes.speedup", "ratio"},
    };
    for (auto k : traced_kinds()) {
      v.emplace_back(std::string("net.msgs.") + gocast::net::msg_kind_name(k),
                     "count");
      v.emplace_back(std::string("net.bytes.") + gocast::net::msg_kind_name(k),
                     "B");
    }
    for (const auto& m : std::vector<std::pair<std::string, std::string>>{
             {"net.lost", "count"},
             {"net.dropped_dead", "count"},
             {"net.pool_reuse", "ratio"},
             {"mem.network_bytes", "B"},
             {"mem.view_bytes", "B"},
             {"mem.overlay_bytes", "B"},
             {"mem.tree_bytes", "B"},
             {"mem.node_object_bytes", "B"},
             {"membership.landmark_unique", "count"},
             {"diss.gossips", "count"},
             {"diss.entries_per_gossip", "ratio"},
             {"diss.pulls", "count"},
             {"diss.pull_retries_exhausted", "count"},
             {"diss.redundancy", "ratio"},
             {"diss.pull_path_fraction", "ratio"},
             {"mem.dissemination_bytes", "B"},
             {"wire.encode_ns", "ns"},
             {"wire.decode_ns", "ns"},
             {"wire.frame_bytes", "B"},
             {"setup.latency_model_s", "s"},
             {"setup.system_s", "s"},
             {"setup.start_s", "s"},
         }) {
      v.push_back(m);
    }
    for (auto k : traced_kinds()) {
      v.emplace_back(std::string("span.") + gocast::net::msg_kind_name(k) + ".ns",
                     "ns");
      v.emplace_back(
          std::string("span.") + gocast::net::msg_kind_name(k) + ".count",
          "count");
    }
    v.emplace_back("span.engine_timers.ns", "ns");
    v.emplace_back("trace.overhead", "ratio");
    return v;
  }();
  return names;
}

/// Per-layer values a workload filled in; unknown names are a bug in the
/// benchmark and fail the run.
class LayerValues {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }

  /// Adds every name of layer_metrics() to `out`, 0 where nothing was set.
  void emit(Report& out) const {
    const auto& names = layer_metrics();
    for (const auto& [name, unit] : names) {
      auto it = values_.find(name);
      out.add(name, it == values_.end() ? 0.0 : it->second, unit);
    }
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const auto& m : names) known = known || m.first == name;
      out.check(known, "unknown per-layer metric " + name);
    }
  }

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
