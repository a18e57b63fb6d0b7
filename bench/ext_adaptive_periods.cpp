// EXT — Adaptive maintenance and gossip periods (the paper's future-work
// sketches: "the gossip period t is dynamically tunable according to the
// message rate"; "the maintenance cycle r can be increased accordingly to
// reduce maintenance overheads").
//
// Measures the control-traffic saved during a long idle phase and verifies
// the cost: delivery delay when traffic resumes.
#include <iostream>

#include "analysis/delivery_tracker.h"
#include "common/env.h"
#include "gocast/system.h"
#include "harness/table.h"

namespace {

struct Result {
  double idle_msgs_per_node_per_s;
  double resume_mean_delay;
  double resume_delivered;
};

Result run(std::size_t nodes, bool adaptive) {
  using namespace gocast;
  core::SystemConfig config;
  config.node_count = nodes;
  config.seed = 81;
  config.node.overlay.adaptive_maintenance = adaptive;
  config.node.dissemination.adaptive_gossip = adaptive;
  core::System system(config);
  analysis::DeliveryTracker tracker(nodes);
  system.set_delivery_hook(tracker.hook());
  system.start();
  system.run_for(120.0);  // converge

  // Idle phase: count all control traffic.
  std::uint64_t before = system.network().traffic().total_sent().messages;
  system.run_for(120.0);
  std::uint64_t idle_msgs =
      system.network().traffic().total_sent().messages - before;

  // Traffic resumes.
  tracker.set_recording(true);
  for (int i = 0; i < 20; ++i) {
    system.schedule_control(system.now() + i * 0.05, [&system] {
      system.node(system.random_alive_node()).multicast(512);
    });
  }
  system.run_for(20.0);

  auto report = tracker.report(system.alive_nodes());
  return Result{
      static_cast<double>(idle_msgs) / static_cast<double>(nodes) / 120.0,
      report.delay.mean(), report.delivered_fraction};
}

}  // namespace

int main() {
  using namespace gocast;
  using harness::fmt;

  std::size_t nodes = scaled_count(512, 64);

  harness::print_banner(
      std::cout,
      "EXT: adaptive maintenance/gossip periods (n=" + std::to_string(nodes) + ")",
      "future-work extension: idle overhead shrinks; delivery stays complete "
      "and fast once traffic resumes");

  Result fixed = run(nodes, false);
  Result adaptive = run(nodes, true);

  harness::Table table({"variant", "idle ctl msgs/node/s", "resume mean delay",
                        "resume delivered"});
  table.add_row({"fixed periods", fmt(fixed.idle_msgs_per_node_per_s, 1),
                 harness::fmt_ms(fixed.resume_mean_delay),
                 harness::fmt_pct(fixed.resume_delivered, 2)});
  table.add_row({"adaptive periods", fmt(adaptive.idle_msgs_per_node_per_s, 1),
                 harness::fmt_ms(adaptive.resume_mean_delay),
                 harness::fmt_pct(adaptive.resume_delivered, 2)});
  table.print(std::cout);

  harness::print_claim(
      std::cout, "idle control-traffic reduction", "substantial",
      fmt(fixed.idle_msgs_per_node_per_s / adaptive.idle_msgs_per_node_per_s, 1) +
          "x less");
  return adaptive.resume_delivered == 1.0 ? 0 : 1;
}
