// System-monitoring event feed — the workload the paper's introduction
// motivates ("disseminating system monitoring events to facilitate the
// management of distributed systems").
//
// A 200-node management fabric multicasts a steady feed of monitoring
// events. Mid-run, a rack-sized slice of the fleet crashes. The example
// shows the properties a monitoring pipeline cares about: every live node
// keeps receiving every event, and delivery delay degrades only mildly
// while repair runs in the background.
//
//   ./monitoring_feed [nodes] [events_per_second]
#include <cstdlib>
#include <iostream>

#include "analysis/delivery_tracker.h"
#include "analysis/graph_analysis.h"
#include "gocast/system.h"

int main(int argc, char** argv) {
  using namespace gocast;

  std::size_t nodes = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 200;
  double rate = argc > 2 ? std::strtod(argv[2], nullptr) : 50.0;

  core::SystemConfig config;
  config.node_count = nodes;
  config.seed = 2026;
  // Monitoring events are small; make pulls cheap and let the tree win the
  // race (f = 0.3 s, the paper's recommendation).
  config.node.dissemination.payload_bytes = 256;
  config.node.dissemination.pull_delay_threshold = 0.3;

  core::System system(config);
  analysis::DeliveryTracker tracker(nodes);
  system.set_delivery_hook(tracker.hook());
  system.start();

  std::cout << "adapting overlay for 120 s...\n";
  system.run_for(120.0);

  auto inject_events = [&](double seconds, const char* phase) {
    SimTime start = system.now();
    std::size_t count = static_cast<std::size_t>(seconds * rate);
    for (std::size_t i = 0; i < count; ++i) {
      system.schedule_control(
          start + static_cast<double>(i) / rate, [&system, &config] {
            // Any management node can publish an event directly.
            system.node(system.random_alive_node())
                .multicast(config.node.dissemination.payload_bytes);
          });
    }
    system.run_until(start + seconds + 5.0);
    std::cout << "  [" << phase << "] injected " << count << " events\n";
  };

  tracker.set_recording(true);
  inject_events(10.0, "healthy fleet");

  std::cout << "\ncrashing 15% of the fleet (repair stays ON)...\n";
  auto killed = system.fail_random_fraction(0.15);
  std::cout << "  " << killed.size() << " nodes down\n";
  inject_events(10.0, "degraded fleet");

  system.run_for(60.0);  // let repair finish
  inject_events(10.0, "repaired fleet");
  system.run_for(10.0);

  auto report = tracker.report(system.alive_nodes());
  auto graph = analysis::snapshot_overlay(system);
  auto comp = analysis::components(graph);
  auto tree = analysis::tree_stats(system);

  std::cout << "\nresults over all three phases:\n"
            << "  events tracked:    " << report.messages << "\n"
            << "  delivered:         " << report.delivered_fraction * 100.0
            << "% of (live node, event) pairs\n"
            << "  mean delay:        " << report.delay.mean() * 1000.0 << " ms\n"
            << "  p99 delay:         " << report.p99 * 1000.0 << " ms\n"
            << "  worst delay:       " << report.max_delay * 1000.0 << " ms\n"
            << "after repair:\n"
            << "  overlay connected: " << (comp.largest_fraction == 1.0 ? "yes" : "NO")
            << "\n"
            << "  tree spanning:     " << (tree.spanning ? "yes" : "NO") << "\n";

  return report.delivered_fraction == 1.0 && comp.largest_fraction == 1.0 ? 0 : 1;
}
