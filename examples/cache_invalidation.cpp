// Cache-consistency updates — the paper's second motivating workload
// ("propagating updates of shared state to maintain cache consistency").
//
// A fleet of edge caches replicates a key-value store. Writes at any node
// are multicast as invalidations; every cache applies them in per-key
// version order. The example measures staleness (how long a cache serves an
// outdated value) and verifies convergence: after the write stream stops,
// all caches agree on every key, even with 10% packet loss on the wire.
//
//   ./cache_invalidation [nodes] [keys] [writes]
#include <cstdlib>
#include <iostream>
#include <map>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "gocast/system.h"

namespace {

struct CacheLine {
  std::uint32_t version = 0;
  gocast::SimTime applied_at = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace gocast;

  std::size_t nodes = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 96;
  std::size_t keys = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 32;
  std::size_t writes = argc > 3 ? std::strtoul(argv[3], nullptr, 10) : 300;

  core::SystemConfig config;
  config.node_count = nodes;
  config.seed = 7;
  config.node.dissemination.payload_bytes = 128;  // an invalidation record
  config.net.loss_probability = 0.10;  // lossy wide-area paths

  core::System system(config);

  // Application state: per node, per key, the highest version applied.
  // The multicast id maps to (key, version) through the write log.
  std::vector<std::map<std::uint32_t, CacheLine>> caches(nodes);
  std::map<MsgId, std::pair<std::uint32_t, std::uint32_t>> write_log;
  std::map<std::uint32_t, std::uint32_t> latest_version;
  Summary staleness;

  system.set_delivery_hook([&](const core::DeliveryEvent& event) {
    auto it = write_log.find(event.id);
    if (it == write_log.end()) return;  // warmup traffic
    auto [key, version] = it->second;
    CacheLine& line = caches[event.node][key];
    if (version > line.version) {
      staleness.add(event.deliver_time - event.inject_time);
      line.version = version;
      line.applied_at = event.deliver_time;
    }
  });

  system.start();
  std::cout << "adapting overlay for 120 s (10% packet loss active)...\n";
  system.run_for(120.0);

  // Write workload: random writers update random keys at 40 writes/s.
  Rng workload(99);
  SimTime start = system.now();
  for (std::size_t i = 0; i < writes; ++i) {
    system.schedule_control(
        start + static_cast<double>(i) / 40.0, [&, i] {
          auto key = static_cast<std::uint32_t>(workload.next_below(keys));
          NodeId writer = system.random_alive_node();
          std::uint32_t version = ++latest_version[key];
          MsgId id = system.node(writer).multicast(128);
          write_log[id] = {key, version};
          // The local delivery fired inside multicast(), before the write
          // was in the log; apply the writer's own update here.
          CacheLine& line = caches[writer][key];
          if (version > line.version) {
            line.version = version;
            line.applied_at = system.now();
          }
        });
  }
  system.run_until(start + static_cast<double>(writes) / 40.0 + 30.0);

  // Convergence check: every cache holds the latest version of every key.
  std::size_t divergent = 0;
  for (NodeId id = 0; id < nodes; ++id) {
    for (const auto& [key, version] : latest_version) {
      auto it = caches[id].find(key);
      if (it == caches[id].end() || it->second.version != version) ++divergent;
    }
  }

  std::cout << "\nresults:\n"
            << "  writes:            " << writes << " across " << keys
            << " keys\n"
            << "  update latency:    mean " << staleness.mean() * 1000.0
            << " ms, max " << staleness.max() * 1000.0 << " ms\n"
            << "  divergent entries: " << divergent << " of " << nodes * keys
            << " (after quiescence)\n";

  if (divergent == 0) {
    std::cout << "  all caches converged despite 10% packet loss\n";
    return 0;
  }
  return 1;
}
