// FIG6 — Resilience of the overlay vs number of random links (paper Fig 6).
//
// For C_rand in {0, 1, 2, 4} (total degree fixed at 6), fail 5%..50% of
// nodes and measure q = largest connected component / live nodes.
// Paper: with zero random links the overlay is partitioned even without
// failures; with one random link it survives 25% concurrent failures; one
// vs four random links differ little.
#include <iostream>

#include "analysis/graph_analysis.h"
#include "common/env.h"
#include "common/rng.h"
#include "gocast/system.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace gocast;
  using harness::fmt;

  harness::Args args(argc, argv, {"threads", "help"});
  if (args.get_bool("help", false)) {
    std::cout << "fig6_resilience — live-component size vs random links\n"
                 "flags: --threads N [0 = auto]\n";
    return 0;
  }

  std::size_t nodes = scaled_count(1024, 128);
  double warmup = env_double("GOCAST_WARMUP", 300.0);

  harness::print_banner(
      std::cout,
      "FIG6: largest live component q after concurrent failures (n=" +
          std::to_string(nodes) + ")",
      "C_rand=0 partitions even at 0% failures; C_rand=1 keeps q=1 up to "
      "~25% failures; C_rand=1 vs 4 differ little");

  const int rand_degrees[] = {0, 1, 2, 4};
  const double fail_fractions[] = {0.0, 0.05, 0.10, 0.15, 0.20,
                                   0.25, 0.30, 0.40, 0.50};

  harness::Table table({"failed", "C_rand=0", "C_rand=1", "C_rand=2",
                        "C_rand=4"});

  // One adapted system per C_rand, sharded across the worker pool (each job
  // owns its Engine/Network/System); failures are applied to copies of the
  // final overlay graph (pure graph surgery — cheaper and exactly what the
  // metric measures). The surgery below consumes one shared Rng stream, so
  // it stays serial.
  harness::Runner runner(args.get_count("threads", 0));
  std::vector<analysis::OverlayGraph> graphs =
      runner.run<analysis::OverlayGraph>(
          std::size(rand_degrees), [&](std::size_t g) {
            const int c_rand = rand_degrees[g];
            core::SystemConfig config;
            config.node_count = nodes;
            config.seed = 21 + static_cast<std::uint64_t>(c_rand);
            config.node.overlay.target_rand_degree = c_rand;
            config.node.overlay.target_near_degree = 6 - c_rand;
            if (config.node.overlay.target_near_degree == 0) {
              config.node.overlay.maintain_nearby = false;
            }
            core::System system(config);
            system.start();
            system.run_for(warmup);
            return analysis::snapshot_overlay(system);
          });

  Rng rng(99);
  double q_rand1_at_25 = -1.0;
  double q_rand0_at_0 = -1.0;
  for (double fail : fail_fractions) {
    std::vector<std::string> row{harness::fmt_pct(fail, 0)};
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      // Average q over several random failure draws.
      double q_sum = 0.0;
      const int trials = 3;
      for (int trial = 0; trial < trials; ++trial) {
        analysis::OverlayGraph graph = graphs[g];
        std::vector<NodeId> alive;
        for (NodeId id = 0; id < graph.node_count; ++id) {
          if (graph.alive[id]) alive.push_back(id);
        }
        rng.shuffle(alive);
        auto kill = static_cast<std::size_t>(
            static_cast<double>(alive.size()) * fail + 0.5);
        for (std::size_t i = 0; i < kill; ++i) graph.alive[alive[i]] = false;
        q_sum += analysis::components(graph).largest_fraction;
      }
      double q = q_sum / 3.0;
      row.push_back(fmt(q, 3));
      if (rand_degrees[g] == 1 && fail == 0.25) q_rand1_at_25 = q;
      if (rand_degrees[g] == 0 && fail == 0.0) q_rand0_at_0 = q;
    }
    table.add_row(row);
  }
  table.print(std::cout);

  harness::print_claim(std::cout, "q for C_rand=0 without failures",
                       "< 1 (partitioned)", fmt(q_rand0_at_0, 3));
  harness::print_claim(std::cout, "q for C_rand=1 at 25% failures", "1.0",
                       fmt(q_rand1_at_25, 3));
  return 0;
}
