// TXT2 — Average overlay link latency vs number of random links (paper §3,
// summary result 2).
//
// "The average latency of the overlay links grows almost linearly with the
// number of random links, which again justifies our use of only one random
// link per node." (Total degree fixed at 6.)
#include <iostream>

#include "analysis/graph_analysis.h"
#include "common/env.h"
#include "gocast/system.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace gocast;
  using harness::fmt;
  using harness::fmt_ms;

  harness::Args args(argc, argv, {"threads", "help"});
  if (args.get_bool("help", false)) {
    std::cout << "txt_latency_vs_random — overlay link latency vs C_rand\n"
                 "flags: --threads N [0 = auto]\n";
    return 0;
  }

  std::size_t nodes = scaled_count(1024, 128);
  double warmup = env_double("GOCAST_WARMUP", 240.0);

  harness::print_banner(
      std::cout,
      "TXT2: mean overlay link latency vs C_rand (degree 6, n=" +
          std::to_string(nodes) + ")",
      "mean overlay latency grows ~linearly with the number of random links");

  // Each C_rand run builds its own system, so the five runs shard cleanly
  // across the pool; only the measured latencies leave the job.
  struct Row {
    double overlay = 0.0;
    double nearby = 0.0;
    double random = 0.0;
  };
  const int rand_degrees[] = {0, 1, 2, 3, 4};
  harness::Runner runner(args.get_count("threads", 0));
  std::vector<Row> rows = runner.run<Row>(
      std::size(rand_degrees), [&](std::size_t g) {
        const int c_rand = rand_degrees[g];
        core::SystemConfig config;
        config.node_count = nodes;
        config.seed = 41 + static_cast<std::uint64_t>(c_rand);
        config.node.overlay.target_rand_degree = c_rand;
        config.node.overlay.target_near_degree = 6 - c_rand;
        if (config.node.overlay.target_near_degree == 0) {
          config.node.overlay.maintain_nearby = false;
        }
        core::System system(config);
        system.start();
        system.run_for(warmup);
        Row row;
        row.overlay = analysis::link_latency_stats(system).mean_overlay_one_way;
        row.nearby = analysis::mean_link_latency_of_kind(
            system, overlay::LinkKind::kNearby);
        row.random = analysis::mean_link_latency_of_kind(
            system, overlay::LinkKind::kRandom);
        return row;
      });

  harness::Table table({"C_rand", "C_near", "mean overlay one-way",
                        "mean nearby one-way", "mean random one-way"});
  std::vector<double> means;
  for (std::size_t g = 0; g < rows.size(); ++g) {
    const int c_rand = rand_degrees[g];
    means.push_back(rows[g].overlay);
    table.add_row({std::to_string(c_rand), std::to_string(6 - c_rand),
                   fmt_ms(rows[g].overlay), fmt_ms(rows[g].nearby),
                   fmt_ms(rows[g].random)});
  }
  table.print(std::cout);

  // Linearity check: successive increments should be roughly equal.
  std::cout << "  per-random-link latency increments:";
  for (std::size_t i = 1; i < means.size(); ++i) {
    std::cout << " " << fmt_ms(means[i] - means[i - 1]);
  }
  std::cout << "\n";
  return 0;
}
