// FIG1 — Push-gossip reliability vs fanout (paper Fig 1).
//
// Plots e^{-e^{ln(n)-F}} (probability that all 1,024 nodes hear one message)
// and its 1,000-message power, and validates the closed form empirically by
// simulating the push-gossip baseline at selected fanouts.
#include <iostream>

#include "analysis/reliability.h"
#include "common/env.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace gocast;
  using harness::fmt;

  harness::Args args(argc, argv, {"threads", "help"});
  if (args.get_bool("help", false)) {
    std::cout << "fig1_reliability — push-gossip reliability vs fanout\n"
                 "flags: --threads N [0 = auto]\n";
    return 0;
  }

  harness::print_banner(
      std::cout, "FIG1: push-gossip reliability vs fanout (n=1024)",
      "all-nodes probability e^{-e^{ln n - F}}; >=0.5 for 1000 msgs needs "
      "fanout ~15");

  const std::size_t n = 1024;
  harness::Table table({"fanout", "P[all nodes, 1 msg]",
                        "P[all nodes, 1000 msgs]"});
  for (int fanout = 4; fanout <= 20; ++fanout) {
    table.add_row({std::to_string(fanout),
                   fmt(analysis::push_gossip_atomicity(n, fanout), 6),
                   fmt(analysis::push_gossip_atomicity_k(n, fanout, 1000), 6)});
  }
  table.print(std::cout);

  harness::print_claim(
      std::cout, "min fanout for P(1000 msgs) >= 0.5", "15",
      std::to_string(analysis::min_fanout_for_atomicity(n, 1000, 0.5)));

  // Empirical validation: fraction of (node, message) pairs missed by the
  // simulated push-gossip baseline at fanout 5. The paper reports ~0.7% of
  // nodes never hear a given message at fanout 5.
  std::cout << "\nempirical check (simulated push gossip):\n";
  std::size_t nodes = scaled_count(1024, 64);
  std::size_t messages = scaled_count(60, 10);

  harness::SweepSpec spec;
  spec.base.protocol = harness::Protocol::kPushGossip;
  spec.base.node_count = nodes;
  spec.base.warmup = 5.0;  // no overlay to adapt
  spec.base.message_count = messages;
  spec.base.drain = 30.0;
  for (int fanout : {5, 8}) {
    spec.overrides.push_back(
        {std::to_string(fanout), [fanout](harness::ScenarioConfig& c) {
           c.fanout = fanout;
           c.seed = 1000 + static_cast<std::uint64_t>(fanout);
         }});
  }
  harness::Runner runner(args.get_count("threads", 0));
  for (const harness::SweepRun& run : harness::run_sweep(spec, runner)) {
    const int fanout = run.job.config.fanout;
    double missed = 1.0 - run.result.report.delivered_fraction;
    double predicted_node_miss =
        1.0 - analysis::push_gossip_atomicity(run.job.config.node_count, fanout);
    std::cout << "  fanout " << fanout << ": missed pair fraction "
              << fmt(missed, 5) << " (paper: ~0.007 of nodes at fanout 5)"
              << ", closed-form all-nodes failure " << fmt(predicted_node_miss, 5)
              << ", nodes with all messages "
              << fmt(run.result.report.nodes_with_all_messages, 4) << "\n";
  }
  return 0;
}
