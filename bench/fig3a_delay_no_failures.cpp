// FIG3a — Propagation delay of multicast messages, no failures (paper
// Fig 3(a), 1,024 nodes).
//
// Compares all five protocols: GoCast, proximity overlay, random overlay,
// push gossip (fanout 5), and no-wait gossip. The paper's headline: GoCast
// reaches every node in under 0.33 s and beats traditional gossip by ~8.9x
// in delivery delay.
#include <iostream>

#include "common/env.h"
#include "gocast/system.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace gocast;
  using harness::fmt;
  using harness::fmt_ms;

  harness::Args args(argc, argv, {"threads", "help"});
  if (args.get_bool("help", false)) {
    std::cout << "fig3a_delay_no_failures — five-protocol delay comparison\n"
                 "flags: --threads N [0 = auto]\n";
    return 0;
  }

  std::size_t nodes = scaled_count(1024, 64);
  std::size_t messages = scaled_count(200, 20);
  double warmup = env_double("GOCAST_WARMUP", 300.0);

  harness::print_banner(
      std::cout,
      "FIG3a: multicast delay CDF, no failures (n=" + std::to_string(nodes) + ")",
      "GoCast max delay < 0.33 s; ~8.9x faster than gossip; proximity overlay "
      "beats random overlay beats gossip");

  auto latency = core::default_latency_model(1);

  harness::SweepSpec spec;
  spec.base.node_count = nodes;
  spec.base.message_count = messages;
  spec.base.warmup = warmup;
  spec.base.latency = latency;
  spec.base.seed = 7;
  spec.protocols = {
      harness::Protocol::kGoCast, harness::Protocol::kProximityOverlay,
      harness::Protocol::kRandomOverlay, harness::Protocol::kPushGossip,
      harness::Protocol::kNoWaitGossip};

  harness::Runner runner(args.get_count("threads", 0));
  auto runs = harness::run_sweep(spec, runner);

  harness::Table table({"protocol", "mean", "p50", "p90", "p99", "max",
                        "delivered"});
  double gocast_mean = 0.0;
  double gossip_mean = 0.0;
  std::vector<harness::ScenarioResult> results;
  for (const harness::SweepRun& run : runs) {
    const harness::Protocol protocol = run.job.config.protocol;
    results.push_back(run.result);
    const auto& r = run.result.report;
    table.add_row({harness::protocol_name(protocol), fmt_ms(r.delay.mean()),
                   fmt_ms(r.p50), fmt_ms(r.p90), fmt_ms(r.p99),
                   fmt_ms(r.max_delay), harness::fmt_pct(r.delivered_fraction, 2)});
    if (protocol == harness::Protocol::kGoCast) gocast_mean = r.delay.mean();
    if (protocol == harness::Protocol::kPushGossip) gossip_mean = r.delay.mean();
  }
  table.print(std::cout);

  harness::print_claim(std::cout, "GoCast max delay",
                       "< 330 ms", fmt_ms(results[0].report.max_delay));
  harness::print_claim(std::cout, "gossip/GoCast mean-delay ratio", "~8.9x",
                       fmt(gossip_mean / gocast_mean, 1) + "x");

  std::cout << "\ndelay CDF (fraction of (node,msg) pairs delivered by t):\n";
  harness::Table cdf({"t", "GoCast", "proximity", "random", "gossip",
                      "no-wait"});
  // Re-sample each curve at the union of a fixed grid for comparability.
  for (double t : {0.05, 0.1, 0.2, 0.3, 0.5, 0.8, 1.2, 2.0, 3.0, 5.0}) {
    std::vector<std::string> row{fmt(t, 2) + " s"};
    for (const auto& result : results) {
      double fraction = 0.0;
      for (const auto& point : result.curve) {
        if (point.delay <= t) fraction = point.fraction;
      }
      row.push_back(fmt(fraction, 3));
    }
    cdf.add_row(row);
  }
  cdf.print(std::cout);
  return 0;
}
