// FIG3b — Propagation delay under stress: 20% of nodes fail concurrently at
// the end of warmup; no repair runs (paper Fig 3(b), 1,024 nodes).
//
// Paper: the overlay protocols still deliver every message to every live
// node; GoCast stays fastest (~2.3x over gossip in mean delay) because
// messages flood tree fragments after each gossip pickup; push gossip loses
// more messages than in the no-failure case.
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
    std::cout << "fig3b_delay_failures — five-protocol delay under 20% "
                 "failures\nflags: --threads N [0 = auto]\n";
    return 0;
  }

  std::size_t nodes = scaled_count(1024, 64);
  std::size_t messages = scaled_count(200, 20);
  double warmup = env_double("GOCAST_WARMUP", 300.0);

  harness::print_banner(
      std::cout,
      "FIG3b: multicast delay CDF with 20% concurrent failures, no repair (n=" +
          std::to_string(nodes) + ")",
      "overlay protocols deliver 100% to live nodes; GoCast ~2.3x faster than "
      "gossip; gossip loses more messages than without failures");

  auto latency = core::default_latency_model(1);

  harness::SweepSpec spec;
  spec.base.node_count = nodes;
  spec.base.message_count = messages;
  spec.base.warmup = warmup;
  spec.base.latency = latency;
  spec.base.fail_fraction = 0.20;
  spec.base.freeze_after_failure = true;
  spec.base.drain = 45.0;
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

  harness::print_claim(std::cout, "GoCast delivered fraction (live nodes)",
                       "100%",
                       harness::fmt_pct(results[0].report.delivered_fraction, 3));
  harness::print_claim(std::cout, "gossip/GoCast mean-delay ratio", "~2.3x",
                       fmt(gossip_mean / gocast_mean, 1) + "x");

  std::cout << "\ndelay CDF (fraction of (live node,msg) pairs delivered by t):\n";
  harness::Table cdf({"t", "GoCast", "proximity", "random", "gossip",
                      "no-wait"});
  for (double t : {0.1, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 15.0, 30.0}) {
    std::vector<std::string> row{fmt(t, 1) + " s"};
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
