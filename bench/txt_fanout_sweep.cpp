// TXT5 — Gossip fanout sweep (paper §3, summary result 5).
//
// "The message delay in the push-based gossip protocol cannot be reduced
// significantly by simply increasing the gossip fanout. When the fanout is
// increased from 5 to 9, the message delay is reduced by only about 5%;
// further increasing the fanout to 15 has virtually no impact."
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
    std::cout << "txt_fanout_sweep — push-gossip delay vs fanout\n"
                 "flags: --threads N [0 = auto]\n";
    return 0;
  }

  std::size_t nodes = scaled_count(1024, 128);
  std::size_t messages = scaled_count(120, 20);

  harness::print_banner(
      std::cout,
      "TXT5: push-gossip delay vs fanout (n=" + std::to_string(nodes) + ")",
      "fanout 5->9 cuts delay only ~5%; 9->15 virtually none (reliability "
      "improves, delay does not)");

  auto latency = core::default_latency_model(1);

  harness::SweepSpec spec;
  spec.base.protocol = harness::Protocol::kPushGossip;
  spec.base.node_count = nodes;
  spec.base.message_count = messages;
  spec.base.warmup = 5.0;
  spec.base.latency = latency;
  spec.base.drain = 30.0;
  spec.base.seed = 13;
  for (int fanout : {5, 7, 9, 12, 15}) {
    spec.overrides.push_back(
        {std::to_string(fanout),
         [fanout](harness::ScenarioConfig& c) { c.fanout = fanout; }});
  }

  harness::Runner runner(args.get_count("threads", 0));
  auto runs = harness::run_sweep(spec, runner);

  harness::Table table({"fanout", "mean delay", "p90", "max", "delivered",
                        "gossip MB"});
  double mean_at_5 = 0.0;
  double mean_at_9 = 0.0;
  double mean_at_15 = 0.0;
  for (const harness::SweepRun& run : runs) {
    const int fanout = run.job.config.fanout;
    const auto& r = run.result.report;
    table.add_row(
        {std::to_string(fanout), fmt_ms(r.delay.mean()), fmt_ms(r.p90),
         fmt_ms(r.max_delay), harness::fmt_pct(r.delivered_fraction, 2),
         fmt(static_cast<double>(
                 run.result.traffic.kind(net::MsgKind::kGossipDigest).bytes) /
                 (1024.0 * 1024.0),
             2)});
    if (fanout == 5) mean_at_5 = r.delay.mean();
    if (fanout == 9) mean_at_9 = r.delay.mean();
    if (fanout == 15) mean_at_15 = r.delay.mean();
  }
  table.print(std::cout);

  harness::print_claim(std::cout, "delay reduction fanout 5 -> 9", "~5%",
                       fmt((1.0 - mean_at_9 / mean_at_5) * 100.0, 1) + "%");
  harness::print_claim(std::cout, "delay reduction fanout 9 -> 15", "~0%",
                       fmt((1.0 - mean_at_15 / mean_at_9) * 100.0, 1) + "%");
  return 0;
}
