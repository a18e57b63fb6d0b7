// FIG4 — GoCast scalability: 1,024 vs 8,192 nodes, with and without 20%
// concurrent failures (paper Fig 4(a)/(b)).
//
// Paper: without failures the difference is small (8,192 nodes stay under
// 0.42 s vs 0.33 s); with 20% failures the larger system's tail is ~60%
// longer, but the overall increase is moderate — GoCast is scalable.
//
// Flags: --threads N (0 = auto; GOCAST_THREADS also honored) shards the
// four runs across a worker pool; output is byte-identical at any thread
// count. --csv FILE appends one summary row per cell.
#include <iostream>

#include "common/env.h"
#include "gocast/system.h"
#include "harness/args.h"
#include "harness/csv.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace gocast;
  using harness::fmt;
  using harness::fmt_ms;

  harness::Args args(argc, argv, {"threads", "csv", "help"});
  if (args.get_bool("help", false)) {
    std::cout << "fig4_scalability — GoCast delay at 1k vs 8k nodes\n"
                 "flags: --threads N [0 = auto] --csv FILE (append rows)\n";
    return 0;
  }

  std::size_t small = scaled_count(1024, 64);
  std::size_t large = scaled_count(8192, 256);
  std::size_t messages = scaled_count(150, 20);
  double warmup = env_double("GOCAST_WARMUP", 300.0);

  harness::print_banner(
      std::cout,
      "FIG4: GoCast delay, " + std::to_string(small) + " vs " +
          std::to_string(large) + " nodes, 0% and 20% failures",
      "no-fail max: <0.33 s (1k) vs <0.42 s (8k); with 20% failures the 8k "
      "tail is ~60% longer; growth is moderate across 8x size");

  harness::SweepSpec spec;
  spec.base.protocol = harness::Protocol::kGoCast;
  spec.base.message_count = messages;
  spec.base.warmup = warmup;
  spec.base.seed = 11;
  spec.node_counts = {small, large};
  spec.overrides.push_back({"0%", [](harness::ScenarioConfig& c) {
                              c.fail_fraction = 0.0;
                              c.drain = 20.0;
                            }});
  spec.overrides.push_back({"20%", [](harness::ScenarioConfig& c) {
                              c.fail_fraction = 0.20;
                              c.drain = 45.0;
                            }});

  harness::Runner runner(args.get_count("threads", 0));
  auto runs = harness::run_sweep(spec, runner);

  struct Cell {
    double max = 0.0;
    double mean = 0.0;
  };
  harness::Table table(
      {"system", "failures", "mean", "p90", "p99", "max", "delivered"});
  Cell small_fail;
  Cell large_fail;
  Cell small_ok;
  Cell large_ok;

  for (const harness::SweepRun& run : runs) {
    const std::size_t n = run.job.config.node_count;
    const double fail = run.job.config.fail_fraction;
    const auto& r = run.result.report;
    table.add_row({std::to_string(n) + " nodes", harness::fmt_pct(fail, 0),
                   fmt_ms(r.delay.mean()), fmt_ms(r.p90), fmt_ms(r.p99),
                   fmt_ms(r.max_delay),
                   harness::fmt_pct(r.delivered_fraction, 2)});
    Cell cell{r.max_delay, r.delay.mean()};
    if (n == small && fail == 0.0) small_ok = cell;
    if (n == large && fail == 0.0) large_ok = cell;
    if (n == small && fail > 0.0) small_fail = cell;
    if (n == large && fail > 0.0) large_fail = cell;
    if (args.has("csv")) {
      harness::append_summary_csv(args.get("csv", ""), "gocast", n, fail,
                                  run.result);
    }
  }
  table.print(std::cout);

  harness::print_claim(std::cout, "no-fail max delay (small vs large)",
                       "330 ms vs 420 ms",
                       fmt_ms(small_ok.max) + " vs " + fmt_ms(large_ok.max));
  if (small_fail.max > 0.0) {
    harness::print_claim(
        std::cout, "20%-failure tail growth (large/small max)", "~1.6x",
        fmt(large_fail.max / small_fail.max, 2) + "x");
  }
  return 0;
}
