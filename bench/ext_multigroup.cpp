// EXT — Multi-group multicast over a shared substrate (DESIGN.md §10).
//
// Sweeps group counts with digest multiplexing on and off and reports, per
// cell, aggregate group-0 delivery (comparable with every single-group
// bench), per-group delivery/delay, and the headline gossip-message count.
// With multiplexing one GroupedGossip per period carries every co-subscribed
// group's digest section, so gossip traffic stays O(fanout) per node per
// period instead of O(groups × fanout) — the ratio this bench measures.
//
// Usage: ext_multigroup [--nodes N] [--messages N] [--warmup SECS]
//        [--csv FILE] [--threads N] [--smoke]. Output is byte-identical at
//        any --threads value: jobs shard across the pool but merge in spec
//        order.
//
// --smoke turns the bench into a CI gate (tools/check.sh multigroup-smoke):
// one group count, mux on vs off, asserting that multiplexing cuts gossip
// messages below 0.7× the per-group baseline while every group still
// delivers.
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/env.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace gocast;
  using harness::fmt;

  harness::Args args(argc, argv,
                     {"nodes", "messages", "warmup", "csv", "threads",
                      "smoke", "help"});
  if (args.get_bool("help", false)) {
    std::cout
        << "ext_multigroup — per-group delivery and gossip mux savings\n"
           "flags: --nodes N [256] --messages N [240] --warmup SECS [150]\n"
           "       --csv FILE --threads N [0 = auto] --smoke (CI gate)\n";
    return 0;
  }

  const bool smoke = args.get_bool("smoke", false);
  const std::size_t nodes =
      args.get_count("nodes", smoke ? 192 : scaled_count(256, 96));
  const std::size_t messages = args.get_count("messages", smoke ? 160 : 240);
  const double warmup =
      args.get_double("warmup", env_double("GOCAST_WARMUP", 150.0));

  // One job per (group count, multiplexing) cell. groups=1 runs the
  // pre-multigroup code path (no mux timer exists), so it appears once as
  // the single-group baseline.
  struct Cell {
    std::size_t groups;
    bool mux;
  };
  std::vector<Cell> cells;
  if (smoke) {
    cells = {{8, false}, {8, true}};
  } else {
    cells = {{1, true}, {4, false}, {4, true}, {8, false}, {8, true}};
  }

  harness::print_banner(
      std::cout,
      "EXT: multi-group multicast (n=" + std::to_string(nodes) + ", " +
          std::to_string(messages) + " msgs)",
      "one membership plane, per-group trees/dissemination; mux packs "
      "co-subscribed digests into one gossip per period");

  harness::Runner runner(args.get_count("threads", 0));
  std::vector<harness::ScenarioResult> results =
      runner.run<harness::ScenarioResult>(cells.size(), [&](std::size_t job) {
        const Cell& cell = cells[job];
        harness::ScenarioConfig config;
        config.node_count = nodes;
        config.seed = 407 + cell.groups;  // same seed for mux on/off pairs
        config.warmup = warmup;
        config.message_count = messages;
        config.message_rate = 20.0;
        config.payload_bytes = 512;
        if (cell.groups > 1) {
          config.group_spec = "groups=" + std::to_string(cell.groups) +
                              ";zipf=0.9;pop=0.6;corr=0.25";
          config.multiplex_gossip = cell.mux;
        }
        return harness::run_scenario(config);
      });

  harness::Table table({"groups", "mux", "delivered (g0)", "mean delay (g0)",
                        "worst group", "gossip msgs", "vs per-group"});
  // Baseline for the ratio column: the mux-off run with the same group
  // count (the single-group row compares against itself).
  auto baseline_of = [&](std::size_t job) -> const harness::ScenarioResult& {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i].groups == cells[job].groups && !cells[i].mux) {
        return results[i];
      }
    }
    return results[job];
  };
  bool all_groups_delivered = true;
  for (std::size_t job = 0; job < cells.size(); ++job) {
    const Cell& cell = cells[job];
    const harness::ScenarioResult& r = results[job];
    double worst = 1.0;
    for (const auto& g : r.group_stats) {
      if (g.messages > 0 && g.delivered_fraction < worst) {
        worst = g.delivered_fraction;
      }
      if (g.messages > 0 && g.delivered_fraction < 0.999) {
        all_groups_delivered = false;
      }
    }
    const harness::ScenarioResult& base = baseline_of(job);
    double ratio = base.gossip_messages == 0
                       ? 1.0
                       : static_cast<double>(r.gossip_messages) /
                             static_cast<double>(base.gossip_messages);
    table.add_row({std::to_string(cell.groups),
                   cell.groups == 1 ? "-" : (cell.mux ? "on" : "off"),
                   harness::fmt_pct(r.report.delivered_fraction, 2),
                   harness::fmt_ms(r.report.delay.mean()),
                   harness::fmt_pct(worst, 2),
                   std::to_string(r.gossip_messages),
                   fmt(ratio, 2) + "x"});
  }
  table.print(std::cout);

  // Per-group breakdown of the largest multiplexed cell — the CSV carries
  // every cell's rows; the terminal shows the most interesting one.
  for (std::size_t job = cells.size(); job-- > 0;) {
    if (cells[job].groups > 1 && cells[job].mux) {
      std::cout << "\nper-group (groups=" << cells[job].groups
                << ", mux on):\n";
      harness::Table detail(
          {"group", "members", "messages", "delivered", "mean delay"});
      for (const auto& g : results[job].group_stats) {
        detail.add_row({std::to_string(g.group), std::to_string(g.members),
                        std::to_string(g.messages),
                        harness::fmt_pct(g.delivered_fraction, 2),
                        harness::fmt_ms(g.mean_delay)});
      }
      detail.print(std::cout);
      break;
    }
  }

  if (args.has("csv")) {
    std::string path = args.get("csv", "");
    std::ofstream out(path, std::ios::app);
    if (out.tellp() == 0) {
      out << "groups,mux,nodes,group,members,messages,deliveries,"
             "delivered_fraction,mean_delay_ms,gossip_messages\n";
    }
    for (std::size_t job = 0; job < cells.size(); ++job) {
      const Cell& cell = cells[job];
      const harness::ScenarioResult& r = results[job];
      if (r.group_stats.empty()) {
        out << cell.groups << "," << (cell.mux ? 1 : 0) << "," << nodes
            << ",0," << r.alive_nodes << "," << messages << ","
            << r.deliveries << "," << fmt(r.report.delivered_fraction, 6)
            << "," << fmt(r.report.delay.mean() * 1000.0, 3) << ","
            << r.gossip_messages << "\n";
        continue;
      }
      for (const auto& g : r.group_stats) {
        out << cell.groups << "," << (cell.mux ? 1 : 0) << "," << nodes
            << "," << g.group << "," << g.members << "," << g.messages << ","
            << g.deliveries << "," << fmt(g.delivered_fraction, 6) << ","
            << fmt(g.mean_delay * 1000.0, 3) << "," << r.gossip_messages
            << "\n";
      }
    }
    std::cout << "rows appended to " << path << "\n";
  }

  if (!smoke) return 0;

  // --- CI gate -------------------------------------------------------------
  // Multiplexing must cut gossip traffic well below the one-message-per-
  // group baseline, and no group may lose messages in either mode.
  const harness::ScenarioResult& off = results[0];
  const harness::ScenarioResult& on = results[1];
  std::cout << "pulls: off=" << off.pulls_sent << " (exhausted "
            << off.pull_retries_exhausted << "), on=" << on.pulls_sent
            << " (exhausted " << on.pull_retries_exhausted << ")\n";
  bool ok = true;
  if (off.gossip_messages == 0 || on.gossip_messages == 0) {
    std::cout << "SMOKE FAIL: gossip counters empty (off="
              << off.gossip_messages << ", on=" << on.gossip_messages
              << ")\n";
    ok = false;
  } else {
    double ratio = static_cast<double>(on.gossip_messages) /
                   static_cast<double>(off.gossip_messages);
    if (ratio >= 0.7) {
      std::cout << "SMOKE FAIL: mux gossip ratio " << fmt(ratio, 3)
                << " >= 0.7 (mux should beat one-gossip-per-group)\n";
      ok = false;
    }
  }
  for (std::size_t job = 0; job < 2; ++job) {
    for (const auto& g : results[job].group_stats) {
      if (g.messages > 0 && g.delivered_fraction < 0.995) {
        std::cout << "SMOKE FAIL: group " << g.group << " (mux "
                  << (cells[job].mux ? "on" : "off") << ") delivered "
                  << fmt(g.delivered_fraction, 4) << " < 0.995\n";
        ok = false;
      }
    }
  }
  if (!all_groups_delivered) {
    std::cout << "note: some group delivered < 99.9% (see table)\n";
  }
  std::cout << (ok ? "SMOKE OK: mux beats per-group gossip, all groups "
                     "delivered\n"
                   : "SMOKE FAILED\n");
  return ok ? 0 : 1;
}
