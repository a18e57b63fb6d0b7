// EXT — Partition and heal (beyond the paper's crash-only failure model).
//
// Scripts a network partition with the fault subsystem: after warmup, 30% of
// the nodes are split into a separate island for 60 s, then the partition
// heals. Multicast traffic is injected in three windows — before the
// partition, during it, and after healing — and each window is tracked
// separately, so the table shows exactly what a partition costs: deliveries
// to the far island stop during the split (messages injected while
// partitioned are *not* recovered after the heal; gossip advertises each id
// once), and the post-heal window shows full recovery. Also reports how long
// the overlay takes to re-merge into one component after the heal, and runs
// the InvariantChecker throughout.
//
// Flags: --nodes N --seed S --warmup SECS --csv FILE --threads N. Two runs
// with the same flags produce byte-identical CSVs; the single experiment is
// dispatched through harness::Runner so the driver shares the sweep
// machinery (and --threads knob) of the other benches.
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/delivery_tracker.h"
#include "analysis/graph_analysis.h"
#include "common/env.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "fault/invariant_checker.h"
#include "gocast/system.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace gocast;
  using harness::fmt;

  harness::Args args(argc, argv, {"nodes", "seed", "warmup", "csv",
                                  "readvertise", "threads", "help"});
  if (args.get_bool("help", false)) {
    std::cout << "ext_partition — delivery across a partition-and-heal cycle\n"
                 "flags: --nodes N [512] --seed S [7] --warmup SECS [180]\n"
                 "       --csv FILE (append per-window rows)\n"
                 "       --threads N [0 = auto]\n"
                 "       --readvertise (re-gossip recent ids on partition "
                 "heal; compare the 'during partition' row against a run "
                 "without it)\n";
    return 0;
  }

  std::size_t nodes = args.get_count("nodes", scaled_count(512, 64));
  std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  double warmup = args.get_double("warmup", env_double("GOCAST_WARMUP", 180.0));
  bool readvertise = args.get_bool("readvertise", false);

  // Timeline: pre-window traffic, then partition, traffic during the split,
  // heal, settle, post-window traffic. All times absolute sim seconds.
  const double window = 15.0;    // injection window length
  const double rate = 20.0;      // messages per second
  const double partition_at = warmup + window + 5.0;
  const double during_start = partition_at + 5.0;
  const double heal_at = partition_at + 60.0;
  const double post_start = heal_at + 30.0;
  const double sim_end = post_start + window + 30.0;

  harness::print_banner(
      std::cout,
      "EXT: delivery across a partition-and-heal cycle (n=" +
          std::to_string(nodes) + ")",
      "30% of nodes split off at t=" + fmt(partition_at, 0) + " s, heal at t=" +
          fmt(heal_at, 0) + " s; traffic windows before / during / after" +
          (readvertise ? "; heal re-advertisement ON" : ""));

  // The whole experiment runs as one Runner job returning only the data the
  // report below needs; the system, trackers, and checker stay job-local.
  struct Outcome {
    analysis::DeliveryTracker::Report pre;
    analysis::DeliveryTracker::Report during;
    analysis::DeliveryTracker::Report post;
    std::uint64_t readvertised = 0;
    double remerged_at = -1.0;
    std::vector<std::string> fault_log;
    std::vector<fault::InvariantViolation> violations;
  };
  auto experiment = [&](std::size_t) {
    core::SystemConfig config;
    config.node_count = nodes;
    config.seed = seed;
    config.node.readvertise_on_heal = readvertise;
    core::System system(config);

    fault::FaultPlan plan;
    plan.partition_fraction(partition_at, 0.3).heal(heal_at);
    fault::FaultInjector injector(system, plan, Rng(seed).fork("faults"));
    fault::InvariantChecker checker(system);
    injector.set_invariant_checker(&checker);
    checker.start();
    injector.arm();

    // One tracker per traffic window, dispatched on injection time, so late
    // deliveries are attributed to the window whose message they complete.
    analysis::DeliveryTracker pre(nodes), during(nodes), post(nodes);
    pre.set_recording(true);
    during.set_recording(true);
    post.set_recording(true);
    system.set_delivery_hook([&](const core::DeliveryEvent& e) {
      if (e.inject_time < partition_at) {
        pre.on_delivery(e);
      } else if (e.inject_time < heal_at) {
        during.on_delivery(e);
      } else {
        post.on_delivery(e);
      }
    });

    // Both the injection windows and the re-merge probes run as controls.
    auto inject_window = [&](double start) {
      std::size_t messages = static_cast<std::size_t>(window * rate);
      for (std::size_t i = 0; i < messages; ++i) {
        system.schedule_control(start + static_cast<double>(i) / rate,
                                [&system] {
                                  system.node(system.random_alive_node())
                                      .multicast(512);
                                });
      }
    };
    inject_window(warmup);
    inject_window(during_start);
    inject_window(post_start);

    // After the heal, probe the overlay once per second until it is a single
    // component again: the re-merge time of the fault model.
    Outcome out;
    for (int k = 0; k <= 60; ++k) {
      system.schedule_control(heal_at + static_cast<double>(k), [&] {
        if (out.remerged_at >= 0.0) return;
        auto graph = analysis::snapshot_overlay(system);
        if (analysis::components(graph).largest_fraction == 1.0) {
          out.remerged_at = system.now();
        }
      });
    }

    system.start();
    system.run_until(sim_end);

    std::vector<NodeId> alive = system.alive_nodes();
    out.pre = pre.report(alive);
    out.during = during.report(alive);
    out.post = post.report(alive);
    for (NodeId id : alive) {
      out.readvertised += system.node(id).dissemination().readvertised_ids();
    }
    out.fault_log = injector.log();
    out.violations = checker.violations();
    return out;
  };
  harness::Runner runner(args.get_count("threads", 0));
  Outcome outcome = runner.run<Outcome>(1, experiment).front();

  struct Window {
    const char* name;
    const analysis::DeliveryTracker::Report* report;
  };
  std::vector<Window> windows = {{"pre-partition", &outcome.pre},
                                 {"during partition", &outcome.during},
                                 {"post-heal", &outcome.post}};

  harness::Table table(
      {"window", "delivered pairs", "mean delay", "p99 delay", "max delay"});
  for (const Window& w : windows) {
    table.add_row({w.name, harness::fmt_pct(w.report->delivered_fraction, 3),
                   harness::fmt_ms(w.report->delay.mean()),
                   harness::fmt_ms(w.report->p99),
                   harness::fmt_ms(w.report->max_delay)});
  }
  table.print(std::cout);

  std::cout << "\nheal re-advertisement "
            << (readvertise ? "ON" : "OFF (--readvertise to enable)") << ": "
            << outcome.readvertised
            << " message ids re-queued for gossip after root changes\n";

  double remerge_delay =
      outcome.remerged_at >= 0.0 ? outcome.remerged_at - heal_at : -1.0;
  std::cout << "overlay re-merged "
            << (outcome.remerged_at >= 0.0
                    ? fmt(remerge_delay, 1) + " s after heal"
                    : std::string("NEVER (within 60 s)"))
            << "\n";
  std::cout << "fault timeline:\n";
  for (const std::string& line : outcome.fault_log) {
    std::cout << "  " << line << "\n";
  }
  if (outcome.violations.empty()) {
    std::cout << "invariants: no violations\n";
  } else {
    std::cout << "invariant violations (" << outcome.violations.size()
              << "):\n";
    for (const auto& v : outcome.violations) {
      std::cout << "  t=" << fmt(v.at, 1) << " " << v.what << "\n";
    }
  }

  if (args.has("csv")) {
    std::string path = args.get("csv", "");
    std::ofstream out(path, std::ios::app);
    if (out.tellp() == 0) {
      out << "window,nodes,seed,readvertise,messages,delivered,mean_delay_ms,"
             "p99_delay_ms,remerge_s,readvertised_ids,violations\n";
    }
    for (const Window& w : windows) {
      out << w.name << "," << nodes << "," << seed << ","
          << (readvertise ? 1 : 0) << "," << w.report->messages << ","
          << fmt(w.report->delivered_fraction, 6) << ","
          << fmt(w.report->delay.mean() * 1000.0, 3) << ","
          << fmt(w.report->p99 * 1000.0, 3) << "," << fmt(remerge_delay, 3)
          << "," << outcome.readvertised << "," << outcome.violations.size()
          << "\n";
    }
    std::cout << "rows appended to " << path << "\n";
  }
  return 0;
}
