// EXT — Continuous churn (the paper's scalability requirement: "the system
// should be self-adaptive to handle dynamic node joins and leaves").
//
// Runs a join/leave process at several churn rates while multicast traffic
// flows, and reports delivery completeness and delay separately for the
// churn phase and a post-settle phase (the churn cost shows up as the gap
// between the two), plus overlay connectivity and tree spanning checks.
//
// With --session DIST the leave side is trace-driven: every joined node's
// lifetime is drawn from a heavy-tailed fault::SessionModel distribution
// (weibull | lognormal | pareto | gnutella | skype | cdf:<path>), and the
// CSV rows carry the resolved distribution parameters so trace runs are
// self-describing.
//
// Flags: --threads N --csv FILE --session DIST --shape X --scale S
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/delivery_tracker.h"
#include "analysis/graph_analysis.h"
#include "common/env.h"
#include "fault/session_model.h"
#include "gocast/system.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/table.h"

int main(int argc, char** argv) {
  using namespace gocast;
  using harness::fmt;

  harness::Args args(argc, argv,
                     {"threads", "csv", "session", "shape", "scale", "help"});
  if (args.get_bool("help", false)) {
    std::cout << "ext_churn — delivery under continuous churn\n"
                 "flags: --threads N [0 = auto] --csv FILE\n"
                 "       --session weibull|lognormal|pareto|gnutella|skype|"
                 "cdf:<path>\n"
                 "       --shape X [preset] --scale SECS [preset]\n";
    return 0;
  }

  std::size_t base_nodes = scaled_count(512, 64);
  double warmup = env_double("GOCAST_WARMUP", 180.0);

  // Trace-driven leave process: resolve the session-length distribution once
  // so every job (and the CSV metadata) uses the same parameters.
  const std::string session_dist = args.get("session", "");
  fault::SessionModel::Params session_params;
  if (!session_dist.empty()) {
    session_params = fault::SessionModel::from_spec(
        session_dist, args.get_double("shape", 0.0),
        args.get_double("scale", 0.0));
  }

  harness::print_banner(
      std::cout,
      "EXT: delivery under continuous churn (n=" + std::to_string(base_nodes) +
          (session_dist.empty() ? std::string()
                                : ", sessions=" + session_dist) +
          ")",
      "requirement from the paper's intro: graceful behavior under dynamic "
      "joins and leaves; delivery split into during-churn vs post-settle");

  // One job per churn rate; every job owns its system, so the rates shard
  // across the worker pool and the table is assembled in rate order after.
  struct Row {
    analysis::DeliveryTracker::Report churn_report;   ///< during churn
    analysis::DeliveryTracker::Report settle_report;  ///< after settle
    bool connected = false;
    bool spanning = false;
  };
  const double churn_rates[] = {0.0, 0.5, 2.0, 5.0};
  const double phase = 60.0;         // churn + traffic window
  const double settle_gap = 15.0;    // churn off, no traffic
  const double settle_phase = 30.0;  // traffic only
  harness::Runner runner(args.get_count("threads", 0));
  std::vector<Row> rows = runner.run<Row>(
      std::size(churn_rates), [&](std::size_t job) {
        const double churn_rate = churn_rates[job];
        core::SystemConfig config;
        config.node_count = base_nodes + base_nodes / 4;
        config.deferred_nodes = base_nodes / 4;
        config.seed = 91 + static_cast<std::uint64_t>(churn_rate * 10);
        core::System system(config);
        analysis::DeliveryTracker churn_tracker(config.node_count);
        analysis::DeliveryTracker settle_tracker(config.node_count);
        system.set_delivery_hook(churn_tracker.hook());
        system.start();
        system.run_for(warmup);

        // Churn + traffic phase: 60 s of joins/leaves at churn_rate events/s
        // with 20 msg/s multicast. In session mode each join draws its node's
        // lifetime from the distribution (the leave process); otherwise
        // events alternate join/leave. Both schedules run as controls.
        SimTime phase_start = system.now();
        fault::SessionModel sessions(session_params,
                                     Rng(config.seed).fork("sessions"));
        const bool trace_driven = !session_dist.empty();
        if (churn_rate > 0.0) {
          std::size_t events = static_cast<std::size_t>(phase * churn_rate);
          for (std::size_t e = 0; e < events; ++e) {
            SimTime at = phase_start + static_cast<double>(e) / churn_rate;
            if (trace_driven) {
              // Every event is an arrival; the departure is scheduled from
              // the sampled session length (kill only if still alive then).
              system.schedule_control(at, [&system, &sessions] {
                NodeId id = system.spawn_next();
                if (id == kInvalidNode) return;
                double life = sessions.sample();
                system.schedule_control(system.now() + life, [&system, id] {
                  if (system.network().alive(id)) system.node(id).kill();
                });
              });
            } else {
              bool join = e % 2 == 0;
              system.schedule_control(at, [&system, join] {
                if (join) {
                  (void)system.spawn_next();
                } else if (system.network().alive_count() > 8) {
                  system.node(system.random_alive_node()).kill();
                }
              });
            }
          }
        }
        churn_tracker.set_recording(true);
        std::size_t messages = static_cast<std::size_t>(phase * 20.0);
        for (std::size_t i = 0; i < messages; ++i) {
          system.schedule_control(
              phase_start + static_cast<double>(i) / 20.0, [&system] {
                system.node(system.random_alive_node()).multicast(512);
              });
        }
        system.run_until(phase_start + phase + settle_gap);

        // Post-settle phase: churn is over, the overlay has had settle_gap
        // seconds to repair; a second traffic window measures recovered
        // steady-state delivery on its own tracker.
        churn_tracker.set_recording(false);
        system.set_delivery_hook(settle_tracker.hook());
        settle_tracker.set_recording(true);
        SimTime settle_start = system.now();
        std::size_t settle_messages =
            static_cast<std::size_t>(settle_phase * 20.0);
        for (std::size_t i = 0; i < settle_messages; ++i) {
          system.schedule_control(
              settle_start + static_cast<double>(i) / 20.0, [&system] {
                system.node(system.random_alive_node()).multicast(512);
              });
        }
        system.run_until(settle_start + settle_phase + 30.0);

        // Survivors: alive now AND alive before the churn phase (they should
        // have every message; joiners miss messages sent before they joined).
        std::vector<NodeId> survivors;
        for (NodeId id = 0; id < base_nodes; ++id) {
          if (system.network().alive(id)) survivors.push_back(id);
        }
        Row row;
        row.churn_report = churn_tracker.report(survivors);
        row.settle_report = settle_tracker.report(survivors);
        auto graph = analysis::snapshot_overlay(system);
        row.connected = analysis::components(graph).largest_fraction == 1.0;
        row.spanning = analysis::tree_stats(system).spanning;
        return row;
      });

  harness::Table table({"churn (events/s)", "delivered (churn)",
                        "delivered (settle)", "mean delay (churn)",
                        "p99 (churn)", "p99 (settle)", "connected",
                        "tree spans"});
  for (std::size_t job = 0; job < rows.size(); ++job) {
    const Row& row = rows[job];
    table.add_row({fmt(churn_rates[job], 1),
                   harness::fmt_pct(row.churn_report.delivered_fraction, 2),
                   harness::fmt_pct(row.settle_report.delivered_fraction, 2),
                   harness::fmt_ms(row.churn_report.delay.mean()),
                   harness::fmt_ms(row.churn_report.p99),
                   harness::fmt_ms(row.settle_report.p99),
                   row.connected ? "yes" : "NO",
                   row.spanning ? "yes" : "NO"});
  }
  table.print(std::cout);

  if (args.has("csv")) {
    std::string path = args.get("csv", "");
    std::ofstream out(path, std::ios::app);
    if (out.tellp() == 0) {
      out << "churn_rate,session_dist,session_shape,session_scale,nodes,"
             "delivered_churn,delivered_settle,mean_delay_churn_ms,"
             "p99_churn_ms,p99_settle_ms,connected,tree_spans\n";
    }
    for (std::size_t job = 0; job < rows.size(); ++job) {
      const Row& row = rows[job];
      out << fmt(churn_rates[job], 2) << ","
          << (session_dist.empty() ? "none" : session_dist) << ","
          << fmt(session_dist.empty() ? 0.0 : session_params.shape, 4) << ","
          << fmt(session_dist.empty() ? 0.0 : session_params.scale, 4) << ","
          << base_nodes << ","
          << fmt(row.churn_report.delivered_fraction, 6) << ","
          << fmt(row.settle_report.delivered_fraction, 6) << ","
          << fmt(row.churn_report.delay.mean() * 1000.0, 3) << ","
          << fmt(row.churn_report.p99 * 1000.0, 3) << ","
          << fmt(row.settle_report.p99 * 1000.0, 3) << ","
          << (row.connected ? 1 : 0) << "," << (row.spanning ? 1 : 0) << "\n";
    }
    std::cout << "rows appended to " << path << "\n";
  }
  return 0;
}
