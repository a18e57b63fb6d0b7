// EXT — Adversarial & slow-node fault models with protocol-level defenses
// (DESIGN.md §9; beyond the paper's crash-only failure model).
//
// Sweeps byzantine behavior × adversary fraction × defenses off/on × seeds.
// Adversaries are injected shortly before the traffic window via the fault
// spec grammar (mute_forwarder / digest_liar / slow), and each cell reports
// delivery rate, latency percentiles, pull-retry overhead, suspicion
// evictions with time-to-evict, and eviction coverage (the fraction of
// honest nodes whose final neighbor set holds no adversary).
//
// --smoke turns the bench into a CI gate: a single mixed
// mute-forwarder+digest-liar cell, defenses off vs on vs an equal-sized
// crash baseline, asserting that defenses strictly improve delivery, reach
// >= 90% eviction coverage, and keep defended delivery at or above the
// honest-crash baseline. Exit status reports the verdict.
//
// Flags: --nodes N --fraction F --seeds K --seed0 S --behavior B --warmup S
//        --csv FILE --threads N --smoke. Two runs with the same flags
// produce byte-identical output at any --threads (jobs are merged in index
// order and every per-job decision derives from the job's own seed).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "harness/args.h"
#include "harness/csv.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/table.h"

namespace {

using namespace gocast;

struct Cell {
  std::string behavior;  // mute | liar | mixed | slow | crash
  double fraction = 0.0;
  bool defenses = false;
  std::uint64_t seed = 0;
};

/// The fault-spec timeline for one cell: behaviors switch on `lead` seconds
/// before the traffic window so the overlay is converged but suspicion
/// evidence only starts accruing with real traffic.
std::string spec_for(const Cell& cell, double at) {
  std::ostringstream spec;
  spec.precision(17);
  if (cell.behavior == "mute") {
    spec << at << ":mute_forwarder:frac=" << cell.fraction;
  } else if (cell.behavior == "liar") {
    spec << at << ":digest_liar:frac=" << cell.fraction;
  } else if (cell.behavior == "mixed") {
    spec << at << ":mute_forwarder:frac=" << cell.fraction / 2.0 << "; " << at
         << ":digest_liar:frac=" << cell.fraction / 2.0;
  } else if (cell.behavior == "slow") {
    spec << at << ":slow:delay=0.05,frac=" << cell.fraction;
  } else if (cell.behavior == "crash") {
    spec << at << ":crash:frac=" << cell.fraction;
  }
  return spec.str();
}

/// All cells run under mild link loss: with perfect links the gossip+pull
/// redundancy absorbs a 10% byzantine population outright (delivery stays at
/// 100% with or without defenses), so loss is what gives the attack teeth —
/// lost tree pushes force pull recovery, and pulls are exactly the path the
/// adversaries poison.
constexpr double kLinkLoss = 0.03;

}  // namespace

int main(int argc, char** argv) {
  using harness::fmt;

  harness::Args args(argc, argv,
                     {"nodes", "fraction", "seeds", "seed0", "behavior",
                      "warmup", "csv", "threads", "smoke", "help"});
  if (args.get_bool("help", false)) {
    std::cout
        << "ext_byzantine — adversarial fault models vs protocol defenses\n"
           "flags: --nodes N [256] --fraction F [0.1] --seeds K [2]\n"
           "       --seed0 S [21] --behavior mute|liar|mixed|slow|all [all]\n"
           "       --warmup SECS [120] --csv FILE --threads N [0 = auto]\n"
           "       --smoke (CI gate: mixed cell only, asserts defended\n"
           "        delivery > undefended, >= 90% eviction coverage, and\n"
           "        >= the equal-fraction crash baseline)\n";
    return 0;
  }

  const bool smoke = args.get_bool("smoke", false);
  std::size_t nodes =
      args.get_count("nodes", smoke ? 192 : scaled_count(256, 64));
  double fraction = args.get_double("fraction", 0.1);
  std::size_t seeds = args.get_count("seeds", smoke ? 1 : 2);
  std::uint64_t seed0 = static_cast<std::uint64_t>(args.get_int("seed0", 21));
  double warmup = args.get_double("warmup", env_double("GOCAST_WARMUP", 120.0));
  std::string behavior_arg = args.get("behavior", smoke ? "mixed" : "all");

  std::vector<std::string> behaviors;
  if (behavior_arg == "all") {
    behaviors = {"mute", "liar", "mixed", "slow"};
  } else {
    behaviors = {behavior_arg};
  }

  const double behavior_lead = 20.0;  // behaviors start this long before traffic
  const double behavior_at = warmup - behavior_lead;
  // The smoke gate needs a long sustained traffic window: per-node blacklists
  // only accrue while there is evidence (digest silence, failed audits), and
  // global ostracism of an adversary takes on the order of a hundred seconds
  // of flowing messages. The sweep cells keep a shorter, denser burst.
  const std::size_t messages = smoke ? 5500 : 600;
  const double rate = smoke ? 25.0 : 50.0;
  const double traffic_end = warmup + static_cast<double>(messages) / rate;

  harness::print_banner(
      std::cout,
      "EXT: adversarial fault models vs defenses (n=" + std::to_string(nodes) +
          ", fraction=" + fmt(fraction, 2) + ")",
      "behaviors on at t=" + fmt(behavior_at, 0) +
          " s, traffic from t=" + fmt(warmup, 0) +
          " s; defenses off vs on" + (smoke ? " [smoke gate]" : ""));

  // Job list: behavior × defenses × seed (+ the crash baseline in smoke
  // mode). Built up-front so Runner output order is the cell order.
  std::vector<Cell> cells;
  for (const std::string& behavior : behaviors) {
    for (bool defended : {false, true}) {
      for (std::size_t s = 0; s < seeds; ++s) {
        cells.push_back(Cell{behavior, fraction, defended, seed0 + s});
      }
    }
  }
  if (smoke) {
    for (std::size_t s = 0; s < seeds; ++s) {
      cells.push_back(Cell{"crash", fraction, false, seed0 + s});
    }
  }

  auto experiment = [&](std::size_t i) {
    const Cell& cell = cells[i];
    harness::ScenarioConfig config;
    config.protocol = harness::Protocol::kGoCast;
    config.node_count = nodes;
    config.seed = cell.seed;
    config.warmup = warmup;
    config.message_count = messages;
    config.message_rate = rate;
    config.payload_bytes = 512;
    config.loss_probability = kLinkLoss;
    // The guarantee under attack concerns honest participants: traffic is
    // sourced at honest nodes and delivery measured over honest nodes (an
    // ostracized adversary that can neither multicast nor receive is the
    // defense working). Applied to every cell, so off/on/crash compare the
    // same workload.
    config.exclude_adversaries = true;
    config.drain = smoke ? 15.0 : 30.0;
    config.fault_spec = spec_for(cell, behavior_at);
    // Sample eviction coverage when the traffic stops: during the silent
    // drain no new evidence can accrue against a re-connecting adversary.
    config.coverage_probe_at = traffic_end;
    if (cell.defenses) config.defense = core::DefenseProfile::kBase;
    return harness::run_scenario(config);
  };
  harness::Runner runner(args.get_count("threads", 0));
  std::vector<harness::ScenarioResult> results =
      runner.run<harness::ScenarioResult>(cells.size(), experiment);

  harness::Table table({"behavior", "defenses", "seed", "delivered", "p50",
                        "p99", "pulls", "audits", "retries exhausted",
                        "evictions", "median evict s", "adv-free"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::ScenarioResult& r = results[i];
    // Time-to-evict, measured from the moment the behavior switched on.
    std::vector<SimTime> evict_delays = r.eviction_times;
    for (SimTime& t : evict_delays) t -= behavior_at;
    std::sort(evict_delays.begin(), evict_delays.end());
    std::string median_evict =
        evict_delays.empty()
            ? "-"
            : fmt(evict_delays[evict_delays.size() / 2], 1);
    table.add_row({cell.behavior, cell.defenses ? "on" : "off",
                   std::to_string(cell.seed),
                   harness::fmt_pct(r.report.delivered_fraction, 3),
                   harness::fmt_ms(r.report.p50), harness::fmt_ms(r.report.p99),
                   std::to_string(r.pulls_sent), std::to_string(r.audits_sent),
                   std::to_string(r.pull_retries_exhausted),
                   std::to_string(r.suspects_evicted) + " (" +
                       std::to_string(r.adversary_evictions) + " adv)",
                   median_evict,
                   fmt(r.adversary_free_fraction, 3)});
  }
  table.print(std::cout);

  if (args.has("csv")) {
    std::string path = args.get("csv", "");
    std::ofstream out(path, std::ios::app);
    if (out.tellp() == 0) {
      out << "behavior,fraction,defenses,nodes,seed,delivered,p50_ms,p99_ms,"
             "pulls_sent,audits_sent,pull_retries_exhausted,evictions,"
             "adversary_free_fraction\n";
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      const harness::ScenarioResult& r = results[i];
      out << cell.behavior << "," << cell.fraction << ","
          << (cell.defenses ? 1 : 0) << "," << nodes << "," << cell.seed << ","
          << fmt(r.report.delivered_fraction, 6) << ","
          << fmt(r.report.p50 * 1000.0, 3) << ","
          << fmt(r.report.p99 * 1000.0, 3) << "," << r.pulls_sent << ","
          << r.audits_sent << "," << r.pull_retries_exhausted << ","
          << r.suspects_evicted << ","
          << fmt(r.adversary_free_fraction, 6) << "\n";
    }
    std::cout << "rows appended to " << path << "\n";
  }

  if (!smoke) return 0;

  // --- CI gate -------------------------------------------------------------
  // Per seed: defended delivery strictly above undefended, coverage >= 90%
  // at the end of the traffic window, and defended delivery within a small
  // tolerance of the equal-fraction crash baseline (a defended byzantine
  // population should cost little more than simply losing those nodes; the
  // epsilon absorbs the handful of pairs lost before detection converges).
  const double kCrashEps = 0.005;
  bool ok = true;
  for (std::size_t s = 0; s < seeds; ++s) {
    const harness::ScenarioResult& off = results[s];
    const harness::ScenarioResult& on = results[seeds + s];
    const harness::ScenarioResult& crash = results[2 * seeds + s];
    double d_off = off.report.delivered_fraction;
    double d_on = on.report.delivered_fraction;
    double d_crash = crash.report.delivered_fraction;
    std::cout << "\nsmoke seed " << (seed0 + s) << ": delivered off="
              << fmt(d_off, 4) << " on=" << fmt(d_on, 4)
              << " crash-baseline=" << fmt(d_crash, 4)
              << " adv-free=" << fmt(on.adversary_free_fraction, 3) << "\n";
    if (!(d_on > d_off)) {
      std::cout << "FAIL: defenses did not improve delivery\n";
      ok = false;
    }
    if (!(on.adversary_free_fraction >= 0.9)) {
      std::cout << "FAIL: adversaries evicted from < 90% of honest "
                   "neighbor sets\n";
      ok = false;
    }
    if (!(d_on >= d_crash - kCrashEps)) {
      std::cout << "FAIL: defended delivery below the crash baseline\n";
      ok = false;
    }
  }
  std::cout << (ok ? "\nbyzantine smoke: PASS\n" : "\nbyzantine smoke: FAIL\n");
  return ok ? 0 : 1;
}
