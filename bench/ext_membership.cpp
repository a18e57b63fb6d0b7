// EXT — Hostile membership dynamics: flash crowds, colluding cliques, and
// join-path eclipse rings vs the §9 join/collusion defenses (PR 10).
//
// Cells (per seed):
//   flash   · off   — honest flash crowd (25% mass join): per-join cost
//                     instrumentation (messages, time-to-first-delivery,
//                     time-to-degree-band) against the PAPERS.md yardstick
//   mute    · base  — PR 5 independent free-riders under the PR 5 defenses:
//                     the baseline collusion is measured against
//   clique  · base  — colluding free-riders (mutual audit cover) vs the same
//                     defenses: eviction coverage collapses (the answered
//                     audit wipes the score)
//   clique  · full  — + cover-detection: contribution-signature eviction
//                     restores coverage and delivery
//   eclipse · base  — join-path monopolists poisoning a flash crowd's
//                     candidate sets: joiners' neighbor sets fill with ring
//                     members
//   eclipse · full  — + candidate diversity cap and multi-source
//                     corroboration: joiner adversary-link fraction drops
//
// --smoke turns the bench into the CI gate from the ISSUE: n=192 flash crowd
// (25% mass join) plus a 10% colluding clique, defenses base vs full,
// asserting defended delivery >= undefended, >= 80% of clique members
// evicted somewhere, and a clean (unexpected-)invariant record. Exit status
// reports the verdict.
//
// Flags: --nodes N --fraction F --seeds K --seed0 S --warmup S --csv FILE
//        --threads N --smoke. Byte-identical output at any --threads (cells
// are merged in index order; every decision derives from the cell's seed).
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/table.h"

namespace {

using namespace gocast;

struct Cell {
  std::string kind;  // flash | mute | clique | eclipse
  std::string tier;  // off | base | full (core::DefenseProfile)
  std::uint64_t seed = 0;
};

/// Same rationale as ext_byzantine: mild link loss is what gives the attacks
/// teeth — lost tree pushes force pull recovery, the path adversaries poison.
constexpr double kLinkLoss = 0.03;

double median(std::vector<double> v) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// |evicted ∩ colluders| / |colluders| — the clique-eviction coverage gate.
double clique_coverage(const harness::ScenarioResult& r) {
  if (r.colluders.empty()) return 1.0;
  std::size_t hit = 0;
  for (NodeId id : r.colluders) {
    if (std::binary_search(r.evicted_adversaries.begin(),
                           r.evicted_adversaries.end(), id)) {
      ++hit;
    }
  }
  return static_cast<double>(hit) / static_cast<double>(r.colluders.size());
}

}  // namespace

int main(int argc, char** argv) {
  using harness::fmt;

  harness::Args args(argc, argv,
                     {"nodes", "fraction", "seeds", "seed0", "warmup", "csv",
                      "threads", "smoke", "help"});
  if (args.get_bool("help", false)) {
    std::cout
        << "ext_membership — flash crowds + colluding/eclipse adversaries vs "
           "join-path defenses\n"
           "flags: --nodes N [256] --fraction F [0.1] --seeds K [2]\n"
           "       --seed0 S [31] --warmup SECS [120] --csv FILE\n"
           "       --threads N [0 = auto] --smoke (CI gate: flash+clique,\n"
           "        asserts defended delivery >= undefended, >= 80% clique\n"
           "        eviction, invariants clean)\n";
    return 0;
  }

  const bool smoke = args.get_bool("smoke", false);
  std::size_t nodes =
      args.get_count("nodes", smoke ? 192 : scaled_count(256, 64));
  double fraction = args.get_double("fraction", 0.1);
  std::size_t seeds = args.get_count("seeds", smoke ? 1 : 2);
  std::uint64_t seed0 = static_cast<std::uint64_t>(args.get_int("seed0", 31));
  double warmup = args.get_double("warmup", env_double("GOCAST_WARMUP", 120.0));

  // 25% of the final population arrives as a flash crowd at traffic start.
  const std::size_t deferred = nodes / 4;
  const double flash_ramp = 5.0;
  const double behavior_lead = 20.0;  // adversaries on before traffic
  const double behavior_at = warmup - behavior_lead;
  // Long sustained window: cover strikes and blacklists only accrue while
  // traffic flows (same reasoning as the byzantine smoke gate).
  const std::size_t messages = smoke ? 4500 : 600;
  const double rate = smoke ? 25.0 : 50.0;
  const double traffic_end = warmup + static_cast<double>(messages) / rate;

  harness::print_banner(
      std::cout,
      "EXT: hostile membership dynamics (n=" + std::to_string(nodes) +
          ", flash=" + std::to_string(deferred) +
          ", fraction=" + fmt(fraction, 2) + ")",
      "flash crowd at t=" + fmt(warmup, 0) + " s (ramp " + fmt(flash_ramp, 0) +
          " s); adversaries on at t=" + fmt(behavior_at, 0) +
          " s; defenses base (PR 5) vs full (+cover, +join hardening)" +
          (smoke ? " [smoke gate]" : ""));

  std::vector<Cell> cells;
  if (smoke) {
    for (std::size_t s = 0; s < seeds; ++s) {
      cells.push_back(Cell{"clique", "base", seed0 + s});
      cells.push_back(Cell{"clique", "full", seed0 + s});
    }
  } else {
    for (std::size_t s = 0; s < seeds; ++s) {
      cells.push_back(Cell{"flash", "off", seed0 + s});
      cells.push_back(Cell{"mute", "base", seed0 + s});
      cells.push_back(Cell{"clique", "base", seed0 + s});
      cells.push_back(Cell{"clique", "full", seed0 + s});
      cells.push_back(Cell{"eclipse", "base", seed0 + s});
      cells.push_back(Cell{"eclipse", "full", seed0 + s});
    }
  }

  auto experiment = [&](std::size_t i) {
    const Cell& cell = cells[i];
    harness::ScenarioConfig config;
    config.protocol = harness::Protocol::kGoCast;
    config.node_count = nodes;
    config.deferred_nodes = deferred;
    config.seed = cell.seed;
    config.warmup = warmup;
    config.message_count = messages;
    config.message_rate = rate;
    config.payload_bytes = 512;
    config.loss_probability = kLinkLoss;
    config.exclude_adversaries = true;
    config.drain = 15.0;
    config.coverage_probe_at = traffic_end;

    // Every cell joins the flash crowd at traffic start; adversarial cells
    // additionally install their population before it (the eclipse ring is
    // converged and waiting when the joiners arrive).
    std::ostringstream spec;
    spec.precision(17);
    if (cell.kind == "mute") {
      spec << behavior_at << ":mute_forwarder:frac=" << fraction << "; ";
    } else if (cell.kind == "clique") {
      spec << behavior_at << ":clique:frac=" << fraction << "; ";
    } else if (cell.kind == "eclipse") {
      spec << behavior_at << ":eclipse:frac=" << fraction << "; ";
    }
    spec << warmup << ":flash:n=" << deferred << ",ramp=" << flash_ramp;
    config.fault_spec = spec.str();

    if (cell.tier == "base") config.defense = core::DefenseProfile::kBase;
    if (cell.tier == "full") config.defense = core::DefenseProfile::kFull;
    if (smoke) config.check_invariants = true;
    return harness::run_scenario(config);
  };
  harness::Runner runner(args.get_count("threads", 0));
  std::vector<harness::ScenarioResult> results =
      runner.run<harness::ScenarioResult>(cells.size(), experiment);

  harness::Table table({"cell", "defenses", "seed", "delivered", "p99",
                        "joins", "join msgs (med)", "t-first (med)",
                        "t-band (med)", "clique evict", "adv links",
                        "adv-free"});
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const harness::ScenarioResult& r = results[i];
    std::vector<double> join_msgs;
    std::vector<double> join_first;
    std::vector<double> join_band;
    for (const auto& j : r.joins) {
      join_msgs.push_back(static_cast<double>(j.messages));
      if (j.first_delivery >= 0.0) join_first.push_back(j.first_delivery);
      if (j.to_band >= 0.0) join_band.push_back(j.to_band);
    }
    auto opt = [](double v, int prec) {
      return v < 0.0 ? std::string("-") : harness::fmt(v, prec);
    };
    table.add_row(
        {cell.kind, cell.tier, std::to_string(cell.seed),
         harness::fmt_pct(r.report.delivered_fraction, 3),
         harness::fmt_ms(r.report.p99), std::to_string(r.joins.size()),
         opt(median(join_msgs), 0), opt(median(join_first), 2),
         opt(median(join_band), 1),
         r.colluders.empty() ? "-" : harness::fmt_pct(clique_coverage(r), 0),
         fmt(r.joiner_adversary_link_fraction, 3),
         fmt(r.adversary_free_fraction, 3)});
  }
  table.print(std::cout);

  if (args.has("csv")) {
    std::string path = args.get("csv", "");
    std::ofstream out(path, std::ios::app);
    if (out.tellp() == 0) {
      out << "cell,tier,nodes,fraction,seed,delivered,p99_ms,joins,"
             "join_msgs_median,join_first_delivery_median_s,"
             "join_to_band_median_s,clique_coverage,"
             "joiner_adversary_link_fraction,adversary_free_fraction,"
             "cover_evictions\n";
    }
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const Cell& cell = cells[i];
      const harness::ScenarioResult& r = results[i];
      std::vector<double> join_msgs;
      std::vector<double> join_first;
      std::vector<double> join_band;
      for (const auto& j : r.joins) {
        join_msgs.push_back(static_cast<double>(j.messages));
        if (j.first_delivery >= 0.0) join_first.push_back(j.first_delivery);
        if (j.to_band >= 0.0) join_band.push_back(j.to_band);
      }
      out << cell.kind << "," << cell.tier << "," << nodes << "," << fraction
          << "," << cell.seed << ","
          << fmt(r.report.delivered_fraction, 6) << ","
          << fmt(r.report.p99 * 1000.0, 3) << "," << r.joins.size() << ","
          << fmt(median(join_msgs), 1) << "," << fmt(median(join_first), 4)
          << "," << fmt(median(join_band), 2) << ","
          << fmt(clique_coverage(r), 4) << ","
          << fmt(r.joiner_adversary_link_fraction, 6) << ","
          << fmt(r.adversary_free_fraction, 6) << "," << r.cover_evictions
          << "\n";
    }
    std::cout << "rows appended to " << path << "\n";
  }

  if (!smoke) return 0;

  // --- CI gate -------------------------------------------------------------
  bool ok = true;
  for (std::size_t s = 0; s < seeds; ++s) {
    const harness::ScenarioResult& base = results[2 * s];
    const harness::ScenarioResult& full = results[2 * s + 1];
    double d_base = base.report.delivered_fraction;
    double d_full = full.report.delivered_fraction;
    double coverage = clique_coverage(full);
    std::cout << "\nsmoke seed " << (seed0 + s) << ": delivered base="
              << fmt(d_base, 4) << " full=" << fmt(d_full, 4)
              << " clique-eviction=" << fmt(coverage, 3) << " joins="
              << full.joins.size() << " evictions="
              << full.suspects_evicted << " (" << full.adversary_evictions
              << " adv, " << full.cover_evictions
              << " cover) unexpected-violations="
              << full.invariant_violations.size() << "\n";
    // Half a percent of slack: both cells sit above 99% and differ by a
    // handful of per-message loss draws; the gate is "defenses do not cost
    // delivery", not a coin-flip on the fourth decimal.
    if (!(d_full >= d_base - 0.005)) {
      std::cout << "FAIL: full defenses delivered less than base\n";
      ok = false;
    }
    if (!(coverage >= 0.8)) {
      std::cout << "FAIL: < 80% of clique members were ever evicted\n";
      ok = false;
    }
    if (full.joins.size() != deferred) {
      std::cout << "FAIL: expected " << deferred << " instrumented joins\n";
      ok = false;
    }
    if (!full.invariant_violations.empty()) {
      std::cout << "FAIL: unexpected invariant violations:\n";
      for (const std::string& v : full.invariant_violations) {
        std::cout << "  " << v << "\n";
      }
      ok = false;
    }
  }
  std::cout << (ok ? "\nmembership smoke: PASS\n" : "\nmembership smoke: FAIL\n");
  return ok ? 0 : 1;
}
