// gocast_sim — the command-line simulator driver (the artifact equivalent
// of the paper's evaluation tool): runs any of the five protocols through
// the standard warmup/failure/injection/drain phases and reports the delay
// distribution, optionally exporting CSVs.
//
// Examples:
//   gocast_sim --protocol gocast --nodes 1024 --messages 1000
//   gocast_sim --protocol gossip --fanout 5 --nodes 1024 --fail 0.2
//   gocast_sim --protocol gocast --f 0.3 --csv run.csv --curve curve.csv
#include <algorithm>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/args.h"
#include "harness/csv.h"
#include "harness/scenario.h"
#include "harness/table.h"

namespace {

void usage() {
  std::cout <<
      "gocast_sim — GoCast protocol simulator\n\n"
      "flags:\n"
      "  --protocol  gocast | proximity | random | gossip | no-wait  [gocast]\n"
      "  --nodes     system size                                     [1024]\n"
      "  --seed      RNG seed                                        [1]\n"
      "  --warmup    adaptation seconds before injection             [300]\n"
      "  --messages  multicast messages to inject                    [200]\n"
      "  --rate      injection rate, messages/second                 [100]\n"
      "  --payload   payload bytes per message                       [1024]\n"
      "  --fail      fraction of nodes failing after warmup          [0]\n"
      "  --repair    keep repairing after failures (true/false)      [false]\n"
      "  --f         pull-delay threshold seconds (GoCast)           [0]\n"
      "  --fanout    gossip fanout (baselines)                       [5]\n"
      "  --drain     seconds to run after the last injection         [30]\n"
      "  --shards    sharded-PDES engines (GoCast-family; results are\n"
      "              byte-identical at any count — DESIGN.md §11)    [1]\n"
      "  --faults    scripted fault plan (GoCast-family), e.g.\n"
      "              \"330:crash:frac=0.2; 400:partition:frac=0.3; 460:heal\"\n"
      "              or \"130:mute_forwarder:frac=0.1; 300:cure\"\n"
      "              or \"60:session:dist=gnutella,rate=2,until=240\"\n"
      "              kinds: crash recover crash_site partition heal degrade\n"
      "              restore loss mute_forwarder digest_liar degree_liar\n"
      "              slow cure session flash clique eclipse — see\n"
      "              docs/PROTOCOL.md for the grammar\n"
      "  --deferred  nodes held back at start as the join pool for\n"
      "              session/flash churn events                       [0]\n"
      "  --invariants  run the protocol invariant checker (true/false) [false]\n"
      "  --csv       append a summary row to this file\n"
      "  --curve     write the delay CDF to this file\n"
      "  --help      this text\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gocast;

  harness::Args args(argc, argv,
                     {"protocol", "nodes", "seed", "warmup", "messages", "rate",
                      "payload", "fail", "repair", "f", "fanout", "drain",
                      "shards", "faults", "deferred", "invariants", "csv",
                      "curve", "help"});
  if (args.get_bool("help", false)) {
    usage();
    return 0;
  }

  harness::ScenarioConfig config;
  std::string protocol = args.get("protocol", "gocast");
  if (protocol == "gocast") {
    config.protocol = harness::Protocol::kGoCast;
  } else if (protocol == "proximity") {
    config.protocol = harness::Protocol::kProximityOverlay;
  } else if (protocol == "random") {
    config.protocol = harness::Protocol::kRandomOverlay;
  } else if (protocol == "gossip") {
    config.protocol = harness::Protocol::kPushGossip;
  } else if (protocol == "no-wait") {
    config.protocol = harness::Protocol::kNoWaitGossip;
  } else {
    std::cerr << "unknown --protocol " << protocol << "\n";
    usage();
    return 2;
  }

  config.node_count = args.get_count("nodes", 1024);
  config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.warmup = args.get_double("warmup", 300.0);
  config.message_count = args.get_count("messages", 200);
  config.message_rate = args.get_double("rate", 100.0);
  config.payload_bytes = args.get_count("payload", 1024);
  config.fail_fraction = args.get_double("fail", 0.0);
  config.freeze_after_failure = !args.get_bool("repair", false);
  config.pull_delay_threshold = args.get_double("f", 0.0);
  config.fanout = static_cast<int>(args.get_int("fanout", 5));
  config.drain = args.get_double("drain", 30.0);
  config.fault_spec = args.get("faults", "");
  config.deferred_nodes = args.get_count("deferred", 0);
  config.check_invariants = args.get_bool("invariants", false);
  config.shards = args.get_count("shards", 1);

  std::cout << "running " << harness::protocol_name(config.protocol) << ", "
            << config.node_count << " nodes, " << config.message_count
            << " messages";
  if (config.shards > 1) std::cout << ", " << config.shards << " shards";
  if (config.fail_fraction > 0.0) {
    std::cout << ", " << harness::fmt_pct(config.fail_fraction, 0)
              << " failures (" << (config.freeze_after_failure ? "no repair" : "repair on")
              << ")";
  }
  std::cout << "...\n";

  auto result = harness::run_scenario(config);
  const auto& r = result.report;

  harness::Table table({"metric", "value"});
  table.add_row({"live nodes", std::to_string(result.alive_nodes)});
  table.add_row({"delivered pairs", harness::fmt_pct(r.delivered_fraction, 3)});
  table.add_row({"mean delay", harness::fmt_ms(r.delay.mean())});
  table.add_row({"p50 / p90 / p99", harness::fmt_ms(r.p50) + " / " +
                                        harness::fmt_ms(r.p90) + " / " +
                                        harness::fmt_ms(r.p99)});
  table.add_row({"max delay", harness::fmt_ms(r.max_delay)});
  table.add_row({"receptions per delivery", harness::fmt(result.redundancy(), 4)});
  table.add_row(
      {"data MB sent",
       harness::fmt(static_cast<double>(
                        result.traffic.kind(net::MsgKind::kData).bytes) /
                        (1024.0 * 1024.0),
                    2)});
  table.add_row(
      {"gossip MB sent",
       harness::fmt(static_cast<double>(
                        result.traffic.kind(net::MsgKind::kGossipDigest).bytes) /
                        (1024.0 * 1024.0),
                    2)});
  if (!result.joins.empty()) {
    std::vector<double> band;
    double messages = 0.0;
    std::size_t banded = 0;
    for (const auto& j : result.joins) {
      messages += static_cast<double>(j.messages);
      if (j.to_band >= 0.0) {
        band.push_back(j.to_band);
        ++banded;
      }
    }
    std::sort(band.begin(), band.end());
    table.add_row({"churn joins", std::to_string(result.joins.size())});
    table.add_row({"joins reaching degree band",
                   std::to_string(banded) + " / " +
                       std::to_string(result.joins.size())});
    if (!band.empty()) {
      table.add_row({"median time to degree band",
                     harness::fmt(band[band.size() / 2], 1) + " s"});
    }
    table.add_row(
        {"mean join messages",
         harness::fmt(messages / static_cast<double>(result.joins.size()), 1)});
  }
  {
    // Hex digest of the recorded deliveries; the pdes-smoke check greps this
    // row and asserts it is identical across shard counts.
    std::ostringstream checksum;
    checksum << std::hex << std::setw(16) << std::setfill('0')
             << result.delivery_checksum;
    table.add_row({"delivery checksum", checksum.str()});
  }
  table.print(std::cout);

  if (!result.fault_log.empty()) {
    std::cout << "\nfault timeline:\n";
    for (const std::string& line : result.fault_log) {
      std::cout << "  " << line << "\n";
    }
  }
  if (config.check_invariants) {
    if (result.invariant_violations.empty()) {
      std::cout << "\ninvariants: no violations\n";
    } else {
      std::cout << "\ninvariant violations ("
                << result.invariant_violations.size() << "):\n";
      for (const std::string& line : result.invariant_violations) {
        std::cout << "  " << line << "\n";
      }
    }
    if (!result.expected_violations.empty()) {
      // Attack damage, reported separately: violations the checker
      // attributed to active adversarial victims are expected while the
      // behavior lasts and are not protocol failures.
      std::cout << "expected violations from adversarial victims ("
                << result.expected_violations.size() << "):\n";
      for (const std::string& line : result.expected_violations) {
        std::cout << "  " << line << "\n";
      }
    }
  }

  if (args.has("csv")) {
    harness::append_summary_csv(args.get("csv", ""), protocol,
                                config.node_count, config.fail_fraction, result);
    std::cout << "summary appended to " << args.get("csv", "") << "\n";
  }
  if (args.has("curve")) {
    harness::write_curve_csv(args.get("curve", ""), result.curve);
    std::cout << "delay CDF written to " << args.get("curve", "") << "\n";
  }
  return 0;
}
