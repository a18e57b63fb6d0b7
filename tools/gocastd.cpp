// gocastd — live GoCast nodes over UDP sockets: GoCastNodeT<UdpContext>,
// the same protocol templates the simulator runs, each node behind its own
// non-blocking UDP socket.
//
// One deployment, laid out two ways:
//
//   Single process (default, --nodes N): N runtimes bind 127.0.0.1:0 in
//   this process, learn each other's ports, and share one thread through
//   runtime::pump. The one-command quickstart.
//
//   One node per process (--node-id / --listen / --peers): launch N
//   processes with the same --peers list, same --seed, and a shared --epoch
//   and they form one overlay.
//
// Either way every hosted node is set up by the same code: it knows the
// full membership, installs its incident links from the bootstrap link set
// every process derives from the seed, the lowest node id becomes the
// initial tree root, and --inject-at names the (non-root) node that
// multicasts. With --groups G every process also derives the same
// multi-group subscription table from the seed (no coordination), each
// extra group is ring-bootstrapped over its members, and the injector
// round-robins its multicasts over its subscribed groups.
//
// The process exits 0 once every node it hosts has delivered every expected
// multicast in every group it subscribes to (after a short --drain so
// laggards can still pull from it), 2 on timeout, 3 on bind/config errors.
// SIGTERM/SIGINT stop the run and exit with the delivery status so far. The
// quickstart therefore doubles as a smoke test (ctest, tools/check.sh).
//
// Flags: --nodes N | --node-id I --listen HOST:PORT --peers ID@HOST:PORT,...
//        --inject-at I --messages K --payload BYTES --warmup SECS
//        --timeout SECS --drain SECS --epoch UNIX_SECS --seed S --groups G
#include <algorithm>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gocast/group_directory.h"
#include "gocast/node.h"
#include "harness/args.h"
#include "harness/table.h"
#include "runtime/udp_runtime.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

extern "C" void handle_stop_signal(int) { g_stop = 1; }

void install_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: epoll_wait must see EINTR promptly
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
}

/// Parses "HOST:PORT"; returns false on malformed input.
bool parse_hostport(const std::string& s, std::string& host,
                    std::uint16_t& port) {
  std::size_t colon = s.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= s.size()) {
    return false;
  }
  host = s.substr(0, colon);
  long p = 0;
  try {
    p = std::stol(s.substr(colon + 1));
  } catch (...) {
    return false;
  }
  if (p < 1 || p > 65535) return false;
  port = static_cast<std::uint16_t>(p);
  return true;
}

/// Parses "ID@HOST:PORT,ID@HOST:PORT,..." into peer specs.
bool parse_peers(const std::string& s,
                 std::vector<gocast::runtime::UdpPeerSpec>& out) {
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    std::string item =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    pos = comma == std::string::npos ? s.size() : comma + 1;
    if (item.empty()) continue;
    std::size_t at = item.find('@');
    if (at == std::string::npos || at == 0) return false;
    gocast::runtime::UdpPeerSpec spec;
    try {
      spec.id = static_cast<gocast::NodeId>(std::stoul(item.substr(0, at)));
    } catch (...) {
      return false;
    }
    if (!parse_hostport(item.substr(at + 1), spec.host, spec.port)) {
      return false;
    }
    out.push_back(std::move(spec));
  }
  return !out.empty();
}

/// The deterministic bootstrap link set every process derives from the
/// shared seed: two random links per node over the sorted id list. Each
/// hosted node then installs only the links incident to itself.
std::set<std::pair<gocast::NodeId, gocast::NodeId>> bootstrap_links(
    const std::vector<gocast::NodeId>& ids, gocast::Rng& init_rng) {
  std::set<std::pair<gocast::NodeId, gocast::NodeId>> links;
  // Attempts are capped: a small deployment can saturate (2 nodes have only
  // one possible pair), and every process must run the identical number of
  // RNG draws to stay in lockstep.
  const std::size_t max_attempts = 16 * ids.size() + 64;
  for (gocast::NodeId id : ids) {
    std::size_t made = 0;
    for (std::size_t attempt = 0; made < 2 && attempt < max_attempts;
         ++attempt) {
      gocast::NodeId other = ids[init_rng.next_below(ids.size())];
      auto key = std::minmax(id, other);
      if (other == id || links.count({key.first, key.second})) continue;
      links.insert({key.first, key.second});
      ++made;
    }
  }
  return links;
}

using LiveNode = gocast::core::GoCastNodeT<gocast::runtime::UdpContext>;

/// One node this process hosts: its socket runtime, the protocol node on
/// it, and the multicasts it delivered — keyed by (group, id), since
/// per-group MsgId sequences overlap.
struct Hosted {
  std::unique_ptr<gocast::runtime::UdpRuntime> rt;  // outlives the node
  std::unique_ptr<LiveNode> node;
  std::map<std::pair<gocast::GroupId, gocast::MsgId>, std::size_t> delivered;
};

int run(const gocast::harness::Args& args) {
  using namespace gocast;

  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::size_t messages = args.get_count("messages", 4);
  const std::size_t payload = args.get_count("payload", 512);
  const std::size_t group_count = args.get_count("groups", 1);
  const double warmup = args.get_double("warmup", 2.0);
  const double timeout = args.get_double("timeout", 20.0);
  const double drain = args.get_double("drain", 1.0);

  // The runtimes this process hosts, and the full deployment id list.
  runtime::UdpConfig base;
  base.seed = seed;
  base.epoch_unix = args.get_double("epoch", 0.0);
  std::vector<runtime::UdpConfig> configs;
  std::vector<NodeId> ids;
  if (args.has("node-id") || args.has("listen") || args.has("peers")) {
    runtime::UdpConfig config = base;
    config.self = static_cast<NodeId>(args.get_count("node-id", 0));
    std::string listen = args.get("listen", "127.0.0.1:0");
    if (!parse_hostport(listen, config.listen_host, config.listen_port)) {
      std::cerr << "gocastd: bad --listen '" << listen << "'\n";
      return 3;
    }
    if (!parse_peers(args.get("peers", ""), config.peers)) {
      std::cerr << "gocastd: --node-id/--listen need --peers "
                   "ID@HOST:PORT,...\n";
      return 3;
    }
    // Every process receives the same --peers (including its own entry) so
    // the bootstrap derivation agrees.
    for (const auto& p : config.peers) ids.push_back(p.id);
    ids.push_back(config.self);
    configs.push_back(std::move(config));
  } else {
    const std::size_t n = args.get_count("nodes", 8);
    for (NodeId id = 0; id < n; ++id) {
      runtime::UdpConfig config = base;
      config.self = id;
      configs.push_back(config);
      ids.push_back(id);
    }
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.size() < 2) {
    std::cerr << "gocastd: need at least 2 nodes\n";
    return 3;
  }
  const NodeId root = ids.front();
  const NodeId inject_at =
      static_cast<NodeId>(args.get_count("inject-at", ids[1]));
  if (inject_at == root ||
      !std::binary_search(ids.begin(), ids.end(), inject_at)) {
    std::cerr << "gocastd: --inject-at must name a non-root node of the "
                 "deployment (root is "
              << root << ")\n";
    return 3;
  }
  if (group_count > 1 && ids.back() != ids.size() - 1) {
    std::cerr << "gocastd: --groups needs dense node ids 0.."
              << ids.size() - 1 << "\n";
    return 3;
  }

  std::vector<Hosted> hosted(configs.size());
  std::vector<runtime::UdpRuntime*> runtimes;
  try {
    for (std::size_t i = 0; i < configs.size(); ++i) {
      hosted[i].rt = std::make_unique<runtime::UdpRuntime>(configs[i]);
      runtimes.push_back(hosted[i].rt.get());
    }
  } catch (const runtime::UdpSetupError& e) {
    std::cerr << "gocastd: " << e.what() << "\n";
    return 3;
  }
  // Runtimes sharing this process learn each other's bound ports.
  for (auto* a : runtimes) {
    for (auto* b : runtimes) {
      if (a != b) a->add_peer(b->config().self, "127.0.0.1", b->port());
    }
  }
  install_signal_handlers();

  // Deployment-wide derivations, identical in every process. Protocol
  // periods are scaled for an interactive run: the defaults target long
  // simulated runs (15 s heartbeats), which would make a human wait.
  core::GoCastConfig config;
  config.tree.heartbeat_period = 0.25;
  config.dissemination.gossip_period = 0.1;
  for (std::size_t lm = 0; lm < std::min<std::size_t>(ids.size(), 4); ++lm) {
    config.landmarks.push_back(ids[lm]);
  }
  Rng rng(seed);
  Rng init_rng = rng.fork("init");
  const auto links = bootstrap_links(ids, init_rng);
  // The directory derives from (topology, n, seed) over the dense universe
  // [0, n), so every process computes identical subscriptions.
  std::shared_ptr<core::GroupDirectory> directory;
  std::vector<GroupId> inject_groups{kDefaultGroup};
  if (group_count > 1) {
    core::GroupTopology topology;
    topology.group_count = group_count;
    topology.min_group_size = 2;  // swarms are small; keep every group real
    directory =
        std::make_shared<core::GroupDirectory>(topology, ids.size(), seed);
    for (GroupId g : directory->groups_of(inject_at)) {
      inject_groups.push_back(g);
    }
  }
  const SimTime start_offset = init_rng.next_range(0.0, 0.1);

  std::vector<membership::MemberEntry> all(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) all[i].id = ids[i];
  for (Hosted& h : hosted) {
    const NodeId self = h.rt->config().self;
    h.node = std::make_unique<LiveNode>(
        self, *h.rt, config, rng.fork_sparse(static_cast<std::uint64_t>(self)));
    LiveNode& node = *h.node;
    std::vector<membership::MemberEntry> others;
    for (const auto& entry : all) {
      if (entry.id != self) others.push_back(entry);
    }
    node.seed_view(others);
    for (const auto& [a, b] : links) {
      if (a == self) node.bootstrap_link(b, overlay::LinkKind::kRandom);
      if (b == self) node.bootstrap_link(a, overlay::LinkKind::kRandom);
    }
    if (self == root) node.become_root();
    node.set_delivery_hook([&h](const core::DeliveryEvent& e) {
      ++h.delivered[{e.group, e.id}];
    });
    if (directory != nullptr) {
      node.enable_multigroup(directory);
      for (GroupId g : directory->groups_of(self)) node.join_group(g);
      // Ring-bootstrap each extra group over its sorted member list; the
      // lowest member roots the group's tree.
      for (GroupId g = 1; g < static_cast<GroupId>(group_count); ++g) {
        const std::vector<NodeId>& members = directory->members(g);
        if (members.size() >= 2) {
          const std::size_t ring = members.size() == 2 ? 1 : members.size();
          for (std::size_t i = 0; i < ring; ++i) {
            NodeId a = members[i];
            NodeId b = members[(i + 1) % members.size()];
            if (a == self) node.bootstrap_link(b, overlay::LinkKind::kRandom);
            if (b == self) node.bootstrap_link(a, overlay::LinkKind::kRandom);
          }
        }
        if (!members.empty() && members.front() == self) {
          node.become_root_in(g);
        }
      }
    }
    node.start(start_offset);
    h.rt->watch_stop_flag(&g_stop);
  }

  // Every hosted node must see every multicast from the injector in every
  // group it subscribes to (the injector included, via its own hook).
  auto delivered_all = [&](const Hosted& h) {
    const NodeId self = h.rt->config().self;
    std::map<GroupId, std::size_t> expect;
    for (std::size_t k = 0; k < messages; ++k) {
      const GroupId g = inject_groups[k % inject_groups.size()];
      if (g == kDefaultGroup || directory->subscribed(self, g)) ++expect[g];
    }
    for (const auto& [g, want] : expect) {
      std::size_t seen = 0;
      for (const auto& [key, count] : h.delivered) {
        if (key.first == g && key.second.origin == inject_at && count > 0) {
          ++seen;
        }
      }
      if (seen < want) return false;
    }
    return true;
  };
  auto stopped = [] { return g_stop != 0; };
  auto finished = [&] {
    return stopped() ||
           std::all_of(hosted.begin(), hosted.end(), delivered_all);
  };

  if (hosted.size() == 1) {
    const runtime::UdpRuntime& rt = *hosted.front().rt;
    std::cout << "gocastd: node " << rt.config().self << " on "
              << rt.config().listen_host << ":" << rt.port() << ", ";
  } else {
    std::cout << "gocastd: " << hosted.size() << " nodes on 127.0.0.1, ";
  }
  std::cout << ids.size() << "-node deployment, root " << root
            << ", warming up " << warmup << " s...\n";
  runtime::pump(runtimes, warmup, stopped);

  for (Hosted& h : hosted) {
    if (h.rt->config().self != inject_at || g_stop) continue;
    LiveNode* node = h.node.get();
    runtime::UdpRuntime* rt = h.rt.get();
    for (std::size_t k = 0; k < messages; ++k) {
      const GroupId group = inject_groups[k % inject_groups.size()];
      rt->schedule_after(0.05 * static_cast<double>(k),
                         [node, rt, payload, group] {
                           MsgId id = node->multicast_in(group, payload);
                           std::cout << "  t=" << rt->now()
                                     << " s: multicast " << id.origin << ":"
                                     << id.seq << " group " << group << "\n";
                         });
    }
  }

  runtime::pump(runtimes, timeout, finished);
  const bool complete =
      std::all_of(hosted.begin(), hosted.end(), delivered_all);

  // Keep forwarding briefly so nodes still catching up can pull from us —
  // a process that exits the instant it finishes starves the tail of the
  // swarm.
  if (!g_stop && drain > 0.0) runtime::pump(runtimes, drain, stopped);

  harness::Table table({"node", "deliveries", "duplicates", "degree",
                        "udp sent", "received", "rejected", "send failures"});
  for (const Hosted& h : hosted) {
    const auto& stats = h.rt->stats();
    table.add_row({std::to_string(h.node->id()),
                   std::to_string(h.node->deliveries_count()),
                   std::to_string(h.node->duplicates_count()),
                   std::to_string(h.node->overlay().degree()),
                   std::to_string(stats.datagrams_sent),
                   std::to_string(stats.datagrams_received),
                   std::to_string(stats.rejected_frames),
                   std::to_string(stats.send_failures)});
  }
  table.print(std::cout);
  if (g_stop) std::cout << "gocastd: interrupted\n";
  if (!complete) {
    std::cout << "FAILED: incomplete delivery\n";
    return 2;
  }
  std::cout << "OK: "
            << (hosted.size() == 1
                    ? "node " + std::to_string(hosted.front().node->id())
                    : "all " + std::to_string(hosted.size()) + " nodes")
            << " delivered every multicast"
            << (group_count > 1 ? " in every subscribed group" : "") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gocast;

  harness::Args args(argc, argv,
                     {"nodes", "messages", "payload", "warmup", "seed",
                      "node-id", "listen", "peers", "inject-at", "timeout",
                      "drain", "epoch", "groups", "help"});
  if (args.get_bool("help", false)) {
    std::cout
        << "gocastd — run live GoCast nodes over UDP sockets\n"
           "one process: --nodes N [8]   (N nodes on 127.0.0.1 ports)\n"
           "per process: --node-id I --listen HOST:PORT --peers "
           "ID@HOST:PORT,...\n"
           "             --epoch UNIX_SECS\n"
           "both:        --inject-at I [second-lowest id] --messages K [4]\n"
           "             --payload BYTES [512] --warmup SECS [2.0]\n"
           "             --timeout SECS [20] --drain SECS [1.0] --seed S [1]\n"
           "             --groups G [1]   (deterministic multi-group "
           "subscriptions\n"
           "             from the seed; the injector round-robins its "
           "groups and\n"
           "             exit status covers every subscribed group)\n"
           "exit: 0 full delivery, 2 timeout/incomplete, 3 bind/config "
           "error\n";
    return 0;
  }
  return run(args);
}
