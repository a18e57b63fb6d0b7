// gocastd — a live GoCast node (or a whole deployment) in one process.
//
// Two modes run the same protocol templates the simulator runs:
//
//   Loopback (default): GoCastNodeT<runtime::RealtimeContext> for N nodes
//   over the in-process loopback transport — timers sleep on the steady
//   clock, sends are delivered after an injected per-hop latency.
//
//   UDP (--node-id / --listen / --peers): GoCastNodeT<runtime::UdpContext>
//   for ONE node behind a real non-blocking UDP socket. Launch N processes
//   with the same --peers list, same --seed, and a shared --epoch and they
//   form one overlay: every process derives the same deterministic
//   bootstrap link set from the seed and installs the links incident to
//   itself, the lowest node id becomes the initial tree root, and
//   --inject-at names the (non-root) node that multicasts. Each process
//   exits 0 once it has delivered every expected multicast (after a short
//   --drain so laggards can still pull from it), 2 on timeout, 3 on
//   bind/config errors. SIGTERM/SIGINT interrupt the reactor, drain
//   briefly, and exit with the delivery status so far.
//
//   --groups G (UDP mode) derives a deterministic multi-group subscription
//   table from the shared seed (every process computes the same directory,
//   no coordination), the injector round-robins its multicasts over its
//   subscribed groups, and the exit code covers delivery in every group
//   this process subscribes to.
//
// Exit status is 0 only when delivery was complete — the quickstart doubles
// as a smoke test (tools/check.sh and CI run both modes).
//
// Loopback flags: --nodes N --messages K --payload BYTES --warmup SECS
//                 --latency-us U --jitter-us U --seed S
// UDP flags:      --node-id I --listen HOST:PORT --peers ID@HOST:PORT,...
//                 --inject-at I --messages K --payload BYTES --warmup SECS
//                 --timeout SECS --drain SECS --epoch UNIX_SECS --seed S
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
#include "runtime/realtime_runtime.h"
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
/// shared seed: two random links per node over the sorted id list, exactly
/// the wiring the loopback mode performs imperatively. Each process then
/// installs only the links incident to itself.
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

int run_udp_mode(const gocast::harness::Args& args) {
  using namespace gocast;

  runtime::UdpConfig rt_config;
  rt_config.self = static_cast<NodeId>(args.get_int("node-id", 0));
  rt_config.epoch_unix = args.get_double("epoch", 0.0);
  rt_config.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  std::string listen = args.get("listen", "127.0.0.1:0");
  if (!parse_hostport(listen, rt_config.listen_host, rt_config.listen_port)) {
    std::cerr << "gocastd: bad --listen '" << listen << "'\n";
    return 3;
  }
  if (!parse_peers(args.get("peers", ""), rt_config.peers)) {
    std::cerr << "gocastd: UDP mode needs --peers ID@HOST:PORT,...\n";
    return 3;
  }

  // The full deployment id list: every process receives the same --peers
  // (including its own entry) so the bootstrap derivation agrees.
  std::vector<NodeId> ids;
  for (const auto& p : rt_config.peers) ids.push_back(p.id);
  ids.push_back(rt_config.self);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  if (ids.size() < 2) {
    std::cerr << "gocastd: need at least 2 nodes\n";
    return 3;
  }
  const NodeId self = rt_config.self;
  const NodeId root = ids.front();
  const NodeId inject_at = static_cast<NodeId>(
      args.get_int("inject-at", static_cast<long>(ids[1])));
  if (inject_at == root) {
    std::cerr << "gocastd: --inject-at must name a non-root node (root is "
              << root << ")\n";
    return 3;
  }
  const std::size_t messages =
      static_cast<std::size_t>(args.get_int("messages", 4));
  const std::size_t payload =
      static_cast<std::size_t>(args.get_int("payload", 512));
  const double warmup = args.get_double("warmup", 2.0);
  const double timeout = args.get_double("timeout", 20.0);
  const double drain = args.get_double("drain", 1.0);

  std::unique_ptr<runtime::UdpRuntime> rt;
  try {
    rt = std::make_unique<runtime::UdpRuntime>(rt_config);
  } catch (const runtime::UdpSetupError& e) {
    std::cerr << "gocastd: " << e.what() << "\n";
    return 3;
  }
  install_signal_handlers();
  rt->watch_stop_flag(&g_stop);

  core::GoCastConfig config;
  config.tree.heartbeat_period = 0.25;
  config.dissemination.gossip_period = 0.1;
  for (std::size_t lm = 0; lm < std::min<std::size_t>(ids.size(), 4); ++lm) {
    config.landmarks.push_back(ids[lm]);
  }

  using LiveNode = core::GoCastNodeT<runtime::UdpContext>;
  Rng rng(rt_config.seed);
  // Fork per id exactly as the loopback mode does, so every process draws
  // the same per-node stream regardless of which node it hosts.
  SparseRng node_rng(0);
  for (NodeId id : ids) {
    SparseRng forked = rng.fork_sparse(static_cast<std::uint64_t>(id));
    if (id == self) node_rng = forked;
  }
  LiveNode node(self, *rt, config, node_rng);

  std::vector<membership::MemberEntry> others;
  for (NodeId id : ids) {
    if (id == self) {
      continue;
    }
    membership::MemberEntry entry;
    entry.id = id;
    others.push_back(entry);
  }
  node.seed_view(others);

  Rng init_rng = rng.fork("init");
  for (const auto& [a, b] : bootstrap_links(ids, init_rng)) {
    if (a == self) node.bootstrap_link(b, overlay::LinkKind::kRandom);
    if (b == self) node.bootstrap_link(a, overlay::LinkKind::kRandom);
  }
  if (self == root) node.become_root();

  // Keyed by (group, id): per-group MsgId sequences overlap, so the group
  // is part of a delivery's identity.
  std::map<std::pair<GroupId, MsgId>, std::size_t> delivered;
  node.set_delivery_hook([&delivered](const core::DeliveryEvent& e) {
    ++delivered[{e.group, e.id}];
  });

  // Multi-group deployment (--groups G): the directory derives from
  // (topology, n, seed) over the dense universe [0, n), so every process
  // computes identical subscriptions with zero coordination. The injector
  // round-robins its multicasts over its own subscribed groups, and each
  // process's exit code covers every group it subscribes to.
  const std::size_t group_count =
      static_cast<std::size_t>(args.get_int("groups", 1));
  std::shared_ptr<core::GroupDirectory> directory;
  std::vector<GroupId> inject_groups{kDefaultGroup};
  if (group_count > 1) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] != static_cast<NodeId>(i)) {
        std::cerr << "gocastd: --groups needs dense node ids 0.."
                  << ids.size() - 1 << "\n";
        return 3;
      }
    }
    core::GroupTopology topology;
    topology.group_count = group_count;
    topology.min_group_size = 2;  // swarms are small; keep every group real
    directory = std::make_shared<core::GroupDirectory>(topology, ids.size(),
                                                       rt_config.seed);
    node.enable_multigroup(directory);
    for (GroupId g : directory->groups_of(self)) node.join_group(g);
    // Ring-bootstrap each extra group over its sorted member list (every
    // process derives the same ring and installs the links incident to
    // itself); the lowest member roots the group's tree.
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
      if (!members.empty() && members.front() == self) node.become_root_in(g);
    }
    for (GroupId g : directory->groups_of(inject_at)) {
      inject_groups.push_back(g);
    }
  }

  node.start(init_rng.next_range(0.0, 0.1));
  std::cout << "gocastd: node " << self << " on " << rt_config.listen_host
            << ":" << rt->port() << ", " << ids.size()
            << "-node deployment, root " << root << ", warming up " << warmup
            << " s...\n";
  rt->run_for(warmup);

  if (self == inject_at && !g_stop) {
    for (std::size_t k = 0; k < messages; ++k) {
      const GroupId group = inject_groups[k % inject_groups.size()];
      rt->schedule_after(0.05 * static_cast<double>(k),
                         [&node, &rt, payload, group] {
                           MsgId id = node.multicast_in(group, payload);
                           std::cout << "  t=" << rt->now()
                                     << " s: multicast " << id.origin << ":"
                                     << id.seq << " group " << group << "\n";
                         });
    }
  }

  // Count multicasts from the injector that reached this node, per group;
  // every process must see all of them in every group it subscribes to
  // (the injector included, via its own delivery hook).
  auto delivered_all = [&] {
    std::map<GroupId, std::size_t> expect;
    for (std::size_t k = 0; k < messages; ++k) {
      const GroupId g = inject_groups[k % inject_groups.size()];
      if (g == kDefaultGroup ||
          (directory != nullptr && directory->subscribed(self, g))) {
        ++expect[g];
      }
    }
    for (const auto& [g, want] : expect) {
      std::size_t seen = 0;
      for (const auto& [key, count] : delivered) {
        if (key.first == g && key.second.origin == inject_at && count > 0) {
          ++seen;
        }
      }
      if (seen < want) return false;
    }
    return true;
  };

  const SimTime deadline = rt->now() + timeout;
  while (!g_stop && !delivered_all() && rt->now() < deadline) {
    rt->run_for(0.1);
  }
  const bool complete = delivered_all();

  // Keep forwarding briefly so nodes still catching up can pull from us —
  // a process that exits the instant it finishes starves the tail of the
  // swarm.
  if (!g_stop && drain > 0.0) rt->run_for(drain);

  const auto& stats = rt->stats();
  std::cout << "gocastd: node " << self << (g_stop ? " (interrupted)" : "")
            << ": delivered " << node.deliveries_count() << ", duplicates "
            << node.duplicates_count() << ", degree "
            << node.overlay().degree() << "  (udp: " << stats.datagrams_sent
            << " sent, " << stats.datagrams_received << " received, "
            << stats.rejected_frames << " rejected, " << stats.send_failures
            << " send failures)\n";
  if (!complete) {
    std::cout << "FAILED: incomplete delivery\n";
    return 2;
  }
  if (group_count > 1) {
    std::cout << "OK: node " << self << " delivered every multicast in all "
              << (1 + directory->groups_of(self).size())
              << " subscribed groups\n";
  } else {
    std::cout << "OK: node " << self << " delivered every multicast\n";
  }
  return 0;
}

int run_loopback_mode(const gocast::harness::Args& args) {
  using namespace gocast;

  const std::size_t n = static_cast<std::size_t>(args.get_int("nodes", 8));
  const std::size_t messages =
      static_cast<std::size_t>(args.get_int("messages", 4));
  const std::size_t payload =
      static_cast<std::size_t>(args.get_int("payload", 512));
  const double warmup = args.get_double("warmup", 2.0);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (n < 2) {
    std::cerr << "gocastd: need at least 2 nodes\n";
    return 3;
  }
  if (args.get_int("groups", 1) > 1) {
    std::cerr << "gocastd: --groups is a UDP-mode flag (use --node-id / "
                 "--listen / --peers)\n";
    return 3;
  }

  runtime::RealtimeConfig rt_config;
  rt_config.one_way_latency = args.get_double("latency-us", 200.0) * 1e-6;
  rt_config.jitter = args.get_double("jitter-us", 50.0) * 1e-6;
  rt_config.seed = seed;
  runtime::RealtimeRuntime rt(rt_config);
  for (std::size_t i = 0; i < n; ++i) rt.add_node();
  install_signal_handlers();

  // Protocol periods scaled for an interactive demo: the defaults target
  // long simulated runs (15 s heartbeats), which would make a human wait.
  core::GoCastConfig config;
  config.tree.heartbeat_period = 0.25;
  config.dissemination.gossip_period = 0.1;
  for (NodeId lm = 0; lm < std::min<std::size_t>(n, 4); ++lm) {
    config.landmarks.push_back(lm);
  }

  using LiveNode = core::GoCastNodeT<runtime::RealtimeContext>;
  Rng rng(seed);
  std::vector<std::unique_ptr<LiveNode>> nodes;
  nodes.reserve(n);
  for (NodeId id = 0; id < n; ++id) {
    nodes.push_back(std::make_unique<LiveNode>(
        id, rt, config, rng.fork_sparse(static_cast<std::uint64_t>(id))));
  }

  // Same initialization a deployment's bootstrap service would provide:
  // every node knows the full (small) membership and starts with two random
  // links; node 0 is the initial root, as in the paper.
  Rng init_rng = rng.fork("init");
  std::vector<membership::MemberEntry> all(n);
  for (NodeId id = 0; id < n; ++id) all[id].id = id;
  for (NodeId id = 0; id < n; ++id) {
    std::vector<membership::MemberEntry> others;
    for (const auto& entry : all) {
      if (entry.id != id) others.push_back(entry);
    }
    nodes[id]->seed_view(others);
  }
  for (NodeId id = 0; id < n; ++id) {
    std::size_t made = 0;
    while (made < 2) {
      NodeId other = static_cast<NodeId>(init_rng.next_below(n));
      if (other == id || nodes[id]->overlay().is_neighbor(other)) continue;
      nodes[id]->bootstrap_link(other, overlay::LinkKind::kRandom);
      nodes[other]->bootstrap_link(id, overlay::LinkKind::kRandom);
      ++made;
    }
  }
  nodes[0]->become_root();

  std::map<MsgId, std::size_t> delivered;
  for (auto& node : nodes) {
    node->set_delivery_hook(
        [&delivered](const core::DeliveryEvent& e) { ++delivered[e.id]; });
  }

  for (NodeId id = 0; id < n; ++id) {
    nodes[id]->start(init_rng.next_range(0.0, 0.1));
  }

  std::cout << "gocastd: " << n << " live nodes, one-way latency "
            << rt_config.one_way_latency * 1e6 << " us, warming up " << warmup
            << " s...\n";
  rt.run_for(warmup);

  // Inject every multicast at a non-root node; the first tree hop is then a
  // real child→parent→subtree traversal, not a root-local shortcut.
  struct Inject {
    runtime::RealtimeRuntime* rt;
    std::vector<std::unique_ptr<LiveNode>>* nodes;
    std::size_t payload;
  } inject{&rt, &nodes, payload};
  for (std::size_t k = 0; k < messages; ++k) {
    NodeId sender = static_cast<NodeId>(1 + k % (n - 1));
    rt.schedule_after(0.05 * static_cast<double>(k), [&inject, sender] {
      MsgId id = (*inject.nodes)[sender]->multicast(inject.payload);
      std::cout << "  t=" << inject.rt->now() << " s: node " << sender
                << " multicast " << id.origin << ":" << id.seq << "\n";
    });
  }
  // Run long enough for the burst plus gossip recovery of any tree misses.
  rt.run_for(0.05 * static_cast<double>(messages) + 2.0);

  harness::Table table({"node", "deliveries", "duplicates", "degree"});
  for (const auto& node : nodes) {
    table.add_row({std::to_string(node->id()),
                   std::to_string(node->deliveries_count()),
                   std::to_string(node->duplicates_count()),
                   std::to_string(node->overlay().degree())});
  }
  table.print(std::cout);

  std::size_t complete = 0;
  for (const auto& [id, count] : delivered) {
    if (count == n) ++complete;
  }
  const auto& stats = rt.stats();
  std::cout << "\nmessages fully delivered: " << complete << "/" << messages
            << "  (network: " << stats.messages_sent << " sends, "
            << stats.messages_delivered << " deliveries, " << stats.bytes_sent
            << " bytes)\n";
  if (complete != messages) {
    std::cout << "FAILED: incomplete delivery\n";
    return 2;
  }
  std::cout << "OK: every node delivered every multicast\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gocast;

  harness::Args args(argc, argv,
                     {"nodes", "messages", "payload", "warmup", "latency-us",
                      "jitter-us", "seed", "node-id", "listen", "peers",
                      "inject-at", "timeout", "drain", "epoch", "groups",
                      "help"});
  if (args.get_bool("help", false)) {
    std::cout
        << "gocastd — run live GoCast nodes (loopback or UDP mode)\n"
           "loopback: --nodes N [8] --messages K [4] --payload BYTES [512]\n"
           "          --warmup SECS [2.0] --latency-us U [200] --jitter-us U "
           "[50]\n"
           "          --seed S [1]\n"
           "udp:      --node-id I --listen HOST:PORT --peers "
           "ID@HOST:PORT,...\n"
           "          --inject-at I --messages K [4] --payload BYTES [512]\n"
           "          --warmup SECS [2.0] --timeout SECS [20] --drain SECS "
           "[1.0]\n"
           "          --epoch UNIX_SECS --seed S [1] --groups G [1]\n"
           "          (--groups: deterministic multi-group subscriptions "
           "from the\n"
           "           shared seed; the injector round-robins its groups "
           "and exit\n"
           "           status covers every subscribed group)\n"
           "exit: 0 full delivery, 2 timeout/incomplete, 3 bind/config "
           "error\n";
    return 0;
  }

  if (args.has("node-id") || args.has("listen") || args.has("peers")) {
    return run_udp_mode(args);
  }
  return run_loopback_mode(args);
}
