// Simulator workloads: maint_8k, maint_8k_sharded and multicast_slo_1k.
//
// One repetition builds a fresh deployment (latency model, System, start),
// injects the deployment's multicast plan at exact simulated times, runs to
// the horizon and reduces the delivery records. The plan and the deployment
// come from the deployment seed alone, so every repetition of one deployment
// yields the same delivery checksum; only wall-clock figures differ.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "gocast/system.h"
#include "layers.h"
#include "net/latency_model.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

using namespace gocast;

/// One constant-rate stretch of the multicast plan (a ladder rung).
struct Phase {
  double start = 0.0;
  double duration = 0.0;
  double rate = 0.0;  ///< multicasts per simulated second
};

struct SimSpec {
  std::size_t nodes = 0;
  std::size_t shards = 1;
  /// Deployments a run simulates and pools (see deployment_seed).
  std::size_t deployments = 1;
  /// Global loss switches on at `warmup` (after the tree has formed).
  double warmup = 0.0;
  double loss = 0.0;
  double uplink_bytes_per_second = 0.0;
  std::vector<Phase> rungs;
  double horizon = 0.0;
  /// Determinism check point (at or after `warmup`): an untraced serial run
  /// re-simulates its first deployment up to here and compares the state
  /// checksum with the measured run's at the same instant.
  double check_at = 0.0;
  std::size_t payload = 1024;
  /// Every n-th message a node receives is round-tripped through the codec
  /// in traced runs.
  std::uint32_t wire_sample_every = 64;
};

std::size_t pdes_shards() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 4);
}

bool spec_for(const std::string& name, SimSpec& s) {
  if (name == "maint_8k" || name == "maint_8k_sharded") {
    // Sparse stream, no loss: maintenance dominates. The stream starts once
    // maintenance is steady. At 8192 nodes the overlay-control rate passes
    // its knee by t = 10 s, and the root's first heartbeat flood (period
    // 15 s) rebuilds the tree along the adapted overlay around t = 15-16 s.
    // Before that flood a quarter of the nodes have no tree parent and
    // delivery delays are three to four times the steady ones; from t = 17 s
    // tree control is back at its baseline.
    s.nodes = 8192;
    s.shards = name == "maint_8k" ? 1 : pdes_shards();
    s.rungs = {{17.0, 4.0, 12.0}};
    s.horizon = 23.0;
    s.check_at = 3.0;
    return true;
  }
  if (name == "multicast_slo_1k") {
    // Open-loop ladder under a 1 MB/s fluid uplink and 3 % loss, after a
    // loss-free warm-up that spans the first heartbeat flood. Each rung is
    // followed by a drain gap so its tail barely overlaps the next; the top
    // rung sits past the knee so the SLO crossing is interpolated, not
    // clamped.
    s.nodes = 1024;
    s.deployments = 3;
    s.warmup = 20.0;
    s.loss = 0.03;
    s.uplink_bytes_per_second = 1e6;
    s.rungs = {{20.0, 2.0, 50.0},  {24.0, 2.0, 100.0}, {28.0, 2.0, 150.0},
               {32.0, 2.0, 200.0}, {36.0, 2.0, 250.0}};
    s.horizon = 46.0;
    s.check_at = 22.0;
    return true;
  }
  return false;
}

struct Injection {
  double at = 0.0;
  NodeId src = 0;
  std::size_t rung = 0;
};

std::vector<Injection> plan_for(const SimSpec& s, std::uint64_t seed) {
  Rng rng = Rng(seed).fork("perfbench-sources");
  std::vector<Injection> plan;
  for (std::size_t r = 0; r < s.rungs.size(); ++r) {
    const Phase& rung = s.rungs[r];
    const auto count =
        static_cast<std::size_t>(rung.duration * rung.rate + 0.5);
    for (std::size_t i = 0; i < count; ++i) {
      plan.push_back({rung.start + static_cast<double>(i) / rung.rate,
                      static_cast<NodeId>(rng.next_below(s.nodes)), r});
    }
  }
  return plan;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

struct Delivery {
  std::uint64_t id = 0;
  double delay = 0.0;
  core::DeliveryPath path = core::DeliveryPath::kTree;
};

/// Checksum of a deployment's state: every node's delivery records (message
/// id and delay), delivery and duplicate counts, overlay degree and tree
/// parent, and the per-kind traffic counters.
std::uint64_t state_checksum(const core::System& system,
                             const std::vector<std::vector<Delivery>>& per_node) {
  std::uint64_t h = kFnvBasis;
  for (NodeId id = 0; id < system.size(); ++id) {
    const core::GoCastNode& node = system.node(id);
    h = mix(h, node.deliveries_count());
    h = mix(h, node.duplicates_count());
    h = mix(h, static_cast<std::uint64_t>(node.overlay().degree()));
    h = mix(h, node.tree().parent());
    for (const Delivery& d : per_node[id]) {
      h = mix(h, d.id);
      h = mix(h, std::bit_cast<std::uint64_t>(d.delay));
    }
  }
  const net::TrafficStats& traffic = system.network().traffic();
  for (std::size_t k = 0; k < net::kMsgKindCount; ++k) {
    h = mix(h, traffic.kind(static_cast<net::MsgKind>(k)).messages);
    h = mix(h, traffic.kind(static_cast<net::MsgKind>(k)).bytes);
  }
  return h;
}

/// The latency matrix stands in for the paper's measured King dataset: a
/// fixed environment, the same in every run. The seed varies what a
/// deployment draws (views, bootstrap links, start stagger) and the
/// multicast plan.
constexpr std::uint64_t kLatencySeed = 1;

/// Set-up is sampled at least this often per run, with extra deployments
/// built and dropped when the repetitions alone are fewer.
constexpr std::size_t kMinSetupSamples = 9;

struct SetupTimes {
  double latency_s = 0.0;
  double system_s = 0.0;
  double start_s = 0.0;
  [[nodiscard]] double total() const { return latency_s + system_s + start_s; }
};

/// How one repetition runs.
struct RepMode {
  /// Sharded runs only: execute the shards' windows on the calling thread
  /// (SystemConfig::pdes_serial). Same event order, one thread.
  bool one_thread = false;
  /// Install the span proxies and the wire sampler.
  bool traced = false;
  /// Stop at spec.check_at and skip the reduction (the determinism re-run).
  bool prefix = false;
};

/// Builds and starts one deployment, timing each set-up step.
std::unique_ptr<core::System> deploy(const SimSpec& spec, std::uint64_t seed,
                                     bool one_thread, SetupTimes& times) {
  const auto t0 = Clock::now();
  auto latency = std::shared_ptr<const net::LatencyModel>(
      net::make_synthetic_king(net::SyntheticKingParams{},
                               Rng(kLatencySeed).fork("king")));
  const auto t1 = Clock::now();
  core::SystemConfig config;
  config.node_count = spec.nodes;
  config.seed = seed;
  config.latency = latency;
  config.shard_count = spec.shards;
  config.pdes_serial = one_thread;
  config.net.uplink_bytes_per_second = spec.uplink_bytes_per_second;
  auto system = std::make_unique<core::System>(config);
  const auto t2 = Clock::now();
  system->start();
  const auto t3 = Clock::now();
  times.latency_s = std::chrono::duration<double>(t1 - t0).count();
  times.system_s = std::chrono::duration<double>(t2 - t1).count();
  times.start_s = std::chrono::duration<double>(t3 - t2).count();
  return system;
}

/// Everything one repetition measured.
struct Rep {
  SetupTimes setup;
  double run_s = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t check_at_checksum = 0;  ///< state_checksum at spec.check_at
  std::size_t effective_shards = 1;
  /// Nodes with a tree parent (or the root) when the first multicast went
  /// out: shows the stream started through a formed tree.
  std::size_t tree_nodes_at_stream = 0;

  std::vector<std::vector<double>> rung_delays;  ///< sorted, per rung
  std::vector<std::uint64_t> rung_attempted;
  std::uint64_t attempted = 0;
  std::uint64_t delivered = 0;
  std::uint64_t pull_path = 0;

  net::TrafficStats traffic;
  net::Network::PoolCounters pool;
  core::System::MemoryReport mem;
  std::uint64_t events = 0;
  std::uint64_t pending = 0;
  std::uint64_t gossips = 0;
  std::uint64_t digest_entries = 0;
  std::uint64_t pulls = 0;
  std::uint64_t pull_exhausted = 0;
  std::uint64_t receptions = 0;  ///< first deliveries + duplicates
  std::uint64_t windows = 0;
  double lookahead = 0.0;
  std::vector<std::uint64_t> shard_events;

  SpanTotals spans;
  WireTotals wire;  ///< summed over every shard's sampler
};

/// Simulates one deployment to the horizon, or only up to spec.check_at in
/// a prefix run.
Rep run_rep(const SimSpec& spec, const std::vector<Injection>& plan,
            std::uint64_t seed, RepMode mode, Report& out) {
  Rep rep;
  std::unique_ptr<core::System> system =
      deploy(spec, seed, mode.one_thread, rep.setup);
  rep.effective_shards = system->shard_count();

  // One record vector per node: in sharded runs each node's hook runs on its
  // own shard's thread, so per-node storage needs no locking.
  std::vector<std::vector<Delivery>> per_node(spec.nodes);
  for (NodeId id = 0; id < spec.nodes; ++id) {
    std::vector<Delivery>* sink = &per_node[id];
    system->node(id).set_delivery_hook([sink](const core::DeliveryEvent& e) {
      sink->push_back({e.id.packed(), e.deliver_time - e.inject_time, e.path});
    });
  }

  std::vector<std::unique_ptr<WireSampler>> samplers;
  std::vector<std::unique_ptr<SpanProxy>> proxies;
  if (mode.traced) {
    for (std::size_t k = 0; k < system->shard_count(); ++k) {
      samplers.push_back(std::make_unique<WireSampler>());
    }
    net::Network& network = system->network();
    for (NodeId id = 0; id < spec.nodes; ++id) {
      proxies.push_back(std::make_unique<SpanProxy>(
          id, system->node(id), *samplers[network.shard_of(id)],
          network.engine_of(id), spec.wire_sample_every));
      network.set_endpoint(id, proxies.back().get());
    }
  }

  // Runs to `t`, switching loss on at the warm-up's end and taking the
  // check-point checksum on the way.
  bool loss_on = spec.loss <= 0.0;
  bool checked = false;
  auto advance = [&](double t) {
    if (!loss_on && t >= spec.warmup) {
      system->run_until(spec.warmup);
      system->network().set_loss_probability(spec.loss);
      loss_on = true;
    }
    if (!checked && t >= spec.check_at) {
      system->run_until(spec.check_at);
      rep.check_at_checksum = state_checksum(*system, per_node);
      checked = true;
    }
    system->run_until(t);
  };

  std::unordered_map<std::uint64_t, std::size_t> rung_of;
  const double until = mode.prefix ? spec.check_at : spec.horizon;
  const auto t4 = Clock::now();
  for (const Injection& inj : plan) {
    if (inj.at > until) break;
    advance(inj.at);
    if (rung_of.empty()) {
      for (NodeId id = 0; id < spec.nodes; ++id) {
        const auto& tree = system->node(id).tree();
        if (tree.is_root() || tree.parent() != kInvalidNode) {
          ++rep.tree_nodes_at_stream;
        }
      }
    }
    rung_of[system->node(inj.src).multicast(spec.payload).packed()] = inj.rung;
  }
  advance(until);
  rep.run_s = std::chrono::duration<double>(Clock::now() - t4).count();
  if (mode.prefix) {
    // The system points at the hooks' storage: it goes first.
    system.reset();
    return rep;
  }

  // Delivery reduction. The source's own (local) delivery fires inside
  // multicast(), before its id is known here; records are matched to rungs
  // only now, so that pair counts like every other.
  rep.rung_delays.resize(spec.rungs.size());
  rep.rung_attempted.assign(spec.rungs.size(), 0);
  for (const Injection& inj : plan) rep.rung_attempted[inj.rung] += spec.nodes;
  rep.checksum = state_checksum(*system, per_node);
  for (NodeId id = 0; id < spec.nodes; ++id) {
    const core::GoCastNode& node = system->node(id);
    for (const Delivery& d : per_node[id]) {
      auto it = rung_of.find(d.id);
      if (it == rung_of.end()) {
        out.check(false, "delivery of a message the plan never sent");
        continue;
      }
      rep.rung_delays[it->second].push_back(d.delay);
      ++rep.delivered;
      if (d.path == core::DeliveryPath::kPull) ++rep.pull_path;
    }
    const auto& diss = node.dissemination();
    rep.gossips += diss.gossips_sent();
    rep.digest_entries += diss.digest_entries_sent();
    rep.pulls += diss.pulls_sent();
    rep.pull_exhausted += diss.pull_retries_exhausted();
    rep.receptions += diss.deliveries() + diss.duplicates();
  }
  for (auto& v : rep.rung_delays) std::sort(v.begin(), v.end());
  for (auto a : rep.rung_attempted) rep.attempted += a;

  rep.traffic = system->network().traffic();
  rep.pool = system->network().pool_counters();
  rep.mem = system->memory_report();
  rep.events = system->events_processed();
  rep.pending = system->events_pending();
  if (sim::ShardedEngine* sharded = system->sharded_engine()) {
    rep.windows = sharded->windows();
    rep.lookahead = sharded->lookahead();
    for (std::size_t k = 0; k < sharded->shard_count(); ++k) {
      rep.shard_events.push_back(sharded->shard(k).processed());
    }
  }
  for (const auto& p : proxies) rep.spans.merge(p->totals);
  for (const auto& s : samplers) rep.wire.merge(s->totals);
  // The system points at the hooks' storage and the proxies: it goes first.
  system.reset();
  return rep;
}

/// Rung ladder for SLO selection: p99 of each rung's delivered pairs and its
/// delivered ratio.
std::vector<Rung> ladder_of(const SimSpec& spec, const Rep& rep) {
  std::vector<Rung> ladder;
  for (std::size_t r = 0; r < spec.rungs.size(); ++r) {
    const auto& d = rep.rung_delays[r];
    const double attempted = static_cast<double>(rep.rung_attempted[r]);
    ladder.push_back({spec.rungs[r].rate, percentile_sorted(d, 0.99).value,
                      attempted > 0 ? static_cast<double>(d.size()) / attempted
                                    : 0.0});
  }
  return ladder;
}

/// Delivery figures pooled over a run's deployments.
struct Pooled {
  Rep sum;  ///< rung delays (sorted), pair counts and traffic, summed
  std::uint64_t checksum = kFnvBasis;

  void add(const Rep& r) {
    if (sum.rung_delays.empty()) {
      sum.rung_delays.resize(r.rung_delays.size());
      sum.rung_attempted.assign(r.rung_attempted.size(), 0);
    }
    for (std::size_t k = 0; k < r.rung_delays.size(); ++k) {
      auto& d = sum.rung_delays[k];
      const std::size_t mid = d.size();
      d.insert(d.end(), r.rung_delays[k].begin(), r.rung_delays[k].end());
      std::inplace_merge(d.begin(), d.begin() + static_cast<long>(mid), d.end());
      sum.rung_attempted[k] += r.rung_attempted[k];
    }
    sum.attempted += r.attempted;
    sum.delivered += r.delivered;
    sum.traffic.merge_from(r.traffic);
    checksum = mix(checksum, r.checksum);
  }
};

/// Delivery-derived figures; identical for every repetition of one seed.
bool same_delivery(const Rep& a, const Rep& b) {
  return a.checksum == b.checksum && a.delivered == b.delivered &&
         a.rung_delays == b.rung_delays;
}

void add_layers(const SimSpec& spec, const Rep& traced, const Rep& untraced,
                double speedup, LayerValues& l) {
  const Rep& r = traced;
  l.set("sim.events", static_cast<double>(r.events));
  l.set("sim.ns_per_event",
        r.events ? untraced.run_s * 1e9 / static_cast<double>(r.events) : 0.0);
  l.set("sim.pending_end", static_cast<double>(r.pending));
  l.set("mem.engine_bytes", static_cast<double>(r.mem.engine_bytes));
  l.set("pdes.windows", static_cast<double>(r.windows));
  l.set("pdes.window_over_lookahead",
        window_over_lookahead(spec.horizon, r.windows, r.lookahead));
  l.set("pdes.shard_imbalance", shard_imbalance(r.shard_events));
  l.set("pdes.speedup", speedup);
  for (auto k : traced_kinds()) {
    const std::string name = net::msg_kind_name(k);
    l.set("net.msgs." + name, static_cast<double>(r.traffic.kind(k).messages));
    l.set("net.bytes." + name, static_cast<double>(r.traffic.kind(k).bytes));
  }
  l.set("net.lost", static_cast<double>(r.traffic.lost()));
  l.set("net.dropped_dead", static_cast<double>(r.traffic.dropped_dead()));
  const double allocs = static_cast<double>(r.pool.reused + r.pool.fresh);
  l.set("net.pool_reuse",
        allocs > 0 ? static_cast<double>(r.pool.reused) / allocs : 0.0);
  l.set("mem.network_bytes", static_cast<double>(r.mem.network_bytes));
  l.set("mem.view_bytes", static_cast<double>(r.mem.view_bytes));
  l.set("mem.overlay_bytes", static_cast<double>(r.mem.overlay_bytes));
  l.set("mem.tree_bytes", static_cast<double>(r.mem.tree_bytes));
  l.set("mem.node_object_bytes", static_cast<double>(r.mem.node_object_bytes));
  l.set("membership.landmark_unique", static_cast<double>(r.mem.landmark_unique));
  l.set("diss.gossips", static_cast<double>(r.gossips));
  l.set("diss.entries_per_gossip",
        r.gossips ? static_cast<double>(r.digest_entries) /
                        static_cast<double>(r.gossips)
                  : 0.0);
  l.set("diss.pulls", static_cast<double>(r.pulls));
  l.set("diss.pull_retries_exhausted", static_cast<double>(r.pull_exhausted));
  l.set("diss.redundancy", r.delivered ? static_cast<double>(r.receptions) /
                                             static_cast<double>(r.delivered)
                                       : 0.0);
  l.set("diss.pull_path_fraction",
        r.delivered ? static_cast<double>(r.pull_path) /
                          static_cast<double>(r.delivered)
                    : 0.0);
  l.set("mem.dissemination_bytes", static_cast<double>(r.mem.dissemination_bytes));
  if (r.wire.frames > 0) {
    const double f = static_cast<double>(r.wire.frames);
    l.set("wire.encode_ns", static_cast<double>(r.wire.encode_ns) / f);
    l.set("wire.decode_ns", static_cast<double>(r.wire.decode_ns) / f);
    l.set("wire.frame_bytes", static_cast<double>(r.wire.bytes) / f);
  }
  l.set("setup.latency_model_s", untraced.setup.latency_s);
  l.set("setup.system_s", untraced.setup.system_s);
  l.set("setup.start_s", untraced.setup.start_s);
  std::uint64_t span_ns = 0;
  for (auto k : traced_kinds()) {
    const std::string name = net::msg_kind_name(k);
    const auto idx = static_cast<std::size_t>(k);
    span_ns += r.spans.ns[idx];
    l.set("span." + name + ".ns", static_cast<double>(r.spans.ns[idx]));
    l.set("span." + name + ".count", static_cast<double>(r.spans.count[idx]));
  }
  // Thread time outside the spans: engine and timer callbacks, and in
  // sharded runs the barrier waits too.
  const double rest =
      r.run_s * 1e9 * static_cast<double>(r.effective_shards) -
      static_cast<double>(span_ns);
  l.set("span.engine_timers.ns", std::max(0.0, rest));
  l.set("trace.overhead", untraced.run_s > 0 ? r.run_s / untraced.run_s : 0.0);
}

}  // namespace

bool run_sim_workload(const std::string& name, std::uint64_t seed,
                      double seconds, bool trace, Report& out) {
  SimSpec spec;
  if (!spec_for(name, spec)) return false;
  std::vector<std::vector<Injection>> plans;
  for (std::size_t k = 0; k < spec.deployments; ++k) {
    plans.push_back(plan_for(spec, deployment_seed(seed, k)));
  }

  // Sharded runs first simulate the first deployment with the shards'
  // windows on one thread: the threaded run must reproduce it exactly. This
  // is their determinism check. The reference is not the serial engine:
  // that engine breaks same-instant ties by admission order, the sharded
  // one by (origin, counter), and 8192 nodes on the matrix's 1740 sites do
  // produce such ties.
  Rep one_thread;
  double spent = 0.0;
  const bool sharded = spec.shards > 1;
  if (sharded) {
    one_thread = run_rep(spec, plans[0], deployment_seed(seed, 0),
                         {.one_thread = true}, out);
    spent += one_thread.setup.total() + one_thread.run_s;
  }

  // Every deployment runs once; further repetitions cycle through them while
  // less than `seconds` of measurement has passed. A traced run needs one
  // untraced repetition of the first as its overhead baseline.
  std::vector<Rep> reps;
  const std::size_t min_reps = trace ? 1 : spec.deployments;
  while (reps.size() < min_reps || (!trace && spent < seconds)) {
    const std::size_t k = reps.size() % spec.deployments;
    reps.push_back(run_rep(spec, plans[k], deployment_seed(seed, k), {}, out));
    const Rep& r = reps.back();
    spent += r.setup.total() + r.run_s;
  }
  for (std::size_t i = spec.deployments; i < reps.size(); ++i) {
    out.check(same_delivery(reps[i], reps[i - spec.deployments]),
              "delivery checksum differs between repetitions of one deployment");
  }
  const Rep& first = reps.front();
  for (const Rep& r : reps) {
    out.check(kind_bytes(r.traffic, traced_kinds()) ==
                  r.traffic.total_sent().bytes,
              "traffic was sent under a kind the per-kind breakdown omits");
  }
  if (sharded) {
    out.check(same_delivery(first, one_thread),
              "threaded sharded run differs from the same run on one thread");
  }
  out.check(first.effective_shards == spec.shards,
            "deployment fell back to a different shard count");
  out.note("shards", static_cast<double>(first.effective_shards));
  out.note("repetitions", static_cast<double>(reps.size()));
  out.note("tree_nodes_at_stream_start",
           static_cast<double>(first.tree_nodes_at_stream));

  if (trace) {
    const Rep traced = run_rep(spec, plans[0], deployment_seed(seed, 0),
                               {.traced = true}, out);
    out.check(same_delivery(traced, first),
              "traced run's delivery checksum differs from the untraced run's");
    out.check(traced.wire.frames > 0, "no frames sampled for the wire codec");
    out.check(traced.wire.failures == 0,
              "a sampled frame failed to round-trip through the codec");
    out.attempted = first.attempted;
    out.failed = first.attempted - first.delivered;
    out.note("wire_frames", static_cast<double>(traced.wire.frames));
    LayerValues layers;
    add_layers(spec, traced, first,
               sharded ? one_thread.run_s / first.run_s : 0.0, layers);
    layers.emit(out);
    return true;
  }

  std::vector<double> setup;
  for (const Rep& r : reps) setup.push_back(r.setup.total());
  if (!sharded) {
    const Rep again = run_rep(spec, plans[0], deployment_seed(seed, 0),
                              {.prefix = true}, out);
    out.check(again.check_at_checksum == first.check_at_checksum,
              "two runs of one deployment differ at the check point");
    setup.push_back(again.setup.total());
  }

  Pooled pooled;
  for (std::size_t k = 0; k < spec.deployments; ++k) pooled.add(reps[k]);
  const Rep& all = pooled.sum;
  char hex[32];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(pooled.checksum));
  out.note("checksum", hex);
  out.attempted = all.attempted;
  out.failed = all.attempted - all.delivered;

  // The delay percentiles come from the lowest rung: the only rung of the
  // single-rate workloads, the fixed reference load of the ladder.
  const std::vector<double>& delays = all.rung_delays.front();
  const Percentile p50 = percentile_sorted(delays, 0.5);
  const Percentile p99 = percentile_sorted(delays, 0.99);
  out.check(p99.supported(), "too few delivered pairs to support a p99");
  out.note("delay_samples", static_cast<double>(p99.samples));
  out.note("highest_supported_percentile",
           highest_supported_percentile(p99.samples));
  const std::vector<Rung> ladder = ladder_of(spec, all);
  for (std::size_t r = 0; r < ladder.size(); ++r) {
    const std::string key = "rung" + std::to_string(r) + "_";
    out.note(key + "rate", ladder[r].rate);
    out.note(key + "p50_s",
             percentile_sorted(all.rung_delays[r], 0.5).value);
    out.note(key + "p99_s", ladder[r].p99);
    out.note(key + "delivered", ladder[r].delivered);
  }

  // run_s: each deployment's median repetition, averaged over deployments.
  // Deployments differ in work, so a median across them would pick one of
  // them by seed.
  double run_s = 0.0;
  std::string run_reps;
  for (std::size_t k = 0; k < spec.deployments; ++k) {
    std::vector<double> times;
    for (std::size_t i = k; i < reps.size(); i += spec.deployments) {
      times.push_back(reps[i].run_s);
    }
    run_s += median(times) / static_cast<double>(spec.deployments);
  }
  for (const Rep& r : reps) {
    if (!run_reps.empty()) run_reps += ' ';
    run_reps += std::to_string(r.run_s);
  }
  out.note("run_s_per_repetition", run_reps);
  while (setup.size() < kMinSetupSamples) {
    SetupTimes times;
    deploy(spec, deployment_seed(seed, setup.size() % spec.deployments),
           false, times);
    setup.push_back(times.total());
  }
  out.note("setup_samples", static_cast<double>(setup.size()));
  out.add("setup_s", median(setup), "s");
  out.add("run_s", run_s, "s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
  out.add("delivered_fraction",
          static_cast<double>(all.delivered) / static_cast<double>(all.attempted),
          "ratio");
  out.add("delay_p50_s", p50.value, "s");
  out.add("delay_p99_s", p99.value, "s");
  out.add("bytes_per_delivery",
          static_cast<double>(all.traffic.total_sent().bytes) /
              static_cast<double>(all.delivered),
          "B");
  out.add("slo_msgs_per_s", slo_rate(ladder, kSloP99Seconds, kSloMinDelivered),
          "msgs/s");
  return true;
}

}  // namespace perfbench
