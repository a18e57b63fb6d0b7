// PERF — tracked large-scale baseline: builds an 8k-node (default) GoCast
// deployment, runs 60 simulated seconds of full protocol activity (overlay
// maintenance, tree heartbeats, gossip, plus a stream of multicasts), and
// reports wall-clock time, events per second, and peak RSS as JSON. The
// output feeds tools/bench.sh, which assembles BENCH_core.json so perf
// changes are visible in review instead of anecdotal.
//
//   perf_scaling [--nodes N] [--seconds S] [--messages M] [--seed X]
//                [--mem-report] [--groups G] [--shards K]
//   perf_scaling --sweep [--threads T] [--reps R] [--nodes N] [--seed X]
//   perf_scaling --curve [--seed X] [--curve-points N1,N2,...]
//
// --sweep runs R independent replications of a small scenario through
// harness::Runner and reports wall clock, replications/hour, and a
// deterministic checksum over the merged results — the checksum must be
// identical at every thread count, which tools/bench.sh asserts when it
// records the sweep_parallel section of BENCH_core.json.
//
// --mem-report appends a per-subsystem byte breakdown (engine slots,
// membership views, message pool, dissemination, overlay/tree trackers) to
// the JSON, from System::memory_report(). The dissemination bytes are also
// split into message store, digest backlog, pull trackers and the rest,
// next to the live record count (store bytes / records = bytes per
// record). With --groups G > 1 the
// deployment is multi-group and the breakdown gains a per-group
// dissemination+tree byte table ("group_bytes"), answering what each extra
// group costs on top of the shared substrate.
//
// --shards K runs the deployment on the sharded conservative-PDES engine
// (DESIGN.md §11). The JSON gains "shards" (requested), "effective_shards"
// (after fallbacks) and a deterministic "checksum" over per-node delivery
// counters plus traffic totals — identical at every shard count, which
// tools/bench.sh asserts when it records the pdes_scaling section. With more
// than one effective shard it also reports "pdes_windows" and, per shard,
// "shard_timing": the seconds its thread was busy (events, mail drain,
// controls) and waited at the window barrier (pdes.barrier_wait).
//
// --curve runs one single-run point per node count (default 8k/32k/128k/512k,
// sim horizon scaled down as the deployment grows) and emits a JSON array of
// the per-point reports. Each point re-executes this binary (/proc/self/exe)
// so its peak RSS is a clean per-process measurement instead of the max over
// all smaller points; each point's JSON carries its own nodes/seed/horizon
// metadata and a memory breakdown.
//
// The run is deterministic per seed; timing obviously is not.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common/assert.h"
#include "gocast/system.h"
#include "harness/args.h"
#include "harness/runner.h"
#include "harness/scenario.h"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident set size in MiB (ru_maxrss is KiB on Linux).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

/// FNV-1a over the result fields that any scheduling bug would perturb.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001b3ULL;
}

int run_sweep_mode(std::size_t threads, std::size_t reps, std::size_t nodes,
                   std::uint64_t seed) {
  using namespace gocast;

  harness::SweepSpec spec;
  spec.base.protocol = harness::Protocol::kGoCast;
  spec.base.node_count = nodes;
  spec.base.seed = seed;
  spec.base.warmup = 60.0;
  spec.base.message_count = 20;
  spec.base.drain = 20.0;
  spec.replications = reps;

  harness::Runner runner(threads);
  const auto start = Clock::now();
  auto runs = harness::run_sweep(spec, runner);
  const double wall = seconds_since(start);

  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (const auto& run : runs) {
    checksum = mix(checksum, run.result.deliveries);
    checksum = mix(checksum, run.result.duplicates);
    checksum = mix(checksum, run.result.traffic.total_sent().messages);
    checksum = mix(checksum, run.result.traffic.total_sent().bytes);
    checksum = mix(checksum,
                   static_cast<std::uint64_t>(run.result.alive_nodes));
  }

  const double rep_hour =
      wall > 0.0 ? static_cast<double>(reps) * 3600.0 / wall : 0.0;
  const double rss = peak_rss_mib();
  std::printf(
      "{\n"
      "  \"mode\": \"sweep\",\n"
      "  \"build_type\": \"%s\",\n"
      "  \"threads\": %zu,\n"
      "  \"reps\": %zu,\n"
      "  \"nodes\": %zu,\n"
      "  \"seed\": %llu,\n"
      "  \"wall_seconds\": %.3f,\n"
      "  \"replications_per_hour\": %.1f,\n"
      "  \"peak_rss_mib\": %.1f,\n"
      "  \"peak_rss_per_thread_mib\": %.1f,\n"
      "  \"checksum\": \"%016llx\"\n"
      "}\n",
      build_type(), runner.threads(), reps, nodes,
      static_cast<unsigned long long>(seed), wall, rep_hour, rss,
      rss / static_cast<double>(runner.threads()),
      static_cast<unsigned long long>(checksum));
  return 0;
}

/// One --curve point: sim horizon and injected message count shrink as the
/// deployment grows so every point finishes in minutes on one core while
/// still exercising maintenance + dissemination + GC.
struct CurvePoint {
  std::size_t nodes;
  double sim_seconds;
  std::size_t messages;
};

CurvePoint curve_point_for(std::size_t nodes) {
  if (nodes <= 8192) return {nodes, 60.0, 50};
  if (nodes <= 32768) return {nodes, 20.0, 20};
  if (nodes <= 131072) return {nodes, 8.0, 8};
  return {nodes, 3.0, 2};
}

int run_curve_mode(const std::vector<std::size_t>& point_nodes,
                   std::uint64_t seed) {
  // Resolve our own binary path up front: popen's child is a shell, so a
  // literal /proc/self/exe in the command would resolve to the shell, not
  // to this benchmark.
  char exe[PATH_MAX];
  const ssize_t exe_len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (exe_len <= 0) {
    std::perror("readlink /proc/self/exe");
    return 1;
  }
  exe[exe_len] = '\0';

  std::printf("[\n");
  bool first = true;
  for (std::size_t nodes : point_nodes) {
    const CurvePoint p = curve_point_for(nodes);
    // Fresh process per point: peak RSS is per-point truth, and a crashed
    // giant point (OOM) fails that point instead of the whole curve.
    char cmd[PATH_MAX + 128];
    std::snprintf(cmd, sizeof(cmd),
                  "\"%s\" --nodes %zu --seconds %.1f --messages %zu "
                  "--seed %llu --mem-report",
                  exe, p.nodes, p.sim_seconds, p.messages,
                  static_cast<unsigned long long>(seed));
    std::fprintf(stderr, "curve point: %s\n", cmd);
    FILE* child = popen(cmd, "r");
    if (child == nullptr) {
      std::fprintf(stderr, "popen failed for %zu nodes\n", nodes);
      return 1;
    }
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = fread(buf, 1, sizeof(buf), child)) > 0) out.append(buf, n);
    const int status = pclose(child);
    if (status != 0) {
      std::fprintf(stderr, "curve point %zu nodes exited with status %d\n",
                   nodes, status);
      return 1;
    }
    if (!first) std::printf(",\n");
    first = false;
    // Child output is a complete JSON object; trim the trailing newline so
    // the array renders cleanly.
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
      out.pop_back();
    }
    std::printf("%s", out.c_str());
    std::fflush(stdout);
  }
  std::printf("\n]\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every numeric flag goes through Args: values with trailing characters,
  // out of range or (for counts) negative are errors, so "--shards -3" stops
  // the run instead of wrapping to 2^64-3 shards.
  const gocast::harness::Args args(
      argc, argv,
      {"nodes", "seconds", "messages", "seed", "sweep", "threads", "reps",
       "mem-report", "groups", "shards", "curve", "curve-points"});
  if (!args.positional().empty()) {
    std::fprintf(stderr,
                 "usage: %s [--nodes N] [--seconds S] [--messages M] "
                 "[--seed X] [--mem-report] [--shards K] "
                 "[--sweep [--threads T] "
                 "[--reps R]] [--curve [--curve-points N1,N2,...]]\n",
                 argv[0]);
    return 2;
  }
  const std::size_t nodes = args.get_count("nodes", 8192);
  const double sim_seconds = args.get_double("seconds", 60.0);
  GOCAST_ASSERT_MSG(std::isfinite(sim_seconds) && sim_seconds > 0.0,
                    "--seconds must be positive, got " << sim_seconds);
  const std::size_t messages = args.get_count("messages", 50);
  const std::uint64_t seed = args.get_count("seed", 1);
  const bool sweep = args.get_bool("sweep", false);
  const std::size_t threads = args.get_count("threads", 0);
  const std::size_t reps = args.get_count("reps", 8);
  const bool mem_report = args.get_bool("mem-report", false);
  const std::size_t groups = args.get_count("groups", 1);
  const std::size_t shards =
      std::max<std::size_t>(args.get_count("shards", 1), 1);
  const bool curve = args.get_bool("curve", false);
  const std::vector<std::size_t> curve_points =
      args.get_counts("curve-points", {8192, 32768, 131072, 524288});

  if (curve) return run_curve_mode(curve_points, seed);

  if (sweep) {
    // The sweep replications are deliberately small so serial-vs-parallel
    // wall clock measures pool overhead, not one giant run.
    return run_sweep_mode(threads, reps, args.has("nodes") ? nodes : 256,
                          seed);
  }

  using namespace gocast;

  const auto setup_start = Clock::now();
  core::SystemConfig config;
  config.node_count = nodes;
  config.seed = seed;
  config.latency = core::default_latency_model(seed);
  config.groups.group_count = groups;
  config.shard_count = shards;
  core::System system(config);
  system.start();
  const double setup_wall = seconds_since(setup_start);

  // Full-protocol load: maintenance everywhere, plus multicasts injected at
  // an even cadence through the middle of the run so data dissemination,
  // pull recovery, and payload GC all contribute events.
  const auto run_start = Clock::now();
  const double inject_begin = sim_seconds * 0.3;
  const double inject_end = sim_seconds * 0.9;
  system.run_until(inject_begin);
  for (std::size_t m = 0; m < messages; ++m) {
    system.run_until(inject_begin + (inject_end - inject_begin) *
                                        static_cast<double>(m) /
                                        static_cast<double>(messages));
    system.node(system.random_alive_node()).multicast(1024);
  }
  system.run_until(sim_seconds);
  const double run_wall = seconds_since(run_start);

  const std::uint64_t events = system.events_processed();
  const auto pool = system.network().pool_counters();
  const double rss = peak_rss_mib();

  // Shard-count-invariant digest: per-node delivery counters in id order plus
  // the folded traffic totals. bench.sh asserts this across --shards values.
  std::uint64_t checksum = 0xcbf29ce484222325ULL;
  for (std::size_t id = 0; id < nodes; ++id) {
    checksum = mix(checksum, system.node(static_cast<gocast::NodeId>(id))
                                 .deliveries_count());
    checksum = mix(checksum, system.node(static_cast<gocast::NodeId>(id))
                                 .duplicates_count());
  }
  checksum = mix(checksum, system.network().traffic().total_sent().messages);
  checksum = mix(checksum, system.network().traffic().total_sent().bytes);

  std::printf(
      "{\n"
      "  \"build_type\": \"%s\",\n"
      "  \"nodes\": %zu,\n"
      "  \"sim_seconds\": %.1f,\n"
      "  \"messages\": %zu,\n"
      "  \"seed\": %llu,\n"
      "  \"shards\": %zu,\n"
      "  \"effective_shards\": %zu,\n"
      "  \"checksum\": \"%016llx\",\n"
      "  \"setup_wall_seconds\": %.3f,\n"
      "  \"run_wall_seconds\": %.3f,\n"
      "  \"events_processed\": %llu,\n"
      "  \"events_per_second\": %.0f,\n"
      "  \"events_pending_at_end\": %zu,\n"
      "  \"peak_rss_mib\": %.1f,\n"
      "  \"bytes_per_node\": %.0f,\n"
      "  \"pool\": {\"reused\": %llu, \"fresh\": %llu, \"oversized\": %llu, "
      "\"chunks\": %zu}",
      build_type(), nodes, sim_seconds, messages,
      static_cast<unsigned long long>(seed), shards, system.shard_count(),
      static_cast<unsigned long long>(checksum), setup_wall, run_wall,
      static_cast<unsigned long long>(events),
      run_wall > 0.0 ? static_cast<double>(events) / run_wall : 0.0,
      system.events_pending(), rss,
      rss * 1024.0 * 1024.0 / static_cast<double>(nodes),
      static_cast<unsigned long long>(pool.reused),
      static_cast<unsigned long long>(pool.fresh),
      static_cast<unsigned long long>(pool.oversized), pool.chunks);
  if (sim::ShardedEngine* sharded = system.sharded_engine();
      sharded->shard_count() > 1) {
    // Where each shard's thread spent the run: executing its window's events
    // (and draining its mail) versus waiting at the barrier for the others.
    std::printf(",\n  \"pdes_windows\": %llu,\n  \"shard_timing\": [",
                static_cast<unsigned long long>(sharded->windows()));
    for (std::size_t k = 0; k < sharded->shard_count(); ++k) {
      const sim::ShardedEngine::ShardTiming t = sharded->timing(k);
      std::printf("%s{\"busy_s\": %.3f, \"barrier_wait_s\": %.3f}",
                  k == 0 ? "" : ", ", t.busy_s, t.barrier_wait_s);
    }
    std::printf("]");
  }
  if (mem_report) {
    const auto mem = system.memory_report();
    std::printf(
        ",\n"
        "  \"memory\": {\n"
        "    \"engine_bytes\": %zu,\n"
        "    \"network_bytes\": %zu,\n"
        "    \"node_object_bytes\": %zu,\n"
        "    \"view_bytes\": %zu,\n"
        "    \"landmark_store_bytes\": %zu,\n"
        "    \"landmark_unique\": %zu,\n"
        "    \"dissemination_bytes\": %zu,\n"
        "    \"dissemination_split\": {\"message_store\": %zu, "
        "\"digest_backlog\": %zu, \"pull_pending\": %zu, \"other\": %zu},\n"
        "    \"message_records\": %zu,\n"
        "    \"overlay_bytes\": %zu,\n"
        "    \"tree_bytes\": %zu,\n"
        "    \"accounted_total_bytes\": %zu\n"
        "  }",
        mem.engine_bytes, mem.network_bytes, mem.node_object_bytes,
        mem.view_bytes, mem.landmark_store_bytes, mem.landmark_unique,
        mem.dissemination_bytes, mem.dissemination.store,
        mem.dissemination.backlog, mem.dissemination.pulls,
        mem.dissemination.other, mem.message_records, mem.overlay_bytes,
        mem.tree_bytes, mem.total_bytes());
    if (!mem.group_bytes.empty()) {
      // Per-group dissemination+tree footprint (multi-group deployments):
      // group 0 is the universal group; extra rows are what each
      // additional group costs on top of the shared substrate.
      std::printf(",\n  \"group_bytes\": {");
      bool first_group = true;
      for (const auto& [group, bytes] : mem.group_bytes) {
        std::printf("%s\"%u\": %zu", first_group ? "" : ", ",
                    static_cast<unsigned>(group), bytes);
        first_group = false;
      }
      std::printf("}");
    }
  }
  std::printf("\n}\n");
  return 0;
}
