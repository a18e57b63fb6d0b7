// MICRO — google-benchmark microbenchmarks of the core primitives the
// simulation's throughput depends on: event scheduling, message delivery,
// overlay snapshots, latency-model generation, and graph analysis.
#include <benchmark/benchmark.h>

#include "analysis/graph_analysis.h"
#include "common/rng.h"
#include "gocast/system.h"
#include "net/latency_model.h"
#include "net/underlay.h"
#include "sim/engine.h"

namespace {

using namespace gocast;

void BM_EngineScheduleAndRun(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    for (std::size_t i = 0; i < batch; ++i) {
      engine.schedule_at(static_cast<double>(i % 97), [] {});
    }
    benchmark::DoNotOptimize(engine.run());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EngineScheduleAndRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EngineCancelHeavy(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine engine;
    std::vector<sim::EventId> ids;
    ids.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      ids.push_back(engine.schedule_at(static_cast<double>(i), [] {}));
    }
    for (std::size_t i = 0; i < ids.size(); i += 2) engine.cancel(ids[i]);
    benchmark::DoNotOptimize(engine.run());
  }
}
BENCHMARK(BM_EngineCancelHeavy);

void BM_SyntheticKingGeneration(benchmark::State& state) {
  const auto sites = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    net::SyntheticKingParams params;
    params.sites = sites;
    auto model = net::make_synthetic_king(params, Rng(1));
    benchmark::DoNotOptimize(model->one_way(0, 1));
  }
}
BENCHMARK(BM_SyntheticKingGeneration)->Arg(256)->Arg(1024);

void BM_UnderlayLinkLoads(benchmark::State& state) {
  Rng rng(3);
  net::Underlay underlay = net::Underlay::barabasi_albert(256, 2, rng.fork("t"));
  Rng assign = rng.fork("a");
  underlay.assign_sites(1024, assign);
  std::unordered_map<std::uint64_t, double> traffic;
  Rng pairs = rng.fork("p");
  for (int i = 0; i < 5000; ++i) {
    auto a = static_cast<std::uint32_t>(pairs.next_below(1024));
    auto b = static_cast<std::uint32_t>(pairs.next_below(1024));
    if (a == b) continue;
    traffic[net::TrafficStats::pack_pair(a, b)] += 1000.0;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(underlay.link_loads(traffic));
  }
}
BENCHMARK(BM_UnderlayLinkLoads);

void BM_SystemWarmupSecond(benchmark::State& state) {
  // Cost of one simulated second of a running system (maintenance + gossip).
  const auto nodes = static_cast<std::size_t>(state.range(0));
  core::SystemConfig config;
  config.node_count = nodes;
  config.seed = 9;
  core::System system(config);
  system.start();
  system.run_for(5.0);
  for (auto _ : state) {
    system.run_for(1.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(nodes));
}
BENCHMARK(BM_SystemWarmupSecond)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_MulticastDelivery(benchmark::State& state) {
  core::SystemConfig config;
  config.node_count = 256;
  config.seed = 9;
  core::System system(config);
  system.start();
  system.run_for(60.0);
  for (auto _ : state) {
    system.node(system.random_alive_node()).multicast(1024);
    system.run_for(2.0);
  }
}
BENCHMARK(BM_MulticastDelivery)->Unit(benchmark::kMillisecond);

void BM_SnapshotAndComponents(benchmark::State& state) {
  core::SystemConfig config;
  config.node_count = 512;
  config.seed = 9;
  core::System system(config);
  system.start();
  system.run_for(30.0);
  for (auto _ : state) {
    auto graph = analysis::snapshot_overlay(system);
    benchmark::DoNotOptimize(analysis::components(graph));
  }
}
BENCHMARK(BM_SnapshotAndComponents);

}  // namespace

int main(int argc, char** argv) {
  // The distro's libbenchmark bakes its own (debug) build type into the
  // context; report how *this* binary was compiled so tools/bench.sh can
  // refuse to record numbers from an unoptimized build.
#ifdef NDEBUG
  benchmark::AddCustomContext("gocast_build_type", "release");
#else
  benchmark::AddCustomContext("gocast_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
