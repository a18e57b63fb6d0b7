// Unit tests for the benchmark's own arithmetic (stats.h). Plain checks, no
// framework, so the benchmark package needs nothing beyond the compiler:
//
//   cmake --build .bench_build/perfbench --target perfbench_stats_test
//   .bench_build/perfbench/perfbench_stats_test
#include <cmath>
#include <cstdio>
#include <vector>

#include "layers.h"
#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

void percentiles() {
  using perfbench::percentile_sorted;
  // Nearest rank: p50 of 1..100 is 50 with 50 samples beyond it.
  const auto p50 = percentile_sorted(ramp(100), 0.5);
  CHECK(near(p50.value, 50.0));
  CHECK(p50.samples == 100);
  CHECK(p50.beyond == 50);
  // p99 of 1..100 is 99 with one sample beyond: not supported.
  const auto p99 = percentile_sorted(ramp(100), 0.99);
  CHECK(near(p99.value, 99.0));
  CHECK(p99.beyond == 1);
  CHECK(!p99.supported());
  // 1..1010: p99 is rank 1000 (ceil(999.9)), ten samples beyond.
  const auto p99_big = percentile_sorted(ramp(1010), 0.99);
  CHECK(near(p99_big.value, 1000.0));
  CHECK(p99_big.beyond == 10);
  CHECK(p99_big.supported());
  CHECK(percentile_sorted({}, 0.5).samples == 0);
  CHECK(near(percentile_sorted({7.0}, 0.99).value, 7.0));

  using perfbench::highest_supported_percentile;
  CHECK(near(highest_supported_percentile(5), 0.0));
  CHECK(near(highest_supported_percentile(20), 0.5));
  CHECK(near(highest_supported_percentile(100), 0.9));
  CHECK(near(highest_supported_percentile(1010), 0.99));
  CHECK(near(highest_supported_percentile(999), 0.9));
  CHECK(near(highest_supported_percentile(20000), 0.999));

  CHECK(near(perfbench::median({3.0, 1.0, 2.0}), 2.0));
  CHECK(near(perfbench::median({4.0, 1.0, 2.0, 3.0}), 2.5));
}

void slo_selection() {
  using perfbench::slo_rate;
  const double bound = 0.75, min_del = 0.999;
  // Knee between 150 and 200: interpolate p99 0.60 -> 0.90 at 0.75 = 175.
  CHECK(near(slo_rate({{50, 0.50, 1.0}, {100, 0.55, 1.0}, {150, 0.60, 1.0},
                       {200, 0.90, 1.0}},
                      bound, min_del),
             175.0));
  // Every rung passes: the top rate.
  CHECK(near(slo_rate({{50, 0.5, 1.0}, {100, 0.6, 1.0}}, bound, min_del),
             100.0));
  // The lowest rung fails: 0.
  CHECK(near(slo_rate({{50, 0.8, 1.0}, {100, 0.9, 1.0}}, bound, min_del), 0.0));
  // A delivery failure stops at the passing rung, no interpolation.
  CHECK(near(slo_rate({{50, 0.5, 1.0}, {100, 0.6, 0.99}}, bound, min_del),
             50.0));
  // Rungs above the first failure never count, even if they pass again.
  CHECK(near(slo_rate({{50, 0.5, 1.0}, {100, 1.0, 1.0}, {150, 0.5, 1.0}},
                      bound, min_del),
             75.0));
  // A single-rate workload is a one-rung ladder.
  CHECK(near(slo_rate({{100, 0.03, 1.0}}, bound, min_del), 100.0));
}

void pdes_ratios() {
  using perfbench::shard_imbalance;
  CHECK(near(shard_imbalance({100, 100, 100, 100}), 1.0));
  CHECK(near(shard_imbalance({200, 100, 100, 0}), 2.0));
  CHECK(near(shard_imbalance({}), 0.0));
  CHECK(near(shard_imbalance({0, 0}), 0.0));

  using perfbench::window_over_lookahead;
  // 8 s in 4000 windows of a 1 ms lookahead: each window 2 lookaheads wide.
  CHECK(near(window_over_lookahead(8.0, 4000, 0.001), 2.0));
  CHECK(near(window_over_lookahead(8.0, 0, 0.001), 0.0));
  CHECK(near(window_over_lookahead(8.0, 10, 0.0), 0.0));
}

void per_kind_totals() {
  using gocast::net::MsgKind;
  using perfbench::kind_bytes;
  std::vector<MsgKind> all;
  for (std::size_t k = 0; k < gocast::net::kMsgKindCount; ++k) {
    all.push_back(static_cast<MsgKind>(k));
  }
  const std::vector<MsgKind>& reported = perfbench::traced_kinds();
  gocast::net::TrafficStats t;
  t.record_send(MsgKind::kData, 1044);
  t.record_send(MsgKind::kGossipDigest, 64);
  t.record_send(MsgKind::kGossipDigest, 80);
  t.record_send(MsgKind::kPing, 28);
  // Every send lands in exactly one kind, so all kinds add up to the total;
  // the reported kinds do too while nothing goes out as kOther.
  CHECK(kind_bytes(t, all) == t.total_sent().bytes);
  CHECK(kind_bytes(t, reported) == t.total_sent().bytes);
  CHECK(kind_bytes(t, reported) == 1216);
  gocast::net::TrafficStats shard;
  shard.record_send(MsgKind::kMembership, 300);
  t.merge_from(shard);
  CHECK(kind_bytes(t, all) == t.total_sent().bytes);
  CHECK(kind_bytes(t, reported) == t.total_sent().bytes);
  // Traffic under a kind the breakdown omits shows as a shortfall, which
  // the benchmark's self-check turns into a failed run.
  t.record_send(MsgKind::kOther, 5);
  CHECK(kind_bytes(t, all) == t.total_sent().bytes);
  CHECK(kind_bytes(t, reported) + 5 == t.total_sent().bytes);
}

}  // namespace

int main() {
  percentiles();
  slo_selection();
  pdes_ratios();
  per_kind_totals();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_stats_test: all checks passed\n");
  return 0;
}
