// The workloads. Each runs in its own process, repeats its work until
// `seconds` of measurement have passed, and reports medians.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

/// maint_8k, maint_8k_sharded or multicast_slo_1k. Returns false for an
/// unknown name.
bool run_sim_workload(const std::string& name, std::uint64_t seed,
                      double seconds, bool trace, Report& out);

/// Peak resident set of this process in MiB (ru_maxrss).
double peak_rss_mib();

/// Deployment k of a run with seed s is seeded s * kSeedStride + k, so runs
/// with distinct seeds never share a deployment. A workload simulates at
/// most kSeedStride deployments per run.
inline constexpr std::size_t kSeedStride = 3;

inline std::uint64_t deployment_seed(std::uint64_t seed, std::size_t k) {
  return seed * kSeedStride + k;
}

/// SLO every workload is judged by: delivery-delay p99 and delivered share.
inline constexpr double kSloP99Seconds = 0.75;
inline constexpr double kSloMinDelivered = 0.999;

}  // namespace perfbench
