// perfbench_workload — runs one benchmark workload in this process and
// prints one JSON report line (see report.h). perfbench/run.py builds and
// drives it; it can also be run by hand:
//
//   perfbench_workload --workload maint_8k --seed 1 --seconds 20 --trace 0
//
// Exit status: 0 with a report, 1 when a self-check failed (the report is
// still printed, with its "errors"), 2 on bad arguments or a build that is
// not Release.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(flag, "--workload") == 0) {
      workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      seed = std::strtoull(value, &end, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      seconds = std::strtod(value, &end);
    } else if (std::strcmp(flag, "--trace") == 0) {
      trace = static_cast<int>(std::strtol(value, &end, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag);
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      std::fprintf(stderr, "bad value for %s: %s\n", flag, value);
      return 2;
    }
  }
  if (argc % 2 == 0 || workload.empty() || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S --trace 0|1\n",
                 argv[0]);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure a build with assertions on\n");
  return 2;
#endif
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "refusing to measure a %s build; configure Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  perfbench::Report report;
  report.note("workload", workload);
  report.note("seed", std::to_string(seed));
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("compiler", __VERSION__);
  report.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.note("ram_mib", static_cast<double>(sysconf(_SC_PHYS_PAGES)) *
                             static_cast<double>(sysconf(_SC_PAGESIZE)) /
                             (1024.0 * 1024.0));

  if (!perfbench::run_sim_workload(workload, seed, seconds, trace == 1,
                                   report)) {
    std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
    return 2;
  }
  perfbench::print_report(report);
  return report.errors.empty() ? 0 : 1;
}
