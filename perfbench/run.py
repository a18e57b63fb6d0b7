#!/usr/bin/env python3
"""GoCast benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
GoCast sources in Release) into .bench_build/perfbench at the repository
root, runs one workload in a child process, checks its self-checks and
prints the result as the last line of standard output:

    python3 perfbench/run.py --workload maint_8k --seed 1 --seconds 15 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced re-run. The printed metric names must be exactly the ones
BENCHMARK.json declares. A line with the run context (commit, compiler,
build type, nproc, RAM, seed) and the workload's notes precedes the result.
Exits non-zero, printing no result, when the build fails, a self-check fails
or the workload does not finish in time.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_workload")
WORKLOADS = ("maint_8k", "maint_8k_sharded", "multicast_slo_1k")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# A run measures for --seconds and then finishes its last repetition; the
# largest (a serial maint_8k deployment) takes about 30 seconds.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the workload binary; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: GoCast sources (src/) not found next to perfbench/")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_workload",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build step failed: " + " ".join(cmd))
            return False
    return os.path.isfile(BINARY)


def source_commit():
    """The git commit when available, else a digest of the sources built."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this run, or None without
    one."""
    if not os.path.isfile(SPEC):
        return None
    with open(SPEC) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 1

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" %
            (args.workload, RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: workload printed no report (exit %d)" % proc.returncode)
        return 1
    if proc.returncode != 0 or report["errors"]:
        for err in report.get("errors", []):
            log("perfbench: self-check failed: " + err)
        log("perfbench: workload exited with %d" % proc.returncode)
        return 1

    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(report["metrics"]):
        log("perfbench: metrics differ from BENCHMARK.json: missing %s, extra %s"
            % (sorted(set(declared) - set(report["metrics"])),
               sorted(set(report["metrics"]) - set(declared))))
        return 1

    context = dict(report["notes"])
    context["commit"] = source_commit()
    context["attempted"] = report["attempted"]
    context["failed"] = report["failed"]
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
