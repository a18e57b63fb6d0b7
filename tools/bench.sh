#!/usr/bin/env bash
# Performance baseline runner. Builds the benchmarks in a dedicated Release
# build tree, runs the micro-benchmark suite (min-of-repetitions, the only
# robust statistic on a shared/noisy host), the large-scale perf_scaling
# probe, and the serial-vs-parallel sweep comparison, and assembles
# everything into BENCH_core.json at the repo root so perf numbers travel
# with the PR.
#
#   tools/bench.sh                 # full run: 5 reps, 8192 nodes x 60s + curve
#   REPS=3 NODES=1024 SECONDS_ARG=20 tools/bench.sh   # lighter variant
#   SWEEP_REPS=8 SWEEP_THREADS=4 tools/bench.sh       # sweep knobs
#   CURVE=0 tools/bench.sh                            # skip the scaling curve
#                                   (a skipped section keeps its recorded value)
#   CURVE_POINTS=8192,32768 tools/bench.sh            # custom curve points
#   PDES=0 tools/bench.sh                             # skip the shard scaling
#   PDES_SECONDS=10 tools/bench.sh                    # shorter shard points
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
# A dedicated Release tree: the default dev tree may be Debug/sanitized, and
# recording numbers from an unoptimized build poisons the baseline.
BUILD_DIR="${BUILD_DIR:-$REPO_ROOT/build-bench}"
OUT="${OUT:-$REPO_ROOT/BENCH_core.json}"
REPS="${REPS:-5}"
NODES="${NODES:-8192}"
SECONDS_ARG="${SECONDS_ARG:-60}"
MESSAGES="${MESSAGES:-50}"
SWEEP_REPS="${SWEEP_REPS:-8}"
SWEEP_NODES="${SWEEP_NODES:-256}"
SWEEP_THREADS="${SWEEP_THREADS:-$(nproc)}"
# Scaling curve: one fresh process per point (per-point peak RSS is honest),
# horizons shrink with scale so the 512k point stays a minutes-long run.
CURVE="${CURVE:-1}"
CURVE_POINTS="${CURVE_POINTS:-8192,32768,131072,524288}"
# Sharded-PDES scaling: the 8k-node scenario at shards=1/2/4, one fresh
# process per point. Checksums must match across shard counts or nothing is
# recorded.
PDES="${PDES:-1}"
PDES_SECONDS="${PDES_SECONDS:-30}"
PDES_SHARDS="${PDES_SHARDS:-1 2 4}"

cmake -S "$REPO_ROOT" -B "$BUILD_DIR" -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target micro_core perf_scaling -j "$(nproc)" >/dev/null

MICRO_JSON="$(mktemp)"
SCALING_JSON="$(mktemp)"
SWEEP_SERIAL_JSON="$(mktemp)"
SWEEP_PARALLEL_JSON="$(mktemp)"
CURVE_JSON="$(mktemp)"
PDES_JSON="$(mktemp)"
trap 'rm -f "$MICRO_JSON" "$SCALING_JSON" "$SWEEP_SERIAL_JSON" "$SWEEP_PARALLEL_JSON" "$CURVE_JSON" "$PDES_JSON"' EXIT

# Fail loudly if the benchmark binary was not compiled optimized: the
# distro's libbenchmark reports its *own* build type, so the binary embeds a
# gocast_build_type context entry describing how it was compiled.
GOCAST_BUILD_TYPE="$("$BUILD_DIR/bench/perf_scaling" --sweep --reps 1 --nodes 32 \
  | python3 -c 'import json,sys; print(json.load(sys.stdin)["build_type"])')"
if [ "$GOCAST_BUILD_TYPE" != "release" ]; then
  echo "FATAL: bench binaries report build_type=$GOCAST_BUILD_TYPE (want release)." >&2
  echo "       Refusing to record numbers from an unoptimized build." >&2
  exit 1
fi

echo "== micro_core ($REPS repetitions, min-of-reps) =="
"$BUILD_DIR/bench/micro_core" \
  --benchmark_format=json \
  --benchmark_repetitions="$REPS" \
  --benchmark_report_aggregates_only=false \
  --benchmark_min_time=0.2 \
  >"$MICRO_JSON"

echo "== perf_scaling ($NODES nodes, ${SECONDS_ARG}s sim) =="
"$BUILD_DIR/bench/perf_scaling" \
  --nodes "$NODES" --seconds "$SECONDS_ARG" --messages "$MESSAGES" \
  | tee "$SCALING_JSON"

if [ "$CURVE" = "1" ]; then
  echo "== perf_scaling curve ($CURVE_POINTS nodes, fresh process per point) =="
  "$BUILD_DIR/bench/perf_scaling" --curve --curve-points "$CURVE_POINTS" \
    >"$CURVE_JSON"
else
  echo "== perf_scaling curve skipped (CURVE=$CURVE) =="
  echo "[]" >"$CURVE_JSON"
fi

if [ "$PDES" = "1" ]; then
  echo "== pdes_scaling ($NODES nodes x ${PDES_SECONDS}s at shards $PDES_SHARDS) =="
  # One fresh process per shard count; the merge step below asserts the
  # checksums agree before recording anything. Like sweep_parallel, the
  # wall-clock ratio is only meaningful relative to nproc (recorded per
  # point): on a 1-CPU host the shard workers time-slice one core, so the
  # honest expectation is parity at best, not speedup.
  {
    echo "["
    first=1
    for k in $PDES_SHARDS; do
      [ "$first" = "1" ] || echo ","
      first=0
      "$BUILD_DIR/bench/perf_scaling" \
        --nodes "$NODES" --seconds "$PDES_SECONDS" --messages "$MESSAGES" \
        --shards "$k"
    done
    echo "]"
  } | tee "$PDES_JSON"
else
  echo "== pdes_scaling skipped (PDES=$PDES) =="
  echo "[]" >"$PDES_JSON"
fi

echo "== sweep_parallel ($SWEEP_REPS reps x $SWEEP_NODES nodes: 1 vs $SWEEP_THREADS threads) =="
"$BUILD_DIR/bench/perf_scaling" --sweep --threads 1 \
  --reps "$SWEEP_REPS" --nodes "$SWEEP_NODES" | tee "$SWEEP_SERIAL_JSON"
"$BUILD_DIR/bench/perf_scaling" --sweep --threads "$SWEEP_THREADS" \
  --reps "$SWEEP_REPS" --nodes "$SWEEP_NODES" | tee "$SWEEP_PARALLEL_JSON"

python3 - "$MICRO_JSON" "$SCALING_JSON" "$SWEEP_SERIAL_JSON" "$SWEEP_PARALLEL_JSON" "$CURVE_JSON" "$PDES_JSON" "$OUT" <<'PY'
import json, os, sys

(micro_path, scaling_path, sweep_serial_path, sweep_parallel_path,
 curve_path, pdes_path, out_path) = sys.argv[1:8]
with open(micro_path) as f:
    micro = json.load(f)
with open(scaling_path) as f:
    scaling = json.load(f)
with open(sweep_serial_path) as f:
    sweep_serial = json.load(f)
with open(sweep_parallel_path) as f:
    sweep_parallel = json.load(f)
with open(curve_path) as f:
    curve = json.load(f)
with open(pdes_path) as f:
    pdes = json.load(f)
# Sections skipped this run (CURVE=0, PDES=0) keep what OUT already records.
previous = {}
if os.path.isfile(out_path):
    with open(out_path) as f:
        previous = json.load(f)

# Sharded runs must reproduce the serial run byte for byte; a checksum
# mismatch is an ordering bug in the sharded engine and the numbers must
# not be recorded (same policy as the sweep checksum below).
if pdes:
    sums = {p["shards"]: p["checksum"] for p in pdes}
    if len(set(sums.values())) != 1:
        sys.exit(f"FATAL: pdes_scaling checksum mismatch across shard "
                 f"counts: {sums} — sharded engine is not deterministic, "
                 "refusing to write BENCH_core.json")

# The merged sweep output must not depend on thread count; a checksum
# mismatch means a determinism bug, and the numbers must not be recorded.
if sweep_serial["checksum"] != sweep_parallel["checksum"]:
    sys.exit(
        f"FATAL: sweep checksum mismatch: serial={sweep_serial['checksum']} "
        f"parallel={sweep_parallel['checksum']} — parallel runner is not "
        "deterministic, refusing to write BENCH_core.json")

# Min over repetitions: on a busy single-CPU host the mean is dominated by
# scheduling noise, while the minimum approximates the undisturbed run.
best = {}
for b in micro["benchmarks"]:
    if b.get("run_type") == "aggregate":
        continue
    name = b["run_name"] if "run_name" in b else b["name"]
    t = b["real_time"]
    if name not in best or t < best[name]["real_time"]:
        best[name] = {"real_time": t, "time_unit": b["time_unit"]}

curve_section = {
    # Each point carries its own build_type/nodes/sim_seconds/messages/
    # seed from the child process — the horizon shrinks as the
    # deployment grows (see curve_point_for in bench/perf_scaling.cpp),
    # so events_per_second is comparable across points but wall time is
    # not. One fresh process per point makes peak_rss_mib per-point
    # truth rather than a high-water mark across the whole curve.
    "methodology": ("fresh process per point; sim horizon and message "
                    "count scale down with node count"),
    "points": curve,
}
if not curve and "perf_scaling_curve" in previous:
    curve_section = previous["perf_scaling_curve"]

serial_wall = sweep_serial["wall_seconds"]
parallel_wall = sweep_parallel["wall_seconds"]
result = {
    "context": micro.get("context", {}),
    "micro_min_of_reps": best,
    "perf_scaling": scaling,
    "perf_scaling_curve": curve_section,
    "sweep_parallel": {
        "serial": sweep_serial,
        "parallel": sweep_parallel,
        "speedup": serial_wall / parallel_wall if parallel_wall > 0 else 0.0,
        "checksums_match": True,
    },
}
if pdes:
    base = next((p for p in pdes if p["shards"] == 1), pdes[0])
    result["pdes_scaling"] = {
        # Wall clock vs shard count for the same scenario. Every point ran
        # on this host with `nproc` CPUs: on a 1-CPU box the shard worker
        # threads time-slice a single core, so speedup <= 1 is the honest
        # expectation there (windows add barrier overhead without adding
        # parallel hardware) — same caveat as sweep_parallel above.
        "nproc": os.cpu_count(),
        "checksum": base["checksum"],
        "checksums_match": True,
        "points": [
            {
                "shards": p["shards"],
                "effective_shards": p["effective_shards"],
                "run_wall_seconds": p["run_wall_seconds"],
                "events_per_second": p["events_per_second"],
                "speedup_vs_serial": (
                    base["run_wall_seconds"] / p["run_wall_seconds"]
                    if p["run_wall_seconds"] > 0 else 0.0),
            }
            for p in pdes
        ],
    }
elif "pdes_scaling" in previous:
    result["pdes_scaling"] = previous["pdes_scaling"]
with open(out_path, "w") as f:
    json.dump(result, f, indent=2)
    f.write("\n")
print(f"wrote {out_path}")
PY
