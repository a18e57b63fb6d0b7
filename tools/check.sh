#!/usr/bin/env bash
# Full pre-merge check: build and test the plain configuration, then the
# ASan+UBSan configuration (GOCAST_SANITIZE=ON). Run from the repo root:
#   tools/check.sh [extra ctest args...]
#   tools/check.sh bench-smoke     # quick perf-tooling sanity run only
#   tools/check.sh tsan            # TSan: runner tests + 2-thread mini-sweep
#   tools/check.sh byzantine-smoke # adversarial-defense gate (ext_byzantine)
#   tools/check.sh membership-smoke # churn/collusion gate: flash crowd +
#                                  # colluding clique, defenses off vs on
#                                  # (ext_membership --smoke)
#   tools/check.sh udp-smoke       # 8 gocastd processes over loopback UDP,
#                                  # clean run + kill -9 chaos run
#   tools/check.sh multigroup-smoke # multi-group gate: sim sweep
#                                  # (ext_multigroup --smoke) + an 8-process
#                                  # gocastd --groups UDP run
#   tools/check.sh pdes-smoke      # sharded-PDES determinism gate: 2k-node
#                                  # scenario at seeds 1, 2 and 6, push
#                                  # gossip, and session/flash churn;
#                                  # shards=1, 3 and 4 delivery checksums
#                                  # must be byte-identical
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)"

run_config() {
  local build_dir="$1"
  shift
  local cmake_args=("$@")
  echo "=== configure ${build_dir} (${cmake_args[*]:-default}) ==="
  cmake -B "${root}/${build_dir}" -S "${root}" "${cmake_args[@]}"
  echo "=== build ${build_dir} ==="
  cmake --build "${root}/${build_dir}" -j "${jobs}"
  echo "=== test ${build_dir} ==="
  (cd "${root}/${build_dir}" && ctest --output-on-failure -j "${jobs}" "${EXTRA_CTEST_ARGS[@]}")
}

# bench-smoke: verify the perf tooling end to end at tiny scale — the
# micro-benchmarks execute and perf_scaling completes a small deployment.
# Catches bit-rot in the bench targets without a multi-minute run.
if [[ "${1:-}" == "bench-smoke" ]]; then
  cmake -B "${root}/build" -S "${root}"
  cmake --build "${root}/build" -j "${jobs}" --target micro_core perf_scaling
  echo "=== bench-smoke: micro_core ==="
  "${root}/build/bench/micro_core" --benchmark_min_time=0.01 \
    --benchmark_filter='BM_EngineScheduleAndRun/1000$|BM_EngineCancelHeavy|BM_SystemWarmupSecond/128'
  echo "=== bench-smoke: perf_scaling ==="
  "${root}/build/bench/perf_scaling" --nodes 128 --seconds 10 --messages 3
  echo "=== bench-smoke: 8k peak-RSS ceiling ==="
  # Memory regression gate: an 8192-node deployment's peak RSS is
  # construction-dominated, so even this short horizon catches a per-node
  # footprint regression. Fails when >10% over the recorded BENCH_core.json
  # baseline (skipped when no baseline is recorded yet).
  rss_smoke_json="$(mktemp)"
  "${root}/build/bench/perf_scaling" --nodes 8192 --seconds 2 --messages 2 \
    >"${rss_smoke_json}"
  python3 - "${root}/BENCH_core.json" "${rss_smoke_json}" <<'PY'
import json, sys
base_path, smoke_path = sys.argv[1:3]
with open(smoke_path) as f:
    rss = json.load(f)["peak_rss_mib"]
try:
    with open(base_path) as f:
        recorded = json.load(f)["perf_scaling"]["peak_rss_mib"]
except (OSError, KeyError, json.JSONDecodeError):
    print("no recorded 8k peak RSS in BENCH_core.json; ceiling check skipped")
    sys.exit(0)
ceiling = recorded * 1.10
print(f"8k peak RSS {rss:.1f} MiB (recorded {recorded:.1f}, ceiling {ceiling:.1f})")
if rss > ceiling:
    sys.exit(f"FATAL: 8k peak RSS {rss:.1f} MiB is >10% over the recorded "
             f"{recorded:.1f} MiB baseline — memory regression")
PY
  rm -f "${rss_smoke_json}"
  echo "=== bench-smoke: gocastd (8 UDP nodes in one process) ==="
  cmake --build "${root}/build" -j "${jobs}" --target gocastd
  "${root}/build/tools/gocastd" --nodes 8 --messages 4 --warmup 1.5
  echo "=== bench-smoke passed ==="
  exit 0
fi

# byzantine-smoke: the adversarial-defense gate — one mixed
# mute-forwarder+digest-liar cell of bench/ext_byzantine, defenses off vs on
# vs an equal-sized crash baseline. The bench's exit status carries the
# verdict (defended delivery strictly above undefended, >= 90% eviction
# coverage, and at least the honest-crash baseline).
if [[ "${1:-}" == "byzantine-smoke" ]]; then
  cmake -B "${root}/build" -S "${root}"
  cmake --build "${root}/build" -j "${jobs}" --target ext_byzantine
  echo "=== byzantine-smoke: ext_byzantine --smoke ==="
  "${root}/build/bench/ext_byzantine" --smoke
  echo "=== byzantine-smoke passed ==="
  exit 0
fi

# membership-smoke: the churn + collusion gate — one 192-node cell of
# bench/ext_membership with a 25% flash crowd joining mid-run and a 10%
# colluding clique, PR-5 defenses (base) vs the clique/eclipse-aware set
# (full). The bench's exit status carries the verdict: defended delivery at
# least undefended (within noise), >= 80% of the clique evicted, every join
# instrumented, and no unexpected invariant violations after settle.
if [[ "${1:-}" == "membership-smoke" ]]; then
  cmake -B "${root}/build" -S "${root}"
  cmake --build "${root}/build" -j "${jobs}" --target ext_membership
  echo "=== membership-smoke: ext_membership --smoke ==="
  "${root}/build/bench/ext_membership" --smoke --threads 2
  echo "=== membership-smoke passed ==="
  exit 0
fi

# udp-smoke: the wire codec + UDP reactor end to end — 8 gocastd processes
# on loopback form one overlay and a multicast injected at a non-root node
# must reach every process (each exits 0 only on full local delivery).
# Phase 2 repeats the run and kill -9s a non-root, non-injector forwarder
# mid-multicast: the ICMP-unreachable/suspicion path must carry the
# remaining 7 processes to 100% delivery anyway.
if [[ "${1:-}" == "udp-smoke" ]]; then
  cmake -B "${root}/build" -S "${root}"
  cmake --build "${root}/build" -j "${jobs}" --target gocastd
  bin="${root}/build/tools/gocastd"
  n=8
  logdir="$(mktemp -d)"

  launch_swarm() { # $1 = phase name, $2 = port base; sets pids[]
    local phase="$1" base="$2" peers="" i
    for ((i = 0; i < n; ++i)); do
      peers+="${peers:+,}${i}@127.0.0.1:$((base + i))"
    done
    local epoch
    epoch="$(date +%s)"
    pids=()
    for ((i = 0; i < n; ++i)); do
      "${bin}" --node-id "${i}" --listen "127.0.0.1:$((base + i))" \
        --peers "${peers}" --inject-at 1 --messages 4 --payload 512 \
        --warmup 2.0 --timeout 25 --drain 1.5 --epoch "${epoch}" --seed 7 \
        >"${logdir}/${phase}-${i}.log" 2>&1 &
      pids+=("$!")
    done
  }

  reap_swarm() { # $1 = phase name, $2 = node id to skip ("" for none)
    local phase="$1" skip="${2:-}" status=0 i rc
    for ((i = 0; i < n; ++i)); do
      [[ "${i}" == "${skip}" ]] && continue
      rc=0
      wait "${pids[i]}" || rc=$?
      if [[ "${rc}" != 0 ]]; then
        status=1
        echo "--- ${phase}: node ${i} exited ${rc}"
        tail -4 "${logdir}/${phase}-${i}.log"
      fi
    done
    return "${status}"
  }

  echo "=== udp-smoke: 8 processes, clean full delivery ==="
  launch_swarm clean "$((20000 + RANDOM % 20000))"
  reap_swarm clean
  grep -h "^OK:" "${logdir}"/clean-*.log

  echo "=== udp-smoke: chaos — kill -9 node 2 mid-multicast ==="
  launch_swarm chaos "$((41000 + RANDOM % 20000))"
  # Injection starts right after the 2 s warmup; the kill lands inside the
  # multicast burst. Node 2 is neither root (0) nor injector (1).
  sleep 2.1
  kill -9 "${pids[2]}" 2>/dev/null || true
  wait "${pids[2]}" 2>/dev/null || true
  reap_swarm chaos 2
  grep -h "^OK:" "${logdir}"/chaos-*.log
  echo "=== udp-smoke passed ==="
  exit 0
fi

# multigroup-smoke: the multi-group plane end to end. Phase 1 is the sim
# gate (ext_multigroup --smoke): 8 groups, multiplexing on vs off — digest
# multiplexing must cut gossip messages below 0.7x the one-gossip-per-group
# baseline while every group delivers everything. Phase 2 runs 8 gocastd
# processes over loopback UDP with --groups 4: every process derives the
# same subscription table from the seed, the injector (node 2, a 3-group
# subscriber under seed 7) round-robins its groups, and each process exits
# 0 only after delivering every multicast in every group it subscribes to.
if [[ "${1:-}" == "multigroup-smoke" ]]; then
  cmake -B "${root}/build" -S "${root}"
  cmake --build "${root}/build" -j "${jobs}" --target ext_multigroup gocastd
  echo "=== multigroup-smoke: sim sweep (mux on vs off) ==="
  "${root}/build/bench/ext_multigroup" --smoke

  echo "=== multigroup-smoke: 8 gocastd processes, --groups 4 over UDP ==="
  bin="${root}/build/tools/gocastd"
  n=8
  logdir="$(mktemp -d)"
  base="$((27000 + RANDOM % 20000))"
  peers=""
  for ((i = 0; i < n; ++i)); do
    peers+="${peers:+,}${i}@127.0.0.1:$((base + i))"
  done
  epoch="$(date +%s)"
  pids=()
  for ((i = 0; i < n; ++i)); do
    "${bin}" --node-id "${i}" --listen "127.0.0.1:$((base + i))" \
      --peers "${peers}" --inject-at 2 --messages 6 --payload 512 \
      --warmup 2.0 --timeout 25 --drain 1.5 --epoch "${epoch}" --seed 7 \
      --groups 4 >"${logdir}/mg-${i}.log" 2>&1 &
    pids+=("$!")
  done
  status=0
  for ((i = 0; i < n; ++i)); do
    rc=0
    wait "${pids[i]}" || rc=$?
    if [[ "${rc}" != 0 ]]; then
      status=1
      echo "--- multigroup: node ${i} exited ${rc}"
      tail -4 "${logdir}/mg-${i}.log"
    fi
  done
  grep -h "^OK:" "${logdir}"/mg-*.log
  [[ "${status}" == 0 ]] || exit 1
  echo "=== multigroup-smoke passed ==="
  exit 0
fi

# pdes-smoke: the sharded-PDES determinism gate — the same 2048-node
# scenario at shards=1 (one shard, the serial run), shards=3 and shards=4
# (engines in conservative lookahead windows) must report byte-identical
# delivery checksums, at each of several seeds, for the push-gossip baseline,
# and for a session/flash churn run with deferred joiners. Any divergence is
# an ordering bug in the sharded runtime (see DESIGN.md §11), never
# acceptable noise.
if [[ "${1:-}" == "pdes-smoke" ]]; then
  cmake -B "${root}/build" -S "${root}"
  cmake --build "${root}/build" -j "${jobs}" --target gocast_sim_cli
  bin="${root}/build/tools/gocast_sim"
  sim_args=(--nodes 2048 --messages 60 --warmup 60 --drain 10)
  checksum() { # $1 = shard count, the rest = extra gocast_sim flags
    local shards="$1"
    shift
    "${bin}" "${sim_args[@]}" --shards "${shards}" "$@" |
      sed -n 's/.*delivery checksum *| *\([0-9a-f]*\).*/\1/p'
  }
  compare_shards() { # $1 = label, the rest = extra gocast_sim flags
    local label="$1"
    shift
    echo "=== pdes-smoke: 2048 nodes, ${label}, shards=1 vs 3 vs 4 ==="
    local sum1 sum shards
    sum1="$(checksum 1 "$@")"
    echo "shards=1 checksum: ${sum1}"
    # shards=3: the node-weighted site cut is uneven there.
    for shards in 3 4; do
      sum="$(checksum "${shards}" "$@")"
      echo "shards=${shards} checksum: ${sum}"
      if [[ -z "${sum1}" || "${sum1}" != "${sum}" ]]; then
        echo "FATAL: delivery checksums differ across shard counts" >&2
        exit 1
      fi
    done
  }
  for seed in 1 2 6; do
    compare_shards "seed ${seed}" --seed "${seed}"
  done
  compare_shards "push gossip, seed 1" --protocol gossip --seed 1
  compare_shards "session/flash churn, seed 5" --seed 5 --deferred 128 \
    --faults "30:session:dist=gnutella,rate=2,until=70; 45:flash:n=40,ramp=4"
  echo "=== pdes-smoke passed ==="
  exit 0
fi

# tsan: the concurrency surface under ThreadSanitizer — the runner/parallel
# unit tests, the sharded-PDES tests (shards=4 scenario runs exercise the
# window barrier protocol under real threads), and a 2-thread sweep through
# a converted bench driver.
if [[ "${1:-}" == "tsan" ]]; then
  cmake -B "${root}/build-tsan" -S "${root}" -DGOCAST_SANITIZE=thread
  cmake --build "${root}/build-tsan" -j "${jobs}" --target gocast_tests fig4_scalability
  echo "=== tsan: runner unit tests ==="
  (cd "${root}/build-tsan" && ctest --output-on-failure \
    -R 'Runner|Sweep|Parallel|DeriveJobSeed')
  echo "=== tsan: sharded-PDES tests ==="
  (cd "${root}/build-tsan" && ctest --output-on-failure \
    -R 'ScheduleAtOrdered|MinCrossPartition|Sharded')
  echo "=== tsan: 2-thread mini-sweep ==="
  GOCAST_BENCH_SCALE=0.05 GOCAST_WARMUP=40 \
    "${root}/build-tsan/bench/fig4_scalability" --threads 2
  echo "=== tsan checks passed ==="
  exit 0
fi

EXTRA_CTEST_ARGS=("$@")

run_config build
run_config build-asan -DGOCAST_SANITIZE=ON

echo "=== all checks passed ==="
