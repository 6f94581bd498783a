#!/usr/bin/env bash
# Builds the benchmark suite in Release mode, runs
# bench_micro_range_query, bench_answer_kernel,
# bench_service_throughput, bench_snapshot_build, bench_streaming_serve,
# bench_socket_serve, bench_plan_sweep, and bench_recovery_restart, and
# writes BENCH_range_query.json, BENCH_answer_kernel.json,
# BENCH_service.json, BENCH_snapshot_build.json, BENCH_streaming.json,
# BENCH_socket.json, BENCH_plan.json, and BENCH_recovery.json at the
# repo root so the query-path, SIMD answer-engine, serving-layer,
# publish-latency, online-replan, network-transport, planner, and
# crash-recovery performance trajectories are tracked from PR to PR.
#
# Usage: tools/run_bench.sh [extra micro_range_query flags...]
#   e.g. tools/run_bench.sh --max-log2=16 --min-time-ms=100
# The service bench is configured through DPHIST_* env vars
# (DPHIST_DOMAIN_LOG2, DPHIST_PHASES, DPHIST_THREADS_LIST, ...).

set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${REPO_ROOT}/build-release"

cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" -DCMAKE_BUILD_TYPE=Release \
  -DDPHIST_BUILD_BENCH=ON >/dev/null
cmake --build "${BUILD_DIR}" \
  --target bench_micro_range_query bench_answer_kernel \
  bench_service_throughput \
  bench_snapshot_build bench_streaming_serve bench_socket_serve \
  bench_plan_sweep bench_recovery_restart \
  -j >/dev/null

OUT="${REPO_ROOT}/BENCH_range_query.json"
"${BUILD_DIR}/bench_micro_range_query" "$@" > "${OUT}"

KERNEL_OUT="${REPO_ROOT}/BENCH_answer_kernel.json"
"${BUILD_DIR}/bench_answer_kernel" > "${KERNEL_OUT}"

SERVICE_OUT="${REPO_ROOT}/BENCH_service.json"
"${BUILD_DIR}/bench_service_throughput" > "${SERVICE_OUT}"

SNAPSHOT_OUT="${REPO_ROOT}/BENCH_snapshot_build.json"
"${BUILD_DIR}/bench_snapshot_build" > "${SNAPSHOT_OUT}"

STREAMING_OUT="${REPO_ROOT}/BENCH_streaming.json"
"${BUILD_DIR}/bench_streaming_serve" > "${STREAMING_OUT}"

SOCKET_OUT="${REPO_ROOT}/BENCH_socket.json"
"${BUILD_DIR}/bench_socket_serve" > "${SOCKET_OUT}"

PLAN_OUT="${REPO_ROOT}/BENCH_plan.json"
"${BUILD_DIR}/bench_plan_sweep" > "${PLAN_OUT}"

RECOVERY_OUT="${REPO_ROOT}/BENCH_recovery.json"
"${BUILD_DIR}/bench_recovery_restart" > "${RECOVERY_OUT}"

echo "wrote ${OUT}"
echo "wrote ${KERNEL_OUT}"
echo "wrote ${SERVICE_OUT}"
echo "wrote ${SNAPSHOT_OUT}"
echo "wrote ${STREAMING_OUT}"
echo "wrote ${SOCKET_OUT}"
echo "wrote ${PLAN_OUT}"
echo "wrote ${RECOVERY_OUT}"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$OUT" "$SERVICE_OUT" "$SNAPSHOT_OUT" "$STREAMING_OUT" "$SOCKET_OUT" "$PLAN_OUT" "$RECOVERY_OUT" "$KERNEL_OUT" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    data = json.load(f)
s = data["summary"]
print(f"H-bar prefix path at max domain: {s['hbar_prefix_qps_at_max_domain']:.3g} q/s "
      f"({s['hbar_prefix_speedup_at_max_domain']:.1f}x over decomposition)")
with open(sys.argv[8]) as f:
    kernel = json.load(f)
s = kernel["summary"]
print(f"Answer engine ({kernel['active_kernel']}) at qb-4096: "
      f"{s['engine_ns_per_query_at_qb4096']:.3g} ns/query "
      f"({s['engine_speedup_at_qb4096']:.1f}x over per-query walker; "
      f"bit_identical={kernel['bit_identical']})")
with open(sys.argv[2]) as f:
    service = json.load(f)
s = service["summary"]
print(f"QueryService {service['strategy']} aggregate at {s['max_threads']} "
      f"threads: {s['median_qps_at_max_threads']:.3g} q/s median "
      f"({s['speedup_max_over_min']:.1f}x over {s['min_threads']})")
with open(sys.argv[3]) as f:
    snapshot = json.load(f)
s = snapshot["summary"]
print(f"Snapshot build at {s['max_threads']} threads: "
      f"{s['build_seconds_max_threads']:.3g} s "
      f"({s['speedup_max_over_min']:.1f}x over {s['min_threads']}; "
      f"bit_identical={snapshot['bit_identical']})")
with open(sys.argv[4]) as f:
    streaming = json.load(f)
s = streaming["summary"]
print(f"Streaming serve: {s['steady_state_qps']:.3g} q/s steady, "
      f"replan pause {s['replan_pause_seconds']*1e3:.3g} ms "
      f"(build {s['mean_replan_build_seconds']*1e3:.3g} ms, "
      f"{streaming['hardware_concurrency']} core(s))")
with open(sys.argv[5]) as f:
    socket_bench = json.load(f)
s = socket_bench["summary"]
print(f"Socket serve: {s['qps_at_min_connections']:.3g} q/s aggregate at "
      f"{s['min_connections']} connection(s), "
      f"{s['qps_at_max_connections']:.3g} at {s['max_connections']} "
      f"({s['scaling_max_over_min']:.2f}x; "
      f"{socket_bench['hardware_concurrency']} core(s))")
with open(sys.argv[6]) as f:
    plan = json.load(f)
s = plan["summary"]
print(f"Plan sweep at n=2^{s['max_domain_log2']}: "
      f"{s['plan_seconds_at_max_domain']*1e3:.3g} ms cold, "
      f"{s['warm_replan_seconds_at_max_domain']*1e3:.3g} ms warm replan, "
      f"{s['infeasible_rows']} infeasible row(s); dense oracle at "
      f"n=2^{s['dense_domain_log2']} is {s['dense_over_recurrence']:.0f}x "
      f"slower")
with open(sys.argv[7]) as f:
    recovery = json.load(f)
s = recovery["summary"]
print(f"Recovery at n={s['max_domain']}: warm restart "
      f"{s['recover_seconds_at_max_domain']*1e3:.3g} ms "
      f"({s['recover_vs_rebuild_ratio']:.2f}x a rebuild; durable publish "
      f"{s['durability_overhead_ratio']:.2f}x volatile; "
      f"bit_identical={recovery['bit_identical']})")
EOF
fi
