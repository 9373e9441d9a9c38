#!/usr/bin/env bash
# Repo gate: tier-1 (release build + root test suite), the full workspace
# test matrix, and clippy with warnings-as-errors.
#
# Every dependency resolves to an in-tree shim crate under shims/ (see
# README "Offline builds"), so the whole gate runs with no network access.
# Pass --offline (or export CARGO_NET_OFFLINE=true) to forbid registry
# access outright; the script also falls back to --offline by itself when
# the registry is unreachable.
set -euo pipefail
cd "$(dirname "$0")/.."

CARGO_FLAGS=()
if [[ "${1:-}" == "--offline" ]] || [[ "${CARGO_NET_OFFLINE:-}" == "true" ]]; then
  CARGO_FLAGS+=(--offline)
elif ! cargo fetch --quiet >/dev/null 2>&1; then
  echo "ci: registry unreachable, continuing with --offline"
  CARGO_FLAGS+=(--offline)
fi

run() {
  echo "+ cargo $*"
  cargo "$@"
}

# Perf gates that could not compare (perf_gate prints a `SKIP` line to
# stderr when the record and the baseline come from hosts with different
# core counts). Such a gate passes, but the final status names the count.
perf_skips=0
perf_gate() {
  local log
  log=$(mktemp)
  local status=0
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin perf_gate -- "$@" 2>"$log" || status=$?
  cat "$log" >&2
  if grep -q '^SKIP' "$log"; then
    perf_skips=$((perf_skips + 1))
  fi
  rm -f "$log"
  return "$status"
}

# Tier-1: release build + root test suite.
run build --release "${CARGO_FLAGS[@]}"
run test -q "${CARGO_FLAGS[@]}"

# Full workspace suites (unit + integration + property tests, incl. shims).
run test -q --workspace "${CARGO_FLAGS[@]}"

# Lints: the tree stays warning-free.
run clippy --workspace --all-targets "${CARGO_FLAGS[@]}" -- -D warnings

# Compile-only guard for the end-to-end benchmark. It lives in a workspace
# of its own and builds against the library crates' public API, which
# nothing above compiles, so an API removal that breaks it fails here.
run check --offline --locked --manifest-path e2ebench/Cargo.toml

# Blocking determinism/unit-safety gate (see DESIGN.md "Static invariants").
# Writes the machine-readable report to results/simlint_report.json.
# Includes the probe-unique rule: ProbeId names stay unique workspace-wide.
run run -q -p simlint "${CARGO_FLAGS[@]}" -- --workspace
echo "ci: simlint report at results/simlint_report.json"

# Model-checking gate: exhaustively explore the CI configuration (3 nodes,
# window 2, loss budget 2, plus dup/reorder/crash budgets) of the reliable-
# multicast protocol and fail on any invariant violation or deadlock. The
# run is deterministic (fixed BFS order) and bounded by a state-count and
# wall budget; it writes results/simcheck_report.json (DESIGN.md §13).
run run -q --release -p simcheck "${CARGO_FLAGS[@]}" -- --ci
echo "ci: simcheck report at results/simcheck_report.json"

# Every step below rewrites committed artifacts under results/ (figure
# JSONs, traces, the health report, perf records). Snapshot the directory
# once: the steps compare their fresh output against the snapshot, and the
# snapshot is copied back over results/ when the script exits, pass or fail.
results_snapshot=$(mktemp -d)
cp -a results/. "$results_snapshot"/
restore_results() {
  cp -a "$results_snapshot"/. results/
  rm -rf "$results_snapshot"
}
trap restore_results EXIT

# Observability gate: one probed run must export a Perfetto-loadable Chrome
# trace-event document (--check re-parses it and validates ph/ts/pid/tid,
# B/E balance and per-track timestamp monotonicity) with the attribution
# buckets summing to the measured mean. The fresh trace must also equal the
# committed one byte for byte: the probe stream is deterministic, so any
# change to recording or to the canonical merge shows up here.
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin trace_explore -- \
  --nodes 16 --size 4096 --mode nic --shape adaptive --check
if ! cmp results/trace_nic_16n_4096B.json "$results_snapshot/trace_nic_16n_4096B.json"; then
  echo "ci: trace_explore output differs from the committed results/trace_nic_16n_4096B.json" >&2
  exit 1
fi
echo "ci: trace schema OK, byte-identical to the committed results/trace_nic_16n_4096B.json"

# Causal-tracing gate: the flow graph of the headline configuration must be
# acyclic with complete lineages, and every measured window's critical-path
# buckets must sum exactly to the completion latency (DESIGN.md §12).
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin flow_explore -- \
  --nodes 16 --size 4096 --mode nic --shape adaptive --check >/dev/null
echo "ci: flow check OK (lineages complete, critical-path buckets exact)"

# Sustained-traffic gate: a many-group Zipf workload under deliberate
# group-table pressure (32 slots, 64 groups) must produce a complete
# summary (schema keys present), monotone latency percentiles, a Jain
# fairness index in (0, 1], and a conserved group table (every install
# freed by the disband path) — see DESIGN.md §14. The run also records a
# fresh `workload_explore` dispatch-rate point, gated below against the
# snapshot's committed baseline.
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin workload_explore -- \
  --nodes 32 --groups 64 --zipf 1.2 --rate 20000 --duration-ms 2 --check >/dev/null
echo "ci: workload check OK (schema, percentile monotonicity, fairness, group-table conservation)"

# Health-monitoring gate: a lossy many-group workload with the streaming
# detectors armed must (a) raise a retx_storm incident with causal FlowId
# evidence, (b) emit the incident stream in canonical order, (c) produce a
# byte-identical health summary across shard counts, and (d) overflow no
# telemetry ring (DESIGN.md §16). The fresh artifact is then self-diffed
# against the committed one with report_diff: identical configuration must
# produce an identical report, so the differ's "silent on equal inputs"
# contract and the artifact's byte-stability are both gated here.
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin health_explore -- --check >/dev/null
echo "ci: health check OK (storm evidence, canonical order, shard-invariant, no ring drops)"
run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin report_diff -- \
  "$results_snapshot/health_explore.json" results/health_explore.json
echo "ci: report_diff OK (re-run of identical config diffs clean)"

# Figure-artifact oracle: every paper figure, ablation and extension binary,
# rerun at its default arguments, must reproduce its committed JSON byte for
# byte. The simulations are deterministic, so any change to simulated
# behaviour (or to an artifact's schema) fails here until the artifact is
# regenerated and committed with the change.
figure_bins=(
  fig3_multisend fig4_mpi_bcast fig5_gm_multicast fig6_skew fig7_skew_scaling gm_allsize
  ablation_ack_coalesce ablation_loss ablation_multisend_impl ablation_retx_buffer
  ablation_token ablation_tree
  ext_allbcast ext_allreduce ext_nic_barrier ext_rndv_bcast ext_scalability ext_throughput
)
run build -q --release -p bench "${CARGO_FLAGS[@]}" --bins
artifact_diffs=0
for bin in "${figure_bins[@]}"; do
  "${CARGO_TARGET_DIR:-target}/release/$bin" >/dev/null
  if ! cmp "results/$bin.json" "$results_snapshot/$bin.json"; then
    artifact_diffs=$((artifact_diffs + 1))
  fi
done
if (( artifact_diffs != 0 )); then
  echo "ci: $artifact_diffs figure artifacts differ from the committed results/*.json" >&2
  exit 1
fi
echo "ci: artifact oracle OK (${#figure_bins[@]} figure JSONs byte-identical to the committed ones)"

# Shard-parity gate on a figure artifact: the scalability sweep split into
# 4 shards must reproduce the committed results/ext_scalability.json byte
# for byte. It is a parity check, not a timing gate, so MYRI_CI_NO_PERF=1
# does not skip it; since shards run on the calling thread it finishes in
# well under a second, and a return of the shard-oversubscription slowdown
# would show up as a stall here. Its sharded perf record is overwritten by
# the unsharded gate run below.
MYRI_SIM_SHARDS=4 run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin ext_scalability -- \
  --iters 3 --warmup 1 >/dev/null
if ! cmp results/ext_scalability.json "$results_snapshot/ext_scalability.json"; then
  echo "ci: 4-shard ext_scalability differs from the committed results/ext_scalability.json" >&2
  exit 1
fi
echo "ci: shard parity OK (4-shard ext_scalability matches the committed artifact)"

# Perf-regression gate: re-measure the scalability sweep's dispatch rate
# and the steady-state workload's, and compare events_per_sec against the
# committed baseline; more than 25% regression fails the build. Rates are
# per-second, so the short gate run and the full baseline run compare
# fairly; across hosts with different core counts a rate cannot compare,
# and a gate with nothing else to check passes with a SKIP line, counted
# into the final status line.
# MYRI_CI_NO_PERF=1 opts out (e.g. on heavily loaded or throttled runners).
if [[ "${MYRI_CI_NO_PERF:-}" == "1" ]]; then
  echo "ci: perf gate skipped (MYRI_CI_NO_PERF=1)"
else
  perf_baseline="$results_snapshot/perf_baseline.json"
  run run -q --release -p bench "${CARGO_FLAGS[@]}" --bin ext_scalability -- \
    --iters 10 --warmup 2 >/dev/null
  perf_gate ext_scalability "$perf_baseline" results/perf_baseline.json 0.25
  perf_gate workload_explore "$perf_baseline" results/perf_baseline.json 0.25
  # Allocation-churn gate: re-measure with the counting allocator compiled
  # in (records under `ext_scalability_alloc` so it never collides with the
  # timing baseline) and fail on a >10% allocs-per-event regression, on
  # any host: the count does not depend on the core count. The baseline
  # was recorded with the same --iters/--warmup so fixed setup
  # allocations amortize identically.
  run run -q --release -p bench --features alloc-count "${CARGO_FLAGS[@]}" \
    --bin ext_scalability -- --iters 3 --warmup 1 >/dev/null
  perf_gate ext_scalability_alloc "$perf_baseline" results/perf_baseline.json 0.25
fi

if (( perf_skips > 0 )); then
  echo "ci: all green ($perf_skips perf gates did not compare: core-count mismatch)"
else
  echo "ci: all green"
fi
