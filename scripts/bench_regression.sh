#!/usr/bin/env bash
# Performance regression harness.
#
# Stage 1 (LA core): runs the paired optimized-vs-reference
# micro-benchmarks (fixed seeds baked into bench_micro_kernels.cc) plus
# the end-to-end Table-4 predict step, and distils both into
# BENCH_la.json:
#
#   {"micro": [{"op", "size", "ns_per_op", "reference_ns_per_op",
#               "speedup_vs_reference"}, ...],
#    "end_to_end": {"predict_seconds_p50", ...}}
#
# Stage 2 (kNN index): runs the Fig-7 search workload under BOTH execution
# backends and distils the filter-and-verify counters into
# BENCH_index.json — pruning ratio, verify/append wall time, and the
# early-abandon/late-prune split of the cascade. Primary metrics come from
# the native backend (`"backend": "native"`); the `simgpu_comparison`
# block holds the simulated-grid run of the same workload plus the
# native-vs-simgpu verify speedup. BENCH_la.json's end_to_end block is
# likewise native-primary with a simgpu comparison.
#
# Stage 3 (serving layer): runs the Fig-12 continuous-prediction workload
# through the sharded PredictionServer under closed-loop clients and
# writes BENCH_serve.json — throughput, p50/p99 request latency, and the
# per-stage attribution table (owner-clock seconds for each of the nine
# taxonomy stages, globally and per shard) — with the pre-serve
# single-caller manager loop re-measured in the same run as the embedded
# baseline. BENCH_serve_exemplars.json rides along: a Chrome/Perfetto
# trace holding the span trees of the slowest requests of the run.
#
# Stage 4 (tiered storage): runs the capacity workload — the same fleet
# all-resident and under a TieredStateStore budgeted to a handful of
# resident engine slots — and writes BENCH_capacity.json: the
# demonstrated capacity ratio (fleet bytes / serving-phase resident
# high-water), its 6 GiB extrapolation, the resident-bytes/RSS curve,
# rehydration p50/p99, and the 9-stage attribution (rehydration is its
# own `rehydrate` stage, timed at the inline pin, no longer folded into
# batch_form).
#
#   scripts/bench_regression.sh            # writes ./BENCH_*.json
#   scripts/bench_regression.sh /tmp/out   # writes them under /tmp/out
set -euo pipefail
cd "$(dirname "$0")/.."

OUT_DIR="${1:-.}"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

cmake -B build -S . >/dev/null
cmake --build build -j --target bench_micro_kernels bench_table4_running_time \
  bench_fig07_knn_search bench_serve bench_capacity >/dev/null

# Every binary the stages below invoke. A missing one must abort the run
# up front with a loud error — not midway through with a partial set of
# BENCH_*.json files that silently masquerades as a full refresh.
REQUIRED_BINARIES=(
  build/bench/bench_micro_kernels
  build/bench/bench_table4_running_time
  build/bench/bench_fig07_knn_search
  build/bench/bench_serve
  build/bench/bench_capacity
)
for bin in "${REQUIRED_BINARIES[@]}"; do
  if [[ ! -x "$bin" ]]; then
    echo "bench_regression.sh: ERROR: required bench binary '$bin' is" \
      "missing or not executable after the build; refusing to emit a" \
      "partial BENCH_*.json set" >&2
    exit 1
  fi
done

echo "== micro kernels (paired vs la::reference) =="
./build/bench/bench_micro_kernels \
  --benchmark_filter='Cholesky|MatMul|SolveMatrix|Inverse|KernelMatrix' \
  --benchmark_min_time=0.2 \
  --benchmark_out="$WORK/micro.json" --benchmark_out_format=json

echo "== end-to-end predict step (Table 4 path, native + simgpu) =="
# Primary numbers come from the native backend (the recommended production
# setting); the same workload re-runs under the simulated grid so the
# report carries a per-run backend comparison.
SMILER_BENCH_SCALE="${SMILER_BENCH_SCALE:-smoke}" SMILER_BACKEND=native \
  ./build/bench/bench_table4_running_time \
  --metrics-json "$WORK/table4_metrics.json" > "$WORK/table4.txt"
grep "SMiLer-GP" "$WORK/table4.txt" || true
SMILER_BENCH_SCALE="${SMILER_BENCH_SCALE:-smoke}" SMILER_BACKEND=simgpu \
  ./build/bench/bench_table4_running_time \
  --metrics-json "$WORK/table4_metrics_simgpu.json" > "$WORK/table4_simgpu.txt"

python3 - "$WORK/micro.json" "$WORK/table4_metrics.json" \
  "$WORK/table4_metrics_simgpu.json" "$OUT_DIR/BENCH_la.json" <<'PY'
import json
import sys

micro_path, metrics_path, simgpu_metrics_path, out_path = (
    sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4])

# Optimized benchmark -> (reference twin, logical op name).
PAIRS = {
    "BM_CholeskyBlocked": ("BM_CholeskyReference", "cholesky_factor"),
    "BM_MatMulTiled": ("BM_MatMulReference", "matmul"),
    "BM_SolveMatrixBatched": ("BM_SolveMatrixColumnwise", "solve_multi_rhs"),
    "BM_InverseDiagonal": ("BM_InverseFull", "inverse_diagonal"),
    "BM_KernelMatrixCachedGram": ("BM_KernelMatrixFromInputs",
                                  "kernel_matrix"),
}

with open(micro_path) as f:
    runs = json.load(f)["benchmarks"]
times = {}
for b in runs:
    if b.get("run_type", "iteration") != "iteration":
        continue
    name, _, size = b["name"].partition("/")
    times[(name, int(size))] = float(b["real_time"])  # ns (default unit)

micro = []
for (name, size), ns in sorted(times.items()):
    if name not in PAIRS:
        continue
    ref_name, op = PAIRS[name]
    ref_ns = times.get((ref_name, size))
    if ref_ns is None:
        continue
    micro.append({
        "op": op,
        "size": size,
        "ns_per_op": round(ns, 1),
        "reference_ns_per_op": round(ref_ns, 1),
        "speedup_vs_reference": round(ref_ns / ns, 2),
    })

def predict_block(path):
    with open(path) as f:
        metrics = json.load(f)
    h = metrics.get("histograms", {}).get("engine.predict_seconds", {})
    return {
        "predict_seconds_p50": h.get("p50"),
        "predict_seconds_p95": h.get("p95"),
        "predict_steps": h.get("count"),
    } if h else {}


predict = predict_block(metrics_path)
simgpu_predict = predict_block(simgpu_metrics_path)
comparison = {"end_to_end": simgpu_predict}
if predict.get("predict_seconds_p50") and \
        simgpu_predict.get("predict_seconds_p50"):
    comparison["predict_p50_speedup_native_vs_simgpu"] = round(
        simgpu_predict["predict_seconds_p50"] /
        predict["predict_seconds_p50"], 3)

out = {
    "backend": "native",
    "micro": micro,
    "end_to_end": predict,
    "simgpu_comparison": comparison,
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

for row in micro:
    print(f"  {row['op']:>16} n={row['size']:<4} "
          f"{row['speedup_vs_reference']:.2f}x vs reference")
print(f"wrote {out_path}")
PY

echo "== kNN index search/append (Fig 7 workload, native + simgpu) =="
SMILER_BENCH_SCALE="${SMILER_BENCH_SCALE:-smoke}" SMILER_BACKEND=native \
  ./build/bench/bench_fig07_knn_search \
  --metrics-json "$WORK/fig07_metrics.json" > "$WORK/fig07.txt"
SMILER_BENCH_SCALE="${SMILER_BENCH_SCALE:-smoke}" SMILER_BACKEND=simgpu \
  ./build/bench/bench_fig07_knn_search \
  --metrics-json "$WORK/fig07_metrics_simgpu.json" > "$WORK/fig07_simgpu.txt"

python3 - "$WORK/fig07_metrics.json" "$WORK/fig07_metrics_simgpu.json" \
  "$OUT_DIR/BENCH_index.json" <<'PY'
import json
import sys

metrics_path, simgpu_metrics_path, out_path = (
    sys.argv[1], sys.argv[2], sys.argv[3])
with open(metrics_path) as f:
    metrics = json.load(f)
with open(simgpu_metrics_path) as f:
    simgpu_metrics = json.load(f)
c = metrics.get("counters", {})
g = metrics.get("gauges", {})
h = metrics.get("histograms", {})


def hist(name, hists=None):
    d = (h if hists is None else hists).get(name, {})
    return {k: d.get(k) for k in ("count", "sum", "p50", "p95")}


# Counters are deterministic on the fixed-seed smoke workload; the
# "baseline" block is the pre-cascade core (threshold fixed after
# seeding, no early abandon, serial item loop) measured on the same
# workload, kept here so the speedup survives in-tree.
sc = simgpu_metrics.get("counters", {})
sh = simgpu_metrics.get("histograms", {})
simgpu_comparison = {
    "candidates_total": sc.get("index.candidates_total"),
    "candidates_verified": sc.get("index.candidates_verified"),
    "verify_seconds": hist("index.search.verify_seconds", sh),
    "append_seconds": hist("index.append_seconds", sh),
    "lower_bound_seconds": hist("index.search.lower_bound_seconds", sh),
}
native_verify = h.get("index.search.verify_seconds", {}).get("sum")
simgpu_verify = sh.get("index.search.verify_seconds", {}).get("sum")
if native_verify and simgpu_verify:
    simgpu_comparison["verify_speedup_native_vs_simgpu"] = round(
        simgpu_verify / native_verify, 3)

out = {
    "workload": "bench_fig07_knn_search SMILER_BENCH_SCALE=smoke",
    "backend": "native",
    "candidates_total": c.get("index.candidates_total"),
    "candidates_verified": c.get("index.candidates_verified"),
    "verify_early_abandoned": c.get("index.verify.early_abandoned"),
    "verify_pruned_late": c.get("index.verify.pruned_late"),
    "pruning_ratio": g.get("search.pruning_ratio"),
    "verify_seconds": hist("index.search.verify_seconds"),
    "append_seconds": hist("index.append_seconds"),
    "lower_bound_seconds": hist("index.search.lower_bound_seconds"),
    "simgpu_comparison": simgpu_comparison,
    "baseline": {
        "candidates_total": 11748960,
        "candidates_verified": 2548756,
        "pruning_ratio": 0.878594771,
        "verify_seconds_sum": 4.71945928,
        "append_seconds_sum": 0.113234807,
        "lower_bound_seconds_sum": 0.133257158,
    },
}
with open(out_path, "w") as f:
    json.dump(out, f, indent=2)
    f.write("\n")

base = out["baseline"]
if out["candidates_verified"] and base["candidates_verified"]:
    ratio = out["candidates_verified"] / base["candidates_verified"]
    print(f"  candidates_verified: {out['candidates_verified']} "
          f"({ratio:.2f}x of pre-cascade baseline)")
vs = out["verify_seconds"].get("sum")
if vs:
    print(f"  verify_seconds sum: {vs:.3f} "
          f"(baseline {base['verify_seconds_sum']:.3f})")
speedup = simgpu_comparison.get("verify_speedup_native_vs_simgpu")
if speedup:
    print(f"  verify native vs simgpu: {speedup:.2f}x "
          f"(simgpu {simgpu_verify:.3f}s -> native {native_verify:.3f}s)")
print(f"wrote {out_path}")
PY

echo "== serving layer (Fig-12 workload through PredictionServer) =="
# bench_serve measures the sharded server under closed-loop clients and
# re-measures the pre-serve single-caller manager loop in the same run as
# the embedded baseline, then writes the JSON itself — including the
# per-stage attribution table (owner-clock seconds per taxonomy stage,
# globally and per shard). --trace-exemplars additionally saves the span
# trees of the slowest requests as a Chrome/Perfetto trace next to it.
# --sweep adds the shards x clients scaling grid to the report (the
# "sweep" block) so BENCH_serve.json records how throughput scales with
# shard count on this machine; scripts/check.sh gates on it.
SMILER_BENCH_SCALE="${SMILER_BENCH_SCALE:-smoke}" SMILER_BACKEND=native \
  ./build/bench/bench_serve --sweep --out "$OUT_DIR/BENCH_serve.json" \
  --trace-exemplars "$OUT_DIR/BENCH_serve_exemplars.json"

echo "== tiered-store capacity (all-resident vs budgeted spill) =="
# bench_capacity probes the exact per-sensor resident footprint, serves
# the fleet all-resident and again under a store budgeted to a few
# resident engine slots, and writes the JSON itself — the demonstrated
# ratio is fleet bytes over the serving-phase resident high-water, so
# transient pinned-batch residency above the budget counts against it.
SMILER_BENCH_SCALE="${SMILER_BENCH_SCALE:-smoke}" SMILER_BACKEND=native \
  ./build/bench/bench_capacity --out "$OUT_DIR/BENCH_capacity.json"
