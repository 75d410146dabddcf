#!/usr/bin/env bash
# Repo gate: tier-1 build + tests, the backend-equivalence re-run
# (index/GP/DTW suites under SMILER_BACKEND=native), the benchmark's
# served-vs-replayed correctness self-check, the obs concurrency
# tests under ThreadSanitizer, the serve SPSC/soak TSan pass, the
# tracing-overhead gate (tracing-on must stay within 3% of tracing-off on
# the smoke Fig-7 bench), and the serve shard-scaling smoke gate (4
# shards must reach 1.3x the 1-shard throughput on multi-core runners).
#
#   scripts/check.sh             # full gate
#   scripts/check.sh --fast      # tier-1 label only, skip the TSan pass
#   scripts/check.sh --chaos     # fault-injection build: chaos seed sweep
#                                # under ThreadSanitizer (docs/testing.md)
#   scripts/check.sh --capacity  # tiered-store gate: evict/rehydrate
#                                # bitwise equivalence, quantization
#                                # properties, and the store fault points
#                                # under ASan+UBSan with chaos enabled
#   scripts/check.sh --coverage  # gcovr line coverage for src/serve +
#                                # src/index (skipped if gcovr is absent)
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="full"
case "${1:-}" in
  --fast) MODE="fast" ;;
  --chaos) MODE="chaos" ;;
  --capacity) MODE="capacity" ;;
  --coverage) MODE="coverage" ;;
esac

if [[ "$MODE" == "chaos" ]]; then
  echo "== chaos build (SMILER_ENABLE_CHAOS + TSan) =="
  cmake -B build-chaos-tsan -S . \
    -DSMILER_ENABLE_CHAOS=ON \
    -DSMILER_ENABLE_TSAN=ON \
    -DSMILER_BUILD_BENCHMARKS=OFF \
    -DSMILER_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-chaos-tsan -j \
    --target chaos_test chaos_soak_test >/dev/null
  echo "== chaos seed sweep under ThreadSanitizer =="
  # Every cataloged fault point live at its default probability; any
  # invariant violation prints a SMILER_CHAOS_SEED=<seed> repro line.
  ctest --test-dir build-chaos-tsan -R 'ChaosTest|ChaosSoakTest' \
    --no-tests=error --output-on-failure
  echo "== chaos checks passed =="
  exit 0
fi

if [[ "$MODE" == "capacity" ]]; then
  echo "== capacity build (SMILER_ENABLE_CHAOS + ASan+UBSan) =="
  # The tiered-store correctness surface: the evict/rehydrate bitwise
  # equivalence and budget suites, the quantized-lower-bound property
  # suite, and the chaos scenarios that arm store.spill_write /
  # store.rehydrate_read_short — all under AddressSanitizer, since the
  # store's hot path is mmap'd segment IO and engine teardown/rebuild.
  cmake -B build-capacity-asan -S . \
    -DSMILER_ENABLE_CHAOS=ON \
    -DSMILER_ENABLE_ASAN=ON \
    -DSMILER_BUILD_BENCHMARKS=OFF \
    -DSMILER_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-capacity-asan -j \
    --target store_equivalence_test store_quantize_test chaos_test >/dev/null
  echo "== store equivalence + quantization + chaos under ASan =="
  ctest --test-dir build-capacity-asan \
    -R 'StoreEquivalenceTest|StoreBudgetTest|StoreQuantizeTest|ChaosTest' \
    --no-tests=error --output-on-failure
  echo "== capacity checks passed =="
  exit 0
fi

if [[ "$MODE" == "coverage" ]]; then
  if ! command -v gcovr >/dev/null 2>&1; then
    echo "== gcovr not installed; skipping coverage stage =="
    exit 0
  fi
  echo "== coverage build (SMILER_ENABLE_COVERAGE) =="
  cmake -B build-cov -S . \
    -DSMILER_ENABLE_COVERAGE=ON \
    -DSMILER_BUILD_BENCHMARKS=OFF \
    -DSMILER_BUILD_EXAMPLES=OFF >/dev/null
  cmake --build build-cov -j >/dev/null
  ctest --test-dir build-cov --output-on-failure -j "$(nproc)" >/dev/null
  echo "== line coverage: src/serve + src/index =="
  gcovr --root . \
    --filter 'src/serve/.*' --filter 'src/index/.*' \
    --object-directory build-cov \
    --print-summary
  exit 0
fi

echo "== tier-1 build =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null

echo "== test registration audit =="
# Belt (CMake FATAL_ERRORs on unregistered tests/*_test.cc at configure
# time) and suspenders: every discovered ctest entry must carry a tier
# label, so `ctest -L tier1` + `-L tier2` together cover the whole suite.
TOTAL=$(ctest --test-dir build -N | sed -n 's/^Total Tests: //p')
TIER1=$(ctest --test-dir build -N -L tier1 | sed -n 's/^Total Tests: //p')
TIER2=$(ctest --test-dir build -N -L tier2 | sed -n 's/^Total Tests: //p')
if [[ "$TOTAL" -ne $((TIER1 + TIER2)) ]]; then
  echo "registration audit FAILED: $TOTAL tests discovered but only" \
       "$TIER1 tier1 + $TIER2 tier2 are labeled" >&2
  exit 1
fi
echo "   $TOTAL tests, all labeled ($TIER1 tier1 + $TIER2 tier2)"

echo "== tier-1 tests =="
if [[ "$MODE" == "fast" ]]; then
  ctest --test-dir build -L tier1 --output-on-failure -j "$(nproc)"
else
  ctest --test-dir build --output-on-failure -j "$(nproc)"
fi

echo "== backend equivalence (tier-1 index/GP/DTW suites, SMILER_BACKEND=native) =="
# The native backend must be a drop-in for the simulated grid: the index,
# GP, and DTW tier-1 suites (plus the dedicated cross-backend bitwise
# suite) re-run with every kernel launch routed through the native
# execution path. Runs in fast mode too — backend drift is a correctness
# bug, not a stress-only concern.
SMILER_BACKEND=native ctest --test-dir build \
  -R 'IndexTest|IndexEquivalenceTest|GpTest|DtwTest|DtwPropertyTest|BackendSelectionTest|BackendEquivalenceTest|BackendExactnessContractTest|FleetEquivalenceTest' \
  --no-tests=error --output-on-failure -j "$(nproc)" | tail -n 3

echo "== benchmark self-check (perfbench workloads at tiny scale) =="
# Serves every perfbench workload at a tiny scale, untraced and traced,
# and fails if a served prediction differs bitwise from its sequential
# replay or a metric BENCHMARK.json names is missing. The first run builds
# .bench_build/; that log lands in build/ and is shown only on failure.
if ! python3 perfbench/run.py --self-check 2>build/perfbench_self_check.log; then
  cat build/perfbench_self_check.log >&2
  echo "benchmark self-check FAILED" >&2
  exit 1
fi

if [[ "$MODE" == "fast" ]]; then
  echo "== skipping TSan pass (--fast) =="
  exit 0
fi

echo "== obs concurrency + index search/append tests under ThreadSanitizer =="
# The index suites cover the racy surface added by the parallel search
# core: concurrent per-item SearchItem fan-out, nested device launches,
# the shared tightening tau, and the device stats counters.
cmake -B build-tsan -S . \
  -DSMILER_ENABLE_TSAN=ON \
  -DSMILER_BUILD_BENCHMARKS=OFF \
  -DSMILER_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-tsan -j \
  --target obs_concurrency_test index_equivalence_test index_stress_test \
  >/dev/null
ctest --test-dir build-tsan \
  -R 'ObsConcurrencyTest|IndexEquivalenceTest|IndexStressTest' \
  --no-tests=error --output-on-failure

echo "== serve soak + SPSC lanes under ThreadSanitizer =="
# The serving layer's racy surface: concurrent clients against the
# lock-free SPSC shard lanes, admission-control rejections under flood,
# the mid-run snapshot barrier, shutdown racing in-flight producers, and
# checkpoint IO on the shared thread pool. serve_spsc_test is the
# dedicated TSan target for the ring cursors and lane publication.
# store_equivalence_test rides along for its concurrent-clients-under-
# tiny-budget case: shard workers pinning/unpinning and the budget sweep
# racing client threads is exactly the store's racy surface.
# fleet_equivalence_test's burst traffic drives multi-sensor fleets (one
# fused gram launch, inline rehydrating pins) while clients enqueue.
cmake --build build-tsan -j \
  --target serve_soak_test serve_spsc_test store_equivalence_test \
  fleet_equivalence_test >/dev/null
ctest --test-dir build-tsan \
  -R 'ServeSoakTest|SpscRingTest|SpscRingStressTest|SpscLaneTest|StoreEquivalenceTest|FleetEquivalenceTest' \
  --no-tests=error --output-on-failure

echo "== tracing overhead gate (smoke Fig-7 bench, on vs off) =="
# Request-scoped tracing must stay cheap enough to leave on in
# production: with SMILER_TRACE enabled the smoke Fig-7 search bench may
# run at most 3% slower than with tracing off (plus a small absolute
# grace so sub-second runs don't fail on timer noise). min-of-2 on each
# side after a shared warmup keeps the comparison stable.
cmake --build build -j --target bench_fig07_knn_search >/dev/null
python3 - <<'PY'
import subprocess
import sys
import tempfile
import time

BENCH = "./build/bench/bench_fig07_knn_search"


def run(env_extra):
    import os
    env = dict(os.environ, SMILER_BENCH_SCALE="smoke", **env_extra)
    t0 = time.monotonic()
    subprocess.run([BENCH], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.monotonic() - t0


run({})  # warmup: page in the binary and the dataset generator
with tempfile.NamedTemporaryFile(suffix=".json") as tf:
    off = min(run({}) for _ in range(2))
    on = min(run({"SMILER_TRACE": tf.name}) for _ in range(2))
budget = off * 1.03 + 0.2  # 3% relative + absolute grace for timer noise
verdict = "OK" if on <= budget else "FAIL"
print(f"   tracing off {off:.3f}s  on {on:.3f}s  "
      f"budget {budget:.3f}s  {verdict}")
if on > budget:
    sys.exit("tracing overhead gate FAILED: >3% slowdown with SMILER_TRACE")
PY

echo "== serve shard-scaling smoke gate (4 shards vs 1) =="
# The lock-free data plane must actually buy parallelism: on a multi-core
# runner, best throughput at 4 shards must reach at least 1.3x best
# throughput at 1 shard on the smoke sweep. Shards can't outrun cores, so
# single-core machines skip the assertion (the sweep is still recorded by
# scripts/bench_regression.sh for the report).
if [[ "$(nproc)" -lt 4 ]]; then
  echo "   SKIPPED: only $(nproc) core(s) — shard scaling needs >= 4 cores"
else
  cmake --build build -j --target bench_serve >/dev/null
  SMILER_BENCH_SCALE=smoke SMILER_BACKEND=native \
    ./build/bench/bench_serve --sweep --out build/serve_scaling.json \
    >/dev/null
  python3 - build/serve_scaling.json <<'PY'
import json
import sys

with open(sys.argv[1]) as f:
    configs = json.load(f)["sweep"]["configs"]
best = {}
for c in configs:
    best[c["shards"]] = max(best.get(c["shards"], 0.0),
                            c["throughput_req_per_s"])
if 1 not in best or 4 not in best:
    sys.exit("serve scaling gate FAILED: sweep missing 1- or 4-shard runs")
ratio = best[4] / best[1]
verdict = "OK" if ratio >= 1.3 else "FAIL"
print(f"   1 shard {best[1]:.0f} req/s  4 shards {best[4]:.0f} req/s  "
      f"{ratio:.2f}x  {verdict}")
if ratio < 1.3:
    sys.exit("serve scaling gate FAILED: 4 shards < 1.3x of 1 shard")
PY
fi

echo "== la property tests under ASan+UBSan =="
cmake -B build-asan -S . \
  -DSMILER_ENABLE_ASAN=ON \
  -DSMILER_BUILD_BENCHMARKS=OFF \
  -DSMILER_BUILD_EXAMPLES=OFF >/dev/null
cmake --build build-asan -j --target la_property_test >/dev/null
ctest --test-dir build-asan -R 'LaPropertyTest' --no-tests=error \
  --output-on-failure

echo "== all checks passed =="
