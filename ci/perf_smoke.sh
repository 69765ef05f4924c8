#!/usr/bin/env bash
# Perf smoke: run bench_model_kernels briefly with telemetry on, export the
# benchmark JSON plus telemetry metrics.json/trace.json as CI artifacts, and
# gate on the checked-in baseline (fail when any tier-1 kernel regresses >2x).
#
# Usage: ci/perf_smoke.sh [build-dir] [artifact-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-ci-release}"
OUT_DIR="${2:-artifacts/perf-smoke}"
mkdir -p "$OUT_DIR"

LICOMK_TELEMETRY=1 LICOMK_TELEMETRY_OUT="$OUT_DIR" \
  "$BUILD_DIR/bench/bench_model_kernels" \
  --benchmark_min_time=0.05 \
  --benchmark_out="$OUT_DIR/bench_smoke.json" \
  --benchmark_out_format=json

# The telemetry artifacts must be valid JSON documents.
python3 - "$OUT_DIR" <<'EOF'
import json, sys, os
out = sys.argv[1]
m = json.load(open(os.path.join(out, "metrics.json")))
assert m["schema"] == "licomk.telemetry.v1", m.get("schema")
t = json.load(open(os.path.join(out, "trace.json")))
assert isinstance(t["traceEvents"], list) and t["traceEvents"], "empty trace"
print(f"telemetry artifacts OK: {len(m['kernels'])} kernels, "
      f"{len(t['traceEvents'])} trace events")
EOF

python3 ci/check_perf.py bench/baseline_smoke.json "$OUT_DIR/bench_smoke.json" \
  --max-ratio 2.0

# The LDM staging pipeline must have engaged on the converted kernels:
# batched DMA, transfer/compute overlap, no MPE or staging fallbacks.
python3 ci/check_ldm_staging.py "$OUT_DIR/metrics.json"

# SIMD pack + kernel fusion: the fused+packed readyt/readyc dynamics chain
# must measurably beat the scalar-unfused chain (guards against the packed
# path silently lowering to scalar or a fusion regression). The gate compares
# medians: its legs run again in three processes, each repeating them
# interleaved, with telemetry off (the run above owns metrics.json).
for run in 1 2 3; do
  "$BUILD_DIR/bench/bench_model_kernels" \
    --benchmark_filter='^BM_(DynChain|TracerLimiterColumns|VerticalMixing)' \
    --benchmark_min_time=0.05 \
    --benchmark_repetitions=9 \
    --benchmark_enable_random_interleaving=true \
    --benchmark_display_aggregates_only=true \
    --benchmark_out="$OUT_DIR/pack_fusion_$run.json" \
    --benchmark_out_format=json > /dev/null
done
python3 ci/check_pack_fusion.py "$OUT_DIR"/pack_fusion_{1,2,3}.json

# Halo aggregation: the small 4-rank model through the group engine with CRC
# on everywhere. Gate on >= 3x whole-step and >= 2x barotropic subcycle
# message reduction against the per-field equivalent the same run retires,
# subcycle plan-cache engagement, and zero CRC failures.
mkdir -p "$OUT_DIR/halo"
"$BUILD_DIR/examples/halo_batching_smoke" "$OUT_DIR/halo"
python3 ci/check_halo_batching.py "$OUT_DIR/halo/metrics.json"
