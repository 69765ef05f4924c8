#!/usr/bin/env bash
# Regenerate bench/baseline_smoke.json from the current build. Run on the
# reference machine after an intentional performance change, then commit the
# result.
#
# Besides the Google Benchmark timings, the baseline context records the
# halo.persistent.* / halo_smoke.subcycle_* gauges from a halo_batching_smoke
# run, so the message-count regime the timings were taken
# under is visible next to them (informational; the hard gate on those counts
# lives in ci/check_halo_batching.py).
#
# Usage: ci/update_baseline.sh [build-dir]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
TMP_DIR="$(mktemp -d)"
trap 'rm -rf "$TMP_DIR"' EXIT

# Telemetry on, matching the perf-smoke run: the exported metrics.json also
# carries the kxx.pack.* / kxx.fusion.* gauges recorded into the context
# below.
mkdir -p "$TMP_DIR/bench"
LICOMK_TELEMETRY=1 LICOMK_TELEMETRY_OUT="$TMP_DIR/bench" \
  "$BUILD_DIR/bench/bench_model_kernels" \
  --benchmark_min_time=0.05 \
  --benchmark_out=bench/baseline_smoke.json \
  --benchmark_out_format=json
"$BUILD_DIR/examples/halo_batching_smoke" "$TMP_DIR" > /dev/null
"$BUILD_DIR/examples/farm_run" \
  --out "$TMP_DIR/farm_metrics.json" --dir "$TMP_DIR/farm_ckpt" > /dev/null
"$BUILD_DIR/examples/soak_run" --scenario growback --steps 24 \
  --out "$TMP_DIR/growback_metrics.json" --dir "$TMP_DIR/growback_ckpt" > /dev/null

python3 - bench/baseline_smoke.json "$TMP_DIR/metrics.json" \
  "$TMP_DIR/farm_metrics.json" "$TMP_DIR/bench/metrics.json" \
  "$TMP_DIR/growback_metrics.json" <<'EOF'
import json, sys
base_path, metrics_path, farm_path, bench_metrics_path, growback_path = sys.argv[1:6]
with open(base_path) as f:
    base = json.load(f)
with open(metrics_path) as f:
    gauges = json.load(f).get("gauges", {})
keep = {k: v for k, v in sorted(gauges.items())
        if k.startswith("halo.persistent.") or k.startswith("halo_smoke.subcycle")}
base.setdefault("context", {})["licomk_halo_gauges"] = keep
print(f"recorded {len(keep)} halo gauges in baseline context")

# The multi-tenant regime next to the timings: one section per farm tenant
# (validated by ci/check_perf.py's GAUGE_SCHEMA), plus the ensemble
# summary gauges.
with open(farm_path) as f:
    fg = json.load(f).get("gauges", {})
tenants = {}
prefix = "farm.tenant."
for k, v in sorted(fg.items()):
    if not k.startswith(prefix):
        continue
    name, _, key = k[len(prefix):].partition(".")
    tenants.setdefault(name, {})[key] = v
ensemble = {k: v for k, v in sorted(fg.items())
            if k.startswith("farm.ensemble.") or k == "farm.base_state.shared_bytes"}
base["context"]["licomk_farm_gauges"] = {"tenants": tenants, "ensemble": ensemble}
print(f"recorded {len(tenants)} farm tenant sections in baseline context")

# The SIMD regime behind the timings: pack lane utilization and fused-kernel
# traffic elision from the bench run itself (validated by ci/check_perf.py's
# GAUGE_SCHEMA).
with open(bench_metrics_path) as f:
    bg = json.load(f).get("gauges", {})
pack = {k: v for k, v in sorted(bg.items())
        if k.startswith("kxx.pack.") or k.startswith("kxx.fusion.")}
base["context"]["licomk_pack_gauges"] = pack
print(f"recorded {len(pack)} pack/fusion gauges in baseline context")

# The elastic-resilience regime: the growback soak drill's shrink/grow-back
# counters and the weighted-decomposition imbalance pair (validated by
# ci/check_perf.py's GAUGE_SCHEMA).
with open(growback_path) as f:
    gm = json.load(f)
gc, gg = gm.get("counters", {}), gm.get("gauges", {})
ela = {k: v for k, v in sorted(gc.items())
       if k in ("resilience.growbacks", "resilience.shrinks")}
ela.update({k: v for k, v in sorted(gg.items())
            if k.startswith("soak.") or k.startswith("decomp.weighted.")})
base["context"]["licomk_elasticity_gauges"] = ela
print(f"recorded {len(ela)} elasticity gauges in baseline context")

with open(base_path, "w") as f:
    json.dump(base, f, indent=1)
    f.write("\n")
EOF
echo "wrote bench/baseline_smoke.json"
