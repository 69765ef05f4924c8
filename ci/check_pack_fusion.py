#!/usr/bin/env python3
"""Pack/fusion gate: the packed kernels must beat their scalar forms.

Reads one or more Google Benchmark JSON files, each from its own
bench_model_kernels process, and compares the ablation legs it exports:

  BM_DynChainScalarUnfused   — density, pressure, tendencies, 2x vertical_mean
                               at pack width 1 (the pre-pack code path)
  BM_DynChainFusedScalar     — fused rho+p / tendency+means at pack width 1
                               (fusion-only win)
  BM_DynChainFusedPacked/8   — fused chain at pack width 8 (fusion + SIMD)
  BM_TracerLimiterColumns/1  — FCT limiter chain for t and s, the fused t+s
                               tracer column and the bclinc column at pack
                               width 1 (their scalar pack_op<1> bodies)
  BM_TracerLimiterColumns/8  — the same at pack width 8 (i-lanes)
  BM_VerticalMixing/1        — the vmix_coeffs kernel (Canuto closure) at pack
                               width 1 (its scalar pack_op<1> body)
  BM_VerticalMixing/8        — the same at pack width 8 (i-lanes)

Each leg's time in a file is the median of its repetitions there, and each
gated ratio is the median over the files of their ratios. perf_smoke.sh runs
the legs in three processes, each repeating them interleaved: a single
0.05-s run is too noisy to gate on (one correct build read the limiter ratio
1.64-2.72 over 12 such runs), and the host's speed shifts between processes,
so the process, not the repetition, is the unit a median has to outvote.

Fails (exit 1) when fused+packed/8 is not at least --min-speedup faster than
scalar-unfused, or the vertical-mixing leg is not at least --min-speedup
faster than its width-1 leg. The default of 1.05 is deliberately loose for a
smoke-sized grid (the chains are partly memory-bound and the smoke domain
fits in cache); it exists to catch a packed path silently lowering to
scalar-per-lane code (a select or min/max the compiler leaves lane-scalar
made the packed limiter slower than scalar once) or a fusion regression, not
to certify the paper's full-resolution speedups.

The tracer leg has a stricter floor of its own, LIMITER_MIN_SPEEDUP, in place
of --min-speedup. With 32-bit int lane masks every select paid a
widen/permute to 64 bits; with 64-bit kxx::Mask lanes it does not. The floor
sits between the two builds' median ratios (see LIMITER_MIN_SPEEDUP), so a
return to narrow masks fails the gate.

Exit 2 with a diagnostic when a leg is missing or the file is not benchmark
JSON (same contract as ci/check_perf.py).
"""
import argparse
import json
import statistics
import sys

_SCALAR = "BM_DynChainScalarUnfused"
_FUSED = "BM_DynChainFusedScalar"
_PACKED = "BM_DynChainFusedPacked/8"
_TRC_SCALAR = "BM_TracerLimiterColumns/1"
_TRC_PACKED = "BM_TracerLimiterColumns/8"
_VMIX_SCALAR = "BM_VerticalMixing/1"
_VMIX_PACKED = "BM_VerticalMixing/8"

# Floor on the BM_TracerLimiterColumns/1 over /8 ratio. Per process (ratio
# of 9- or 15-repetition medians; 42 processes per build; 4-vCPU AVX-512
# host, GCC 12, -march=native): int32 masks 1.14-1.81, median 1.69; 64-bit
# masks 1.70-2.53, median 2.02, 4 of 42 below 1.85. The floor is halfway
# between the medians. Eight runs of the three-process gate per build: the
# int32 build read 1.46-1.73 and failed 8 of 8; the 64-bit build read
# 1.90-2.46 and passed 8 of 8 (two of three processes must read low to fail
# it, about 1 run in 40 at the per-process rate above).
LIMITER_MIN_SPEEDUP = 1.85


def load_times(path):
    """Median real_time of each benchmark's repetitions in one JSON file."""
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc:
        raise ValueError(f"{path}: no 'benchmarks' array — not Google Benchmark JSON")
    runs = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        if "name" in b and "real_time" in b:
            name = b.get("run_name", b["name"])
            runs.setdefault(name, []).append(b["real_time"])  # one time_unit
    return {name: statistics.median(ts) for name, ts in runs.items()}


def ratios(path):
    """The gated speedups of one file: dyn chain, fusion only, limiter, vmix."""
    times = load_times(path)
    missing = [n for n in (_SCALAR, _FUSED, _PACKED, _TRC_SCALAR, _TRC_PACKED,
                           _VMIX_SCALAR, _VMIX_PACKED)
               if n not in times]
    if missing:
        raise ValueError(f"{path}: ablation leg(s) {', '.join(missing)} missing "
                         "(rebuild bench_model_kernels and rerun the smoke bench)")
    for name in (_FUSED, _PACKED, _TRC_PACKED, _VMIX_PACKED):
        if times[name] <= 0:
            raise ValueError(f"{path}: {name} reported nonpositive time {times[name]}")
    return (times[_SCALAR] / times[_PACKED], times[_SCALAR] / times[_FUSED],
            times[_TRC_SCALAR] / times[_TRC_PACKED],
            times[_VMIX_SCALAR] / times[_VMIX_PACKED])


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json", nargs="+",
                    help="Google Benchmark JSON files, one per benchmark process")
    ap.add_argument("--min-speedup", type=float, default=1.05,
                    help="fail when scalar-unfused/packed-fused (or a packed "
                         "leg's width-1/width-8 ratio) is below this (default 1.05)")
    args = ap.parse_args()

    try:
        per_file = [ratios(p) for p in args.bench_json]
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    print(f"{'run':<40} {'dyn chain':>10} {'fused only':>10} {'limiter':>10} {'vmix':>10}")
    for path, r in zip(args.bench_json, per_file):
        print(f"{path:<40} " + " ".join(f"{x:9.2f}x" for x in r))
    speedup, fused, trc_speedup, vmix_speedup = (
        statistics.median(col) for col in zip(*per_file))
    print(f"{'median':<40} " + " ".join(
        f"{x:9.2f}x" for x in (speedup, fused, trc_speedup, vmix_speedup)))

    failed = False
    if speedup < args.min_speedup:
        print(f"\npack/fusion gate FAILED: fused+packed is only {speedup:.2f}x "
              f"the scalar-unfused chain (need >= {args.min_speedup}x)",
              file=sys.stderr)
        failed = True
    for what, ratio, floor in (("tracer limiter + columns", trc_speedup,
                                LIMITER_MIN_SPEEDUP),
                               ("vertical mixing", vmix_speedup, args.min_speedup)):
        if ratio < floor:
            print(f"\npack/fusion gate FAILED: the packed {what} leg is only "
                  f"{ratio:.2f}x its width-1 leg (need >= {floor}x)",
                  file=sys.stderr)
            failed = True
    if failed:
        return 1
    print(f"\npack/fusion gate passed: {speedup:.2f}x and {vmix_speedup:.2f}x >= "
          f"{args.min_speedup}x, tracer leg {trc_speedup:.2f}x >= "
          f"{LIMITER_MIN_SPEEDUP}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
