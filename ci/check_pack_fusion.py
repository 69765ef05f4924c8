#!/usr/bin/env python3
"""Pack/fusion gate: the packed kernels must beat their scalar forms.

Reads one Google Benchmark JSON file (the perf-smoke run) and compares the
ablation legs bench_model_kernels exports:

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

Fails (exit 1) when fused+packed/8 is not at least --min-speedup faster than
scalar-unfused, or a packed leg (tracer, vertical mixing) is not at least
--min-speedup faster than its width-1 leg. The default of 1.05 is deliberately loose for a
smoke-sized grid (the chains are partly memory-bound and the smoke domain
fits in cache); it exists to catch a packed path silently lowering to
scalar-per-lane code (a select or min/max the compiler leaves lane-scalar
made the packed limiter slower than scalar once) or a fusion regression, not
to certify the paper's full-resolution speedups.

Exit 2 with a diagnostic when a leg is missing or the file is not benchmark
JSON (same contract as ci/check_perf.py).
"""
import argparse
import json
import sys

_SCALAR = "BM_DynChainScalarUnfused"
_FUSED = "BM_DynChainFusedScalar"
_PACKED = "BM_DynChainFusedPacked/8"
_TRC_SCALAR = "BM_TracerLimiterColumns/1"
_TRC_PACKED = "BM_TracerLimiterColumns/8"
_VMIX_SCALAR = "BM_VerticalMixing/1"
_VMIX_PACKED = "BM_VerticalMixing/8"


def load_times(path):
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc:
        raise ValueError(f"{path}: no 'benchmarks' array — not Google Benchmark JSON")
    times = {}
    for b in doc["benchmarks"]:
        if b.get("run_type") == "aggregate":
            continue
        if "name" in b and "real_time" in b:
            times[b["name"]] = b["real_time"]  # legs share one time_unit
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("bench_json", help="Google Benchmark JSON of the smoke run")
    ap.add_argument("--min-speedup", type=float, default=1.05,
                    help="fail when scalar-unfused/packed-fused (or a packed "
                         "leg's width-1/width-8 ratio) is below this (default 1.05)")
    args = ap.parse_args()

    try:
        times = load_times(args.bench_json)
    except (ValueError, OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    missing = [n for n in (_SCALAR, _FUSED, _PACKED, _TRC_SCALAR, _TRC_PACKED,
                           _VMIX_SCALAR, _VMIX_PACKED)
               if n not in times]
    if missing:
        for n in missing:
            print(f"error: {args.bench_json}: ablation leg '{n}' missing "
                  "(rebuild bench_model_kernels and rerun the smoke bench)",
                  file=sys.stderr)
        return 2

    scalar, fused, packed = times[_SCALAR], times[_FUSED], times[_PACKED]
    trc_scalar, trc_packed = times[_TRC_SCALAR], times[_TRC_PACKED]
    vmix_scalar, vmix_packed = times[_VMIX_SCALAR], times[_VMIX_PACKED]
    for name, t in ((_PACKED, packed), (_TRC_PACKED, trc_packed), (_VMIX_PACKED, vmix_packed)):
        if t <= 0:
            print(f"error: {name} reported nonpositive time {t}", file=sys.stderr)
            return 2

    speedup = scalar / packed
    trc_speedup = trc_scalar / trc_packed
    vmix_speedup = vmix_scalar / vmix_packed
    print(f"{_SCALAR:<32} {scalar:10.4f}")
    print(f"{_FUSED:<32} {fused:10.4f}  ({scalar / fused:.2f}x vs scalar)")
    print(f"{_PACKED:<32} {packed:10.4f}  ({speedup:.2f}x vs scalar)")
    print(f"{_TRC_SCALAR:<32} {trc_scalar:10.4f}")
    print(f"{_TRC_PACKED:<32} {trc_packed:10.4f}  ({trc_speedup:.2f}x vs width 1)")
    print(f"{_VMIX_SCALAR:<32} {vmix_scalar:10.4f}")
    print(f"{_VMIX_PACKED:<32} {vmix_packed:10.4f}  ({vmix_speedup:.2f}x vs width 1)")

    failed = False
    if speedup < args.min_speedup:
        print(f"\npack/fusion gate FAILED: fused+packed is only {speedup:.2f}x "
              f"the scalar-unfused chain (need >= {args.min_speedup}x)",
              file=sys.stderr)
        failed = True
    for what, ratio in (("tracer limiter + columns", trc_speedup),
                        ("vertical mixing", vmix_speedup)):
        if ratio < args.min_speedup:
            print(f"\npack/fusion gate FAILED: the packed {what} leg is only "
                  f"{ratio:.2f}x its width-1 leg (need >= {args.min_speedup}x)",
                  file=sys.stderr)
            failed = True
    if failed:
        return 1
    print(f"\npack/fusion gate passed: {speedup:.2f}x, {trc_speedup:.2f}x and "
          f"{vmix_speedup:.2f}x >= {args.min_speedup}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
