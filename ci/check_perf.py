#!/usr/bin/env python3
"""Perf gate: compare a Google Benchmark JSON run against a checked-in baseline.

Fails (exit 1) when any benchmark present in the baseline regresses by more
than --max-ratio in real_time, or is missing from the new run entirely.
Benchmarks only present in the new run are reported but do not fail the gate
(they have no baseline yet — regenerate with ci/update_baseline.sh).

The smoke baseline is intentionally coarse (2x gate, ~0.05 s/benchmark): it
catches order-of-magnitude regressions like an accidentally serialized kernel
or a telemetry branch left enabled, not single-digit-percent drift.
"""
import argparse
import collections
import json
import sys

# Normalize every timing to nanoseconds regardless of the reported time_unit.
_TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


class BenchFormatError(Exception):
    """A benchmark JSON file is missing a key the gate needs."""


def load_times(path, role):
    with open(path) as f:
        doc = json.load(f)
    if "benchmarks" not in doc:
        raise BenchFormatError(
            f"{role} {path}: no 'benchmarks' array — not Google Benchmark JSON "
            "(regenerate with ci/update_baseline.sh)")
    times = {}
    for i, b in enumerate(doc["benchmarks"]):
        if b.get("run_type") == "aggregate":
            continue  # use raw iterations; aggregates only exist with repetitions
        name = b.get("name")
        if name is None:
            raise BenchFormatError(
                f"{role} {path}: benchmarks[{i}] has no 'name' key "
                "(regenerate with ci/update_baseline.sh)")
        if "real_time" not in b:
            raise BenchFormatError(
                f"{role} {path}: benchmark '{name}' has no 'real_time' key "
                "(regenerate with ci/update_baseline.sh)")
        unit = b.get("time_unit", "ns")
        if unit not in _TO_NS:
            raise BenchFormatError(
                f"{role} {path}: benchmark '{name}' has unknown time_unit "
                f"'{unit}' (expected one of {sorted(_TO_NS)})")
        times[name] = b["real_time"] * _TO_NS[unit]
    return times


def check_build_type(path, role):
    """Refuse timings from a debug build of LICOMK.

    The bench binary records its own compile mode as `licomk_build_type` in
    the benchmark context (the stock `library_build_type` field describes the
    system libbenchmark package, which Debian ships without NDEBUG).
    Comparing a debug baseline against a release candidate (or vice versa)
    renders the ratio gate meaningless, so both sides must be release.
    Returns an error string, or None when the run is acceptable.
    """
    with open(path) as f:
        context = json.load(f).get("context", {})
    build_type = context.get("licomk_build_type")
    if build_type is None:
        return (f"{role} {path}: no licomk_build_type in context "
                "(regenerate with ci/update_baseline.sh from a Release build)")
    if build_type != "release":
        return f"{role} {path}: built in {build_type}; perf gating needs a Release build"
    return None


_REGEN = "(regenerate with ci/update_baseline.sh)"


# Shape of one OPTIONAL baseline-context gauge section. `keys` must all be
# present as numbers — in the section itself, or in every tenant of its
# non-empty `tenants` object when `per_tenant` is set. `invariants` are
# (key, predicate, reason) triples checked once every key is well-formed; a
# false predicate reports the key, its value and the reason.
Section = collections.namedtuple("Section", "keys per_tenant invariants",
                                 defaults=(False, ()))


# The gauge sections ci/update_baseline.sh records next to the timings. Each
# is optional — baselines from before the section existed stay valid — but a
# present section must be well-formed: a half-written one means the baseline
# was regenerated against a broken run, and the regime the timings were taken
# under is unknowable.
GAUGE_SCHEMA = {
    # Forecast-farm ensemble, one section per tenant: how many steps each
    # member ran, at what throughput, and whether it completed.
    "licomk_farm_gauges": Section(("state", "steps", "sypd"), per_tenant=True),
    # SIMD regime: lanes doing useful work vs masked off at tails/land, and
    # the intermediate-field bytes kernel fusion elided.
    "licomk_pack_gauges": Section(
        ("kxx.pack.lanes_active", "kxx.pack.lanes_masked",
         "kxx.fusion.views_elided_bytes"),
        invariants=(
            ("kxx.pack.lanes_active", lambda g: g["kxx.pack.lanes_active"] > 0,
             "the bench run never took the packed path (regenerate with "
             "ci/update_baseline.sh from a Release build)"),
        )),
    # Elastic resilience: the growback soak drill (shrink chain, a single
    # grow-back, final size) plus the weighted-decomposition imbalance pair.
    "licomk_elasticity_gauges": Section(
        ("resilience.growbacks", "soak.shrinks", "soak.growbacks",
         "soak.final_nranks", "soak.final_crc_match",
         "decomp.weighted.imbalance_uniform",
         "decomp.weighted.imbalance_weighted"),
        invariants=(
            ("resilience.growbacks", lambda g: g["resilience.growbacks"] >= 1,
             f"the soak drill never grew back {_REGEN}"),
            ("soak.final_crc_match", lambda g: g["soak.final_crc_match"] == 1,
             "the healed run was not bit-identical to its uninterrupted twin"),
            ("decomp.weighted.imbalance_weighted",
             lambda g: g["decomp.weighted.imbalance_weighted"]
             <= g["decomp.weighted.imbalance_uniform"] + 1e-12,
             "exceeds decomp.weighted.imbalance_uniform — the ocean-aware "
             "planner did worse than the uniform split"),
        )),
}


def _check_gauges(where, gauges, section):
    if not isinstance(gauges, dict):
        return [f"{where} must be an object, got {type(gauges).__name__} {_REGEN}"]
    errors = []
    for key in section.keys:
        if key not in gauges:
            errors.append(f"{where} is missing gauge '{key}' {_REGEN}")
        elif not isinstance(gauges[key], (int, float)):
            errors.append(f"{where}: gauge '{key}' must be a number, "
                          f"got {type(gauges[key]).__name__}")
    if errors:
        return errors
    return [f"{where}: {key} is {gauges[key]} — {reason}"
            for key, holds, reason in section.invariants if not holds(gauges)]


def check_gauge_context(path, role):
    """Validate every GAUGE_SCHEMA section present in the file's context.

    Returns a list of error strings naming the section, tenant and key (empty
    when acceptable); callers report them and exit 2, never a traceback.
    """
    with open(path) as f:
        context = json.load(f).get("context", {})
    errors = []
    for name, section in GAUGE_SCHEMA.items():
        value = context.get(name)
        if value is None:
            continue
        where = f"{role} {path}: {name}"
        if not isinstance(value, dict):
            errors.append(f"{where} must be an object, got {type(value).__name__} {_REGEN}")
        elif not section.per_tenant:
            errors += _check_gauges(where, value, section)
        elif not isinstance(value.get("tenants"), dict) or not value["tenants"]:
            errors.append(f"{where} has no tenant sections — expected a non-empty "
                          f"'tenants' object keyed by tenant name {_REGEN}")
        else:
            for tenant, gauges in sorted(value["tenants"].items()):
                errors += _check_gauges(f"{where}: tenant '{tenant}'", gauges, section)
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--max-ratio", type=float, default=2.0,
                    help="fail when current/baseline exceeds this (default 2.0)")
    args = ap.parse_args()

    build_errors = [e for e in (check_build_type(args.baseline, "baseline"),
                                check_build_type(args.current, "current"))
                    if e is not None]
    build_errors += check_gauge_context(args.baseline, "baseline")
    build_errors += check_gauge_context(args.current, "current")
    if build_errors:
        for e in build_errors:
            print(f"error: {e}", file=sys.stderr)
        return 2

    try:
        baseline = load_times(args.baseline, "baseline")
        current = load_times(args.current, "current")
    except BenchFormatError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if not baseline:
        print(f"error: no benchmarks in baseline {args.baseline}", file=sys.stderr)
        return 2

    failures = []
    print(f"{'benchmark':<40} {'baseline':>12} {'current':>12} {'ratio':>7}")
    for name, base_ns in sorted(baseline.items()):
        cur_ns = current.get(name)
        if cur_ns is None:
            failures.append(f"{name}: missing from current run")
            print(f"{name:<40} {base_ns/1e6:>10.3f}ms {'MISSING':>12}")
            continue
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        flag = " <-- FAIL" if ratio > args.max_ratio else ""
        print(f"{name:<40} {base_ns/1e6:>10.3f}ms {cur_ns/1e6:>10.3f}ms {ratio:>6.2f}x{flag}")
        if ratio > args.max_ratio:
            failures.append(f"{name}: {ratio:.2f}x baseline (limit {args.max_ratio}x)")

    for name in sorted(set(current) - set(baseline)):
        print(f"{name:<40} {'(no baseline)':>12} {current[name]/1e6:>10.3f}ms")

    if failures:
        print("\nperf gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nperf gate passed: {len(baseline)} benchmarks within "
          f"{args.max_ratio}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
