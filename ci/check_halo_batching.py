#!/usr/bin/env python3
"""Halo aggregation gate: assert the group engine (halo::PersistentGroup)
engaged and actually cut the message count, from one halo_batching_smoke
telemetry dump.

The reference is the per-field equivalent the same run retires
(halo_smoke.equiv_messages / halo_smoke.subcycle_equiv): the messages
per-field update() of the same exchanges sends. test_persistent_group pins
that accounting to what the per-field path actually puts on the wire, so the
ratios below are measured, not self-reported estimates.

Checks:
  * halo_smoke.messages > 0 and halo_smoke.batches > 0 — the groups engaged;
  * halo_smoke.equiv_messages / halo_smoke.messages >= 3x — whole-step
    message reduction;
  * halo_smoke.subcycle_equiv / halo_smoke.subcycle_messages >= 2x — the
    barotropic-subcycle reduction from per-peer fusion, self-copy
    elimination, and zonal-only substep refreshes;
  * halo.persistent.plan_builds > 0 and plan_hits > 0 — the subcycle plan
    was built and its cache actually reused;
  * resilience.halo_crc_failures == 0 — every fused payload passed CRC
    verification.
"""
import argparse
import json
import sys

MIN_RATIO = 3.0
MIN_SUBCYCLE_RATIO = 2.0


def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == "licomk.telemetry.v1", doc.get("schema")
    return doc


def gauge(doc, name):
    return doc.get("gauges", {}).get(name, 0.0)


def check_ratio(failures, label, equiv, msgs, minimum):
    if msgs <= 0:
        failures.append(f"{label}: no messages sent")
        return
    ratio = equiv / msgs
    print(f"{label:<26}{ratio:6.2f}x (>= {minimum}x required; "
          f"{msgs:.0f} sent vs {equiv:.0f} per-field)")
    if ratio < minimum:
        failures.append(f"{label}: per-field/actual = {ratio:.2f}x < {minimum}x")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("metrics", help="metrics.json from halo_batching_smoke")
    args = ap.parse_args()
    doc = load(args.metrics)

    failures = []
    if gauge(doc, "halo_smoke.batches") <= 0:
        failures.append("no group exchanges recorded (aggregation never engaged)")
    check_ratio(failures, "whole-step reduction", gauge(doc, "halo_smoke.equiv_messages"),
                gauge(doc, "halo_smoke.messages"), MIN_RATIO)
    check_ratio(failures, "subcycle reduction", gauge(doc, "halo_smoke.subcycle_equiv"),
                gauge(doc, "halo_smoke.subcycle_messages"), MIN_SUBCYCLE_RATIO)

    plan_builds = gauge(doc, "halo.persistent.plan_builds")
    plan_hits = gauge(doc, "halo.persistent.plan_hits")
    print(f"{'subcycle plan cache':<26}{plan_builds:.0f} built / {plan_hits:.0f} hit")
    if plan_builds <= 0:
        failures.append("the subcycle group built no plan")
    if plan_hits <= 0:
        failures.append("the subcycle group never reused its cached plan (plan_hits == 0)")

    crc = doc.get("counters", {}).get("resilience.halo_crc_failures", 0)
    print(f"{'crc failures':<26}{crc}")
    if crc != 0:
        failures.append(f"resilience.halo_crc_failures = {crc} (must be 0)")

    if failures:
        print("\nhalo batching gate FAILED:", file=sys.stderr)
        for f_ in failures:
            print(f"  {f_}", file=sys.stderr)
        return 1
    print("\nhalo batching gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
