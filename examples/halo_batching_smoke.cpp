// halo_batching_smoke — the CI driver behind ci/check_halo_batching.py.
//
// Runs a small 4-rank model with per-message CRC verification ON and writes
// telemetry metrics.json carrying the halo message accounting. Every
// multi-field exchange runs through the one group engine
// (halo::PersistentGroup); the reference it is gated against is the
// per-field equivalent the same run retires (HaloStats::equiv_messages —
// what per-field update() of the same exchanges actually sends, pinned in
// test_persistent_group).
//
// Gauges (all-rank totals):
//   halo_smoke.messages           point-to-point messages actually sent
//   halo_smoke.equiv_messages     messages the per-field pattern would have sent
//   halo_smoke.batches            group exchanges that did work
//   halo_smoke.batched_fields     field exchanges carried by those groups
//   halo_smoke.skipped            exchanges elided as redundant
//   halo_smoke.subcycle_messages  messages attributed to the barotropic subcycle
//   halo_smoke.subcycle_equiv     per-field-equivalent subcycle work
//   halo.persistent.plan_builds / plan_hits / self_copies /
//   partial_exchanges             subcycle plan cache + self-copy accounting
//   counters["resilience.halo_crc_failures"]  must be 0 (clean links)
//
// The CI gate asserts >= 3x whole-step and >= 2x subcycle message reduction
// against the per-field equivalent, plan-cache engagement, and zero CRC
// failures.
//
// Usage: halo_batching_smoke [outdir=.] [steps=2]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "halo/halo_exchange.hpp"
#include "kxx/kxx.hpp"
#include "telemetry/telemetry.hpp"

using namespace licomk;

int main(int argc, char** argv) {
  const std::string outdir = argc > 1 ? argv[1] : ".";
  const int steps = argc > 2 ? std::atoi(argv[2]) : 2;
  if (steps < 1) {
    std::fprintf(stderr, "usage: halo_batching_smoke [outdir] [steps >= 1]\n");
    return 2;
  }

  kxx::initialize({kxx::Backend::Serial, 0, false});
  telemetry::set_enabled(true);
  telemetry::reset();

  core::ModelConfig cfg = core::ModelConfig::testing(8);
  cfg.verify_halo_crc = true;  // every message CRC-checked end to end

  constexpr int kRanks = 4;
  auto global = std::make_shared<grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);

  halo::HaloStats total;
  std::uint64_t subcycle_msgs = 0;
  std::uint64_t subcycle_equiv = 0;
  std::uint64_t plan_builds = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t partials = 0;
  std::mutex total_mutex;
  comm::Runtime::run(kRanks, [&](comm::Communicator& c) {
    core::LicomModel model(cfg, global, c);
    for (int s = 0; s < steps; ++s) model.step();
    const halo::HaloStats& hs = model.exchanger().stats();
    std::lock_guard<std::mutex> lock(total_mutex);
    total.exchanges += hs.exchanges;
    total.skipped += hs.skipped;
    total.messages += hs.messages;
    total.bytes += hs.bytes;
    total.equiv_messages += hs.equiv_messages;
    total.batches += hs.batches;
    total.batched_fields += hs.batched_fields;
    total.self_copies += hs.self_copies;
    subcycle_msgs += model.subcycle_messages();
    subcycle_equiv += model.subcycle_equiv_messages();
    plan_builds += model.subcycle_group().plan_builds();
    plan_hits += model.subcycle_group().plan_hits();
    partials += model.subcycle_group().partial_exchanges();
  });

  telemetry::set_gauge("halo_smoke.messages", static_cast<double>(total.messages));
  telemetry::set_gauge("halo_smoke.equiv_messages", static_cast<double>(total.equiv_messages));
  telemetry::set_gauge("halo_smoke.batches", static_cast<double>(total.batches));
  telemetry::set_gauge("halo_smoke.batched_fields", static_cast<double>(total.batched_fields));
  telemetry::set_gauge("halo_smoke.skipped", static_cast<double>(total.skipped));
  telemetry::set_gauge("halo_smoke.bytes", static_cast<double>(total.bytes));
  telemetry::set_gauge("halo_smoke.subcycle_messages", static_cast<double>(subcycle_msgs));
  telemetry::set_gauge("halo_smoke.subcycle_equiv", static_cast<double>(subcycle_equiv));
  telemetry::set_gauge("halo.persistent.plan_builds", static_cast<double>(plan_builds));
  telemetry::set_gauge("halo.persistent.plan_hits", static_cast<double>(plan_hits));
  telemetry::set_gauge("halo.persistent.self_copies", static_cast<double>(total.self_copies));
  telemetry::set_gauge("halo.persistent.partial_exchanges", static_cast<double>(partials));
  telemetry::write_metrics_json(outdir + "/metrics.json");

  const double reduction = total.messages > 0
                               ? static_cast<double>(total.equiv_messages) /
                                     static_cast<double>(total.messages)
                               : 0.0;
  std::printf("halo_batching_smoke: ranks=%d steps=%d\n", kRanks, steps);
  std::printf("  messages       : %llu\n", static_cast<unsigned long long>(total.messages));
  std::printf("  equiv messages : %llu (per-field pattern)\n",
              static_cast<unsigned long long>(total.equiv_messages));
  std::printf("  group rounds   : %llu carrying %llu field exchanges\n",
              static_cast<unsigned long long>(total.batches),
              static_cast<unsigned long long>(total.batched_fields));
  std::printf("  subcycle msgs  : %llu (equiv %llu)\n",
              static_cast<unsigned long long>(subcycle_msgs),
              static_cast<unsigned long long>(subcycle_equiv));
  std::printf("  subcycle plan  : %llu built / %llu hit, %llu self-copies, %llu partial rounds\n",
              static_cast<unsigned long long>(plan_builds),
              static_cast<unsigned long long>(plan_hits),
              static_cast<unsigned long long>(total.self_copies),
              static_cast<unsigned long long>(partials));
  std::printf("  reduction      : %.2fx\n", reduction);
  std::printf("  metrics        : %s/metrics.json\n", outdir.c_str());
  return 0;
}
