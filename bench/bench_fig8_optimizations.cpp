// bench_fig8_optimizations — the "original vs optimized" comparison of
// Fig. 8 / §VII-C at host scale.
//
// The paper reports that the optimized LICOMK++ is 2.7x (2 km) and 3.9x
// (1 km) faster than the original port at full Sunway scale, the gains
// coming from the §V optimizations. This harness runs the same model with
// the optimization set toggled:
//   original : horizontal-major 3-D halos, no redundant-exchange
//              elimination, no Canuto load balancing, fp64 everywhere
//   optimized: Fig. 5 transpose halos, redundancy elimination, load
//              balancing, (optionally) fp32 barotropic
// and prints measured step times plus the machine model's view of where the
// full-scale gains come from. On one host core the communication-dominated
// gains cannot materialize (no network), so the measured delta is small; the
// exchange/skip counters show the mechanism regardless.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "kxx/kxx.hpp"
#include "perfmodel/paper_data.hpp"
#include "swsim/athread.hpp"
#include "telemetry/telemetry.hpp"

using namespace licomk;

namespace {
struct RunResult {
  double ms_per_step;
  double exchanges_per_step;
  double skipped_per_step;
};

/// One leg of the LDM staging ablation (§V-C): the same model on the
/// AthreadSim backend under one staging mode.
struct StagingResult {
  double ms_per_step;       ///< measured host wall time
  double staged_mb_step;    ///< MB/step moved by strided DMA slabs
  double direct_mb_step;    ///< MB/step the kernels read element-wise instead
  double transfers_step;    ///< DMA commands/step
  double inflight_max;      ///< deepest transfer/compute overlap observed
};

StagingResult run_staging_variant(const core::ModelConfig& cfg, int steps,
                                  kxx::LdmStagingMode mode) {
  kxx::initialize({kxx::Backend::AthreadSim, 0, false, mode});
  telemetry::set_enabled(true);
  core::LicomModel model(cfg);
  model.step();  // warm-up
  telemetry::reset();
  swsim::default_core_group().reset_stats();
  auto begin = std::chrono::steady_clock::now();
  for (int s = 0; s < steps; ++s) model.step();
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  auto dma = swsim::default_core_group().stats().dma;
  StagingResult r{1e3 * secs / steps,
                  1e-6 * static_cast<double>(telemetry::counter_value("ldm.staged_bytes")) / steps,
                  1e-6 * static_cast<double>(telemetry::counter_value("ldm.direct_bytes")) / steps,
                  static_cast<double>(dma.async_transfers) / steps,
                  static_cast<double>(dma.async_in_flight_max)};
  telemetry::reset();
  telemetry::set_enabled(false);
  kxx::initialize({kxx::Backend::Serial, 0, false});
  return r;
}

/// Modeled memory stall per step (ms) on the real hardware: element-wise
/// gld/gst runs an order of magnitude below the DMA engine (§V-C), staged
/// slabs move at the 51.2 GB/s CG bandwidth, and double buffering hides the
/// transfer time under compute (only the un-overlapped remainder stalls).
double modeled_mem_ms(const StagingResult& r, kxx::LdmStagingMode mode) {
  const double dma_bw_mb_ms = swsim::DmaEngine::kCgBandwidthBytesPerSec * 1e-9;  // MB per ms
  const double gld_bw_mb_ms = dma_bw_mb_ms / 10.0;
  switch (mode) {
    case kxx::LdmStagingMode::Direct:
      return r.direct_mb_step / gld_bw_mb_ms;
    case kxx::LdmStagingMode::Staged:
      return r.staged_mb_step / dma_bw_mb_ms;
    case kxx::LdmStagingMode::DoubleBuffered:
      return std::max(r.staged_mb_step / dma_bw_mb_ms - r.ms_per_step, 0.0);
  }
  return 0.0;
}

RunResult run_variant(const core::ModelConfig& cfg, int steps) {
  core::LicomModel model(cfg);
  model.step();  // warm-up (first step does the initial exchanges)
  auto begin = std::chrono::steady_clock::now();
  for (int s = 0; s < steps; ++s) model.step();
  double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
  const auto& st = model.exchanger().stats();
  return RunResult{1e3 * secs / steps,
                   static_cast<double>(st.exchanges) / model.steps_taken(),
                   static_cast<double>(st.skipped) / model.steps_taken()};
}
}  // namespace

int main() {
  kxx::initialize({kxx::Backend::Serial, 0, false});
  auto base = core::ModelConfig::testing(8);
  base.grid.nz = 12;
  const int steps = 30;

  core::ModelConfig original = base;
  original.halo_strategy = core::HaloStrategy::HorizontalMajor;
  original.eliminate_redundant_halo = false;
  original.canuto_load_balance = false;

  core::ModelConfig optimized = base;
  optimized.halo_strategy = core::HaloStrategy::TransposeVerticalMajor;
  optimized.eliminate_redundant_halo = true;
  optimized.canuto_load_balance = true;

  std::printf("Fig. 8 / §VII-C — original vs optimized LICOMK++ (measured, %d steps each)\n\n",
              steps);
  auto r_orig = run_variant(original, steps);
  auto r_opt = run_variant(optimized, steps);
  std::printf("%-12s %14s %18s %16s\n", "variant", "ms/step", "halo exch/step",
              "halo skipped/step");
  std::printf("%-12s %14.2f %18.1f %16.1f\n", "original", r_orig.ms_per_step,
              r_orig.exchanges_per_step, r_orig.skipped_per_step);
  std::printf("%-12s %14.2f %18.1f %16.1f\n", "optimized", r_opt.ms_per_step,
              r_opt.exchanges_per_step, r_opt.skipped_per_step);
  std::printf("\nmeasured speedup on this host: %.2fx\n",
              r_orig.ms_per_step / r_opt.ms_per_step);
  std::printf("paper speedups at full Sunway scale: %.1fx (2 km), %.1fx (1 km)\n",
              perf::kPaperOptSpeedup2km, perf::kPaperOptSpeedup1km);
  std::printf(
      "\n(the paper's factors are dominated by communication terms a single host\n"
      " has no physical network to express; the counters above show the\n"
      " eliminated exchanges that produce them at scale — see bench_table5_strong\n"
      " for the machine-model view of those terms)\n");

  // --- halo aggregation (§V-D): messages vs the per-field equivalent -----
  // One 4-rank run (on one rank every group transfer is a local self-copy):
  // the group engine's actual messages next to the messages per-field
  // update() of the same exchanges sends — equiv_messages, which
  // test_persistent_group pins to what the per-field path really sends.
  {
    constexpr int kRanks = 4;
    auto global = std::make_shared<grid::GlobalGrid>(optimized.grid, optimized.bathymetry_seed);
    std::mutex mu;
    halo::HaloStats total;
    comm::Runtime::run(kRanks, [&](comm::Communicator& c) {
      core::LicomModel model(optimized, global, c);
      for (int s = 0; s < steps; ++s) model.step();
      const halo::HaloStats& st = model.exchanger().stats();
      std::lock_guard<std::mutex> lock(mu);
      total.messages += st.messages;
      total.equiv_messages += st.equiv_messages;
      total.bytes += st.bytes;
      total.batches += st.batches;
    });
    const double msgs = static_cast<double>(total.messages) / steps;
    const double equiv = static_cast<double>(total.equiv_messages) / steps;
    std::printf("\nhalo aggregation — %d ranks, all-rank totals (%d steps)\n\n", kRanks, steps);
    std::printf("%14s %16s %10s %12s\n", "msgs/step", "per-field/step", "KB/msg", "groups/step");
    std::printf("%14.1f %16.1f %10.2f %12.1f\n", msgs, equiv,
                total.messages > 0 ? 1e-3 * static_cast<double>(total.bytes) / total.messages
                                   : 0.0,
                static_cast<double>(total.batches) / steps);
    std::printf(
        "\nmessage-count reduction: %.2fx (>= 3x gated in CI via\n"
        " ci/check_halo_batching.py; at scale each message carries the network\n"
        " latency the fused exchange amortizes across the whole group)\n",
        msgs > 0.0 ? equiv / msgs : 0.0);
  }

  // --- SIMD pack-width ablation (§V-B idiom) ------------------------------
  // The same model at pack width 1 (every packed kernel runs its pack_op<1>
  // body) vs the compiled width. Outputs are bit-identical
  // (tests/test_model.cpp CRC matrix); the lane gauges show how much of the
  // packed work was real vs masked off at tails and land columns, and how
  // many bytes of intermediate-field traffic the fused rho+p /
  // tendency+means / hdiff / low-order pairs elided. The fused-vs-per-kernel
  // chain comparison is BM_DynChain* in bench_model_kernels.
  {
    kxx::set_pack_size(1);
    auto r_sc = run_variant(optimized, steps);

    kxx::set_pack_size(LICOMK_PACK_SIZE);
    kxx::reset_pack_lane_counts();
    kxx::reset_fusion_views_elided();
    auto r_pk = run_variant(optimized, steps);
    const double lanes_active = static_cast<double>(kxx::pack_lanes_active());
    const double lanes_masked = static_cast<double>(kxx::pack_lanes_masked());
    const double elided_mb = 1e-6 * static_cast<double>(kxx::fusion_views_elided_bytes());

    std::printf("\npack-width ablation — pack 1 vs pack %d (%d steps)\n\n", LICOMK_PACK_SIZE,
                steps);
    std::printf("%-16s %10s\n", "variant", "ms/step");
    std::printf("%-16s %10.2f\n", "pack 1", r_sc.ms_per_step);
    std::printf("pack %-11d %10.2f\n", LICOMK_PACK_SIZE, r_pk.ms_per_step);
    std::printf("\nmeasured speedup: %.2fx\n", r_sc.ms_per_step / r_pk.ms_per_step);
    std::printf("lane utilization: %.0f active, %.0f masked (%.1f%% useful)\n", lanes_active,
                lanes_masked,
                lanes_active + lanes_masked > 0.0
                    ? 100.0 * lanes_active / (lanes_active + lanes_masked)
                    : 0.0);
    std::printf("fusion traffic elided: %.1f MB of intermediate-field re-reads\n", elided_mb);
  }

  // --- LDM staging ablation (§V-C) on the AthreadSim backend --------------
  const int ldm_steps = 10;
  std::printf("\nLDM staging ablation — AthreadSim, %d steps each (§V-C)\n\n", ldm_steps);
  std::printf("%-14s %10s %12s %12s %12s %10s %12s %12s\n", "variant", "ms/step", "staged",
              "direct", "DMA cmds", "in-flt", "mem-model", "step-model");
  std::printf("%-14s %10s %12s %12s %12s %10s %12s %12s\n", "", "(host)", "MB/step", "MB/step",
              "/step", "max", "ms/step", "ms/step");
  const kxx::LdmStagingMode modes[] = {kxx::LdmStagingMode::Direct, kxx::LdmStagingMode::Staged,
                                       kxx::LdmStagingMode::DoubleBuffered};
  double modeled_total[3] = {0.0, 0.0, 0.0};
  for (int m = 0; m < 3; ++m) {
    auto r = run_staging_variant(base, ldm_steps, modes[m]);
    double mem_ms = modeled_mem_ms(r, modes[m]);
    modeled_total[m] = r.ms_per_step + mem_ms;
    std::printf("%-14s %10.2f %12.2f %12.2f %12.0f %10.0f %12.3f %12.2f\n",
                kxx::ldm_staging_mode_name(modes[m]).c_str(), r.ms_per_step, r.staged_mb_step,
                r.direct_mb_step, r.transfers_step, r.inflight_max, mem_ms, modeled_total[m]);
  }
  std::printf(
      "\nstaged+double vs direct (modeled step): %.2fx — %s\n"
      "(the host simulator performs the copies eagerly, so measured wall time is\n"
      " flat across variants; the modeled column charges element-wise gld/gst at\n"
      " 1/10th of the 51.2 GB/s DMA bandwidth, the paper's §V-C penalty)\n",
      modeled_total[0] / modeled_total[2],
      modeled_total[2] <= modeled_total[0] ? "no slower, as required" : "SLOWER THAN DIRECT");
  return 0;
}
