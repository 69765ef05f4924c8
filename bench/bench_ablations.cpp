// bench_ablations — the design-choice toggles DESIGN.md §5 calls out:
//   * redundant-halo-exchange elimination on/off over full model steps,
//   * double-buffered (asynchronous) vs synchronous DMA staging on the
//     simulated Sunway CPEs,
//   * polar zonal filter cost (the stability tax of the fold rows),
//   * Canuto vertical-mixing column with/without the closure's stability
//     functions (hotspot cost shape).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/model.hpp"
#include "core/vmix.hpp"
#include "kxx/kxx.hpp"
#include "swsim/athread.hpp"

namespace lc = licomk::core;
namespace kxx = licomk::kxx;
namespace sw = licomk::swsim;

namespace {
lc::ModelConfig bench_config() {
  auto cfg = lc::ModelConfig::testing(8);
  cfg.grid.nz = 10;
  return cfg;
}
}  // namespace

static void BM_StepWithRedundantElimination(benchmark::State& state) {
  kxx::initialize({kxx::Backend::Serial, 0, false});
  auto cfg = bench_config();
  cfg.eliminate_redundant_halo = true;
  lc::LicomModel model(cfg);
  for (auto _ : state) model.step();
  state.counters["halo_exchanges"] =
      static_cast<double>(model.exchanger().stats().exchanges) /
      static_cast<double>(model.steps_taken());
  state.counters["halo_skipped"] = static_cast<double>(model.exchanger().stats().skipped) /
                                   static_cast<double>(model.steps_taken());
}
BENCHMARK(BM_StepWithRedundantElimination)->Unit(benchmark::kMillisecond);

static void BM_StepWithoutRedundantElimination(benchmark::State& state) {
  kxx::initialize({kxx::Backend::Serial, 0, false});
  auto cfg = bench_config();
  cfg.eliminate_redundant_halo = false;
  lc::LicomModel model(cfg);
  for (auto _ : state) model.step();
  state.counters["halo_exchanges"] =
      static_cast<double>(model.exchanger().stats().exchanges) /
      static_cast<double>(model.steps_taken());
}
BENCHMARK(BM_StepWithoutRedundantElimination)->Unit(benchmark::kMillisecond);

namespace {
/// CPE kernel staging a tile through LDM with synchronous DMA: get, compute,
/// put — the unoptimized advection_tracer pattern.
struct DmaArg {
  const double* src;
  double* dst;
  long long tile;  // doubles per CPE
};

void sync_dma_kernel(void* argp) {
  auto* a = static_cast<DmaArg*>(argp);
  int id = sw::athread_get_id();
  auto* buf = static_cast<double*>(sw::ldm_malloc(static_cast<size_t>(a->tile) * 8));
  const double* src = a->src + id * a->tile;
  double* dst = a->dst + id * a->tile;
  sw::athread_dma_get(buf, src, static_cast<size_t>(a->tile) * 8);
  for (long long i = 0; i < a->tile; ++i) buf[i] = buf[i] * 1.0001 + 0.5;
  sw::athread_dma_put(dst, buf, static_cast<size_t>(a->tile) * 8);
  sw::ldm_free(buf);
}

/// Double-buffered variant (§V-C2): overlap the next tile's DMA-get with the
/// current tile's compute using the asynchronous reply mechanism.
void double_buffered_kernel(void* argp) {
  auto* a = static_cast<DmaArg*>(argp);
  int id = sw::athread_get_id();
  const long long half = a->tile / 2;
  auto* buf0 = static_cast<double*>(sw::ldm_malloc(static_cast<size_t>(half) * 8));
  auto* buf1 = static_cast<double*>(sw::ldm_malloc(static_cast<size_t>(half) * 8));
  const double* src = a->src + id * a->tile;
  double* dst = a->dst + id * a->tile;
  sw::DmaReply r0, r1;
  sw::athread_dma_iget(buf0, src, static_cast<size_t>(half) * 8, r0);
  sw::athread_dma_iget(buf1, src + half, static_cast<size_t>(half) * 8, r1);
  sw::athread_dma_wait(r0, 1);
  for (long long i = 0; i < half; ++i) buf0[i] = buf0[i] * 1.0001 + 0.5;
  sw::athread_dma_wait(r1, 1);
  sw::DmaReply w0, w1;
  sw::athread_dma_iput(dst, buf0, static_cast<size_t>(half) * 8, w0);
  for (long long i = 0; i < half; ++i) buf1[i] = buf1[i] * 1.0001 + 0.5;
  sw::athread_dma_iput(dst + half, buf1, static_cast<size_t>(half) * 8, w1);
  sw::athread_dma_wait(w0, 1);
  sw::athread_dma_wait(w1, 1);
  sw::ldm_free(buf1);
  sw::ldm_free(buf0);
}

struct DmaData {
  std::vector<double> src, dst;
  DmaData() : src(64 * 2048, 1.0), dst(64 * 2048, 0.0) {}
};
}  // namespace

static void BM_CpeDmaSynchronous(benchmark::State& state) {
  sw::reset_default_core_group();
  sw::athread_init();
  DmaData data;
  DmaArg arg{data.src.data(), data.dst.data(), 2048};
  for (auto _ : state) {
    sw::athread_spawn(&sync_dma_kernel, &arg);
    sw::athread_join();
  }
  auto stats = sw::default_core_group().stats();
  state.counters["sync_bytes"] = static_cast<double>(stats.dma.sync_bytes);
  state.counters["overlap_eligible_bytes"] = static_cast<double>(stats.dma.async_bytes);
}
BENCHMARK(BM_CpeDmaSynchronous)->Unit(benchmark::kMicrosecond);

static void BM_CpeDmaDoubleBuffered(benchmark::State& state) {
  sw::reset_default_core_group();
  sw::athread_init();
  DmaData data;
  DmaArg arg{data.src.data(), data.dst.data(), 2048};
  for (auto _ : state) {
    sw::athread_spawn(&double_buffered_kernel, &arg);
    sw::athread_join();
  }
  auto stats = sw::default_core_group().stats();
  // Everything routed through the async path is overlappable with compute on
  // real hardware; the modeled busy time quantifies the hidden fraction.
  state.counters["overlap_eligible_bytes"] = static_cast<double>(stats.dma.async_bytes);
  state.counters["modeled_dma_busy_s"] = stats.dma.modeled_busy_s;
}
BENCHMARK(BM_CpeDmaDoubleBuffered)->Unit(benchmark::kMicrosecond);

// One column of the scalar closure (the N = 1 instance the packed vmix_coeffs
// kernel runs per lane), interface by interface.
template <typename Closure>
static void run_column(benchmark::State& state, Closure closure) {
  const int nlev = static_cast<int>(state.range(0));
  std::vector<double> km(static_cast<size_t>(nlev)), kt(static_cast<size_t>(nlev));
  for (auto _ : state) {
    for (int k = 0; k < nlev; ++k) {
      const lc::MixingCoeffs c = closure(1e-5, 1e-4, 10.0 * (k + 1));
      km[static_cast<size_t>(k)] = c.km;
      kt[static_cast<size_t>(k)] = c.kt;
    }
    benchmark::DoNotOptimize(km.data());
    benchmark::DoNotOptimize(kt.data());
  }
}

static void BM_CanutoColumn(benchmark::State& state) { run_column(state, lc::canuto_mixing); }
BENCHMARK(BM_CanutoColumn)->Arg(30)->Arg(80)->Arg(244);

static void BM_RichardsonColumn(benchmark::State& state) {
  run_column(state, [](double n2, double s2, double) { return lc::richardson_mixing(n2, s2); });
}
BENCHMARK(BM_RichardsonColumn)->Arg(80);

static void BM_StepFp64Barotropic(benchmark::State& state) {
  kxx::initialize({kxx::Backend::Serial, 0, false});
  auto cfg = bench_config();
  cfg.fp32_barotropic = false;
  lc::LicomModel model(cfg);
  for (auto _ : state) model.step();
}
BENCHMARK(BM_StepFp64Barotropic)->Unit(benchmark::kMillisecond);

static void BM_StepFp32Barotropic(benchmark::State& state) {
  // Paper SVIII outlook: mixed precision. The substep arithmetic rounds to
  // fp32 (state and halos stay double); on real accelerators the fp32 path
  // doubles the effective bandwidth of the barotropic sub-cycle.
  kxx::initialize({kxx::Backend::Serial, 0, false});
  auto cfg = bench_config();
  cfg.fp32_barotropic = true;
  lc::LicomModel model(cfg);
  for (auto _ : state) model.step();
}
BENCHMARK(BM_StepFp32Barotropic)->Unit(benchmark::kMillisecond);

static void BM_StepAllOptimizationsOff(benchmark::State& state) {
  // The "original version" proxy for the paper's 2.7x / 3.9x optimization
  // speedups (SVII-C): horizontal-major 3-D halos, no redundant-exchange
  // elimination, no Canuto load balancing.
  kxx::initialize({kxx::Backend::Serial, 0, false});
  auto cfg = bench_config();
  cfg.halo_strategy = lc::HaloStrategy::HorizontalMajor;
  cfg.eliminate_redundant_halo = false;
  cfg.canuto_load_balance = false;
  lc::LicomModel model(cfg);
  for (auto _ : state) model.step();
}
BENCHMARK(BM_StepAllOptimizationsOff)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
