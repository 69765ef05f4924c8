// bench_model_kernels — per-phase kernel timings of the ocean model.
//
// Mirrors the paper's hotspot analysis (§V-C): advection_tracer is the
// dominant 3-D stencil, canuto the second hotspot, and the remaining load is
// dispersed across many kernels (§VII-D "hotspot dispersion").
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "comm/runtime.hpp"
#include "core/advection.hpp"
#include "core/dynamics.hpp"
#include "core/forcing.hpp"
#include "core/model.hpp"
#include "core/tracer.hpp"
#include "kxx/kxx.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"

namespace lc = licomk::core;
namespace kxx = licomk::kxx;

namespace {
struct ModelHolder {
  std::unique_ptr<lc::LicomModel> model;
  ModelHolder(int shrink, int nz, kxx::Backend backend) {
    kxx::initialize({backend, 0, false});
    auto cfg = lc::ModelConfig::testing(shrink);
    cfg.grid.nz = nz;
    model = std::make_unique<lc::LicomModel>(cfg);
    model->run_days(0.2);  // spin up a nontrivial state
  }
};
}  // namespace

static void BM_FullStep(benchmark::State& state) {
  ModelHolder h(static_cast<int>(state.range(0)), 12, kxx::Backend::Serial);
  for (auto _ : state) h.model->step();
  auto points = h.model->config().grid.points();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * points);
}
BENCHMARK(BM_FullStep)->Arg(8)->Arg(5)->Unit(benchmark::kMillisecond);

static void BM_FullStepAthreadSim(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::AthreadSim);
  for (auto _ : state) h.model->step();
  kxx::initialize({kxx::Backend::Serial, 0, false});
}
BENCHMARK(BM_FullStepAthreadSim)->Unit(benchmark::kMillisecond);

static void BM_AdvectionTracer(benchmark::State& state) {
  ModelHolder h(8, static_cast<int>(state.range(0)), kxx::Backend::Serial);
  auto& m = *h.model;
  lc::AdvectionWorkspace ws(m.local_grid());
  lc::compute_volume_fluxes(m.local_grid(), m.state().u_cur, m.state().v_cur, ws);
  for (auto _ : state) {
    lc::advect_tracer_fct(m.local_grid(), 1440.0, m.state().t_cur, ws, m.exchanger(),
                          m.state().t_new);
  }
  state.counters["nz"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AdvectionTracer)->Arg(12)->Arg(30)->Unit(benchmark::kMillisecond);

static void BM_DensityAndPressure(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::Serial);
  auto& m = *h.model;
  for (auto _ : state) {
    lc::compute_density(m.local_grid(), false, m.state().t_cur, m.state().s_cur, m.state().rho);
    lc::compute_pressure(m.local_grid(), m.state().rho, m.state().pressure);
  }
}
BENCHMARK(BM_DensityAndPressure)->Unit(benchmark::kMillisecond);

static void BM_MomentumTendencies(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::Serial);
  auto& m = *h.model;
  for (auto _ : state) {
    lc::compute_momentum_tendencies(m.local_grid(), m.config(), m.state(), 0.0,
                                    m.state().fu_tend, m.state().fv_tend);
  }
}
BENCHMARK(BM_MomentumTendencies)->Unit(benchmark::kMillisecond);

// The vmix_coeffs kernel at pack width 1 (its scalar pack_op<1> body) and at
// the compiled width; ci/check_pack_fusion.py gates the ratio.
static void BM_VerticalMixing(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::Serial);
  auto& m = *h.model;
  kxx::set_pack_size(static_cast<int>(state.range(0)));
  for (auto _ : state) m.mixer().compute(m.state());
  kxx::set_pack_size(LICOMK_PACK_SIZE);
  state.counters["pack"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_VerticalMixing)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Pack/fusion ablation of the readyt/readyc dynamics chain -------------
//
// Three legs, bit-identical outputs (tests/test_dynamics.cpp): the scalar
// unfused chain (density, pressure, tendencies, 2x vertical_mean), the fused
// chain at pack width 1 (fusion-only win: elided rho/fu/fv re-reads), and the
// fused chain at the compiled pack width (fusion + SIMD lanes).
// ci/check_pack_fusion.py gates the packed+fused / scalar-unfused ratio.
static void run_dyn_chain_unfused(lc::LicomModel& m, licomk::halo::BlockField2D& gu,
                                  licomk::halo::BlockField2D& gv) {
  auto& s = m.state();
  lc::compute_density(m.local_grid(), false, s.t_cur, s.s_cur, s.rho);
  lc::compute_pressure(m.local_grid(), s.rho, s.pressure);
  lc::compute_momentum_tendencies(m.local_grid(), m.config(), m.state(), 0.0, s.fu_tend,
                                  s.fv_tend);
  lc::vertical_mean(m.local_grid(), s.fu_tend, gu);
  lc::vertical_mean(m.local_grid(), s.fv_tend, gv);
}

static void run_dyn_chain_fused(lc::LicomModel& m, licomk::halo::BlockField2D& gu,
                                licomk::halo::BlockField2D& gv) {
  auto& s = m.state();
  lc::compute_density_pressure_fused(m.local_grid(), false, s.t_cur, s.s_cur, s.rho,
                                     s.pressure);
  lc::compute_tendency_means(m.local_grid(), m.config(), m.state(), 0.0, s.fu_tend, s.fv_tend,
                             gu, gv);
}

static void BM_DynChainScalarUnfused(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::Serial);
  auto& m = *h.model;
  licomk::halo::BlockField2D gu("gu_bar", m.local_grid().extent());
  licomk::halo::BlockField2D gv("gv_bar", m.local_grid().extent());
  kxx::set_pack_size(1);
  for (auto _ : state) run_dyn_chain_unfused(m, gu, gv);
  kxx::set_pack_size(LICOMK_PACK_SIZE);
}
BENCHMARK(BM_DynChainScalarUnfused)->Unit(benchmark::kMillisecond);

static void BM_DynChainFusedScalar(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::Serial);
  auto& m = *h.model;
  licomk::halo::BlockField2D gu("gu_bar", m.local_grid().extent());
  licomk::halo::BlockField2D gv("gv_bar", m.local_grid().extent());
  kxx::set_pack_size(1);
  for (auto _ : state) run_dyn_chain_fused(m, gu, gv);
  kxx::set_pack_size(LICOMK_PACK_SIZE);
}
BENCHMARK(BM_DynChainFusedScalar)->Unit(benchmark::kMillisecond);

static void BM_DynChainFusedPacked(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::Serial);
  auto& m = *h.model;
  licomk::halo::BlockField2D gu("gu_bar", m.local_grid().extent());
  licomk::halo::BlockField2D gv("gv_bar", m.local_grid().extent());
  kxx::set_pack_size(static_cast<int>(state.range(0)));
  for (auto _ : state) run_dyn_chain_fused(m, gu, gv);
  kxx::set_pack_size(LICOMK_PACK_SIZE);
  state.counters["pack"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_DynChainFusedPacked)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// --- Pack ablation of the tracer limiter and the column solvers -----------
//
// The FCT limiter chain (both tracers through advect_tracer_pair: low-order
// pair, anti-diffusive fluxes, adv_r_factors, adv_correct) followed by the
// fused t+s tracer column and the bclinc column, at pack width 1 (the scalar
// pack_op<1> bodies) and 8 (i-lanes). Bit-identical outputs
// (tests/test_advection.cpp, tests/test_dynamics.cpp); ci/check_pack_fusion.py
// gates the /1 over /8 ratio so a silent lowering of the packed limiter or
// column kernels to lane-scalar code fails CI.
static void BM_TracerLimiterColumns(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::Serial);
  auto& m = *h.model;
  auto& s = m.state();
  const auto& g = m.local_grid();
  lc::AdvectionWorkspace ws(g);
  lc::TracerAdvScratch scratch(g);
  const auto sw = lc::shortwave_fraction_table(g.vertical().interfaces());
  licomk::halo::BlockField2D ubar("ubar_avg", g.extent());
  licomk::halo::BlockField2D vbar("vbar_avg", g.extent());
  lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
  licomk::halo::PersistentGroup qtd_group(m.exchanger(), lc::LicomModel::kHaloTagBlocks);
  qtd_group.add(ws.q_td);
  qtd_group.add(scratch.q_td);
  kxx::set_pack_size(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    lc::advect_tracer_pair(g, m.config().grid.dt_tracer, s.t_cur, s.s_cur, ws, scratch,
                           qtd_group, s.t_new, s.s_new);
    lc::tracer_columns(g, m.config(), s, sw, 0.0);
    lc::baroclinic_update(g, m.config(), s, ubar, vbar);
  }
  kxx::set_pack_size(LICOMK_PACK_SIZE);
  state.counters["pack"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_TracerLimiterColumns)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// Pack-vs-scalar on the full step: pack width 1 (every packed kernel runs
// its pack_op<1> body) vs the compiled width.
static void BM_FullStepPacked(benchmark::State& state) {
  ModelHolder h(8, 12, kxx::Backend::Serial);
  kxx::set_pack_size(static_cast<int>(state.range(0)));
  for (auto _ : state) h.model->step();
  kxx::set_pack_size(LICOMK_PACK_SIZE);
  state.counters["pack"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_FullStepPacked)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

// CRC-64 of one farm-sized checkpoint (5 MiB): the integrity check every
// checkpoint write, verify and restore runs over each byte once.
static void BM_Crc64(benchmark::State& state) {
  std::vector<unsigned char> buf(std::size_t{5} << 20);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = static_cast<unsigned char>(i * 131 + 7);
  for (auto _ : state) benchmark::DoNotOptimize(licomk::util::crc64(buf.data(), buf.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc64)->Unit(benchmark::kMillisecond);

// Custom main so the CI perf-smoke job can collect telemetry alongside the
// benchmark numbers: with LICOMK_TELEMETRY=1 the run exports metrics.json and
// trace.json into $LICOMK_TELEMETRY_OUT (default: the working directory).
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Record how LICOMK itself was compiled (the library_build_type the
  // benchmark library reports describes the system libbenchmark, not us).
  // ci/check_perf.py refuses debug-built baselines and candidates.
#ifdef NDEBUG
  benchmark::AddCustomContext("licomk_build_type", "release");
#else
  benchmark::AddCustomContext("licomk_build_type", "debug");
#endif
  licomk::telemetry::initialize_from_env();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (licomk::telemetry::enabled()) {
    // Export the authoritative MPE-fallback count so the staging gate can
    // assert the model ran CPE-resident (the telemetry counter only
    // self-registers on the first fallback).
    licomk::telemetry::counter("kxx.athread_fallbacks")
        .record_max(static_cast<std::uint64_t>(kxx::athread_fallback_count()));
    // Pack/fusion gauges for the baseline context (ci/update_baseline.sh
    // harvests these into licomk_pack_gauges; ci/check_perf.py shape-checks).
    licomk::telemetry::set_gauge("kxx.pack.lanes_active",
                                 static_cast<double>(kxx::pack_lanes_active()));
    licomk::telemetry::set_gauge("kxx.pack.lanes_masked",
                                 static_cast<double>(kxx::pack_lanes_masked()));
    licomk::telemetry::set_gauge("kxx.fusion.views_elided_bytes",
                                 static_cast<double>(kxx::fusion_views_elided_bytes()));
    const char* out = std::getenv("LICOMK_TELEMETRY_OUT");
    std::string prefix = out != nullptr ? std::string(out) + "/" : std::string();
    licomk::telemetry::write_metrics_json(prefix + "metrics.json");
    licomk::telemetry::write_trace_json(prefix + "trace.json");
  }
  return 0;
}
