// bench_fig4_loadbalance — the Canuto sea-point load balancer (Fig. 4).
//
// Two parts:
//   1. the planning arithmetic on realistic censuses: sea-point imbalance
//      before/after over a sweep of rank counts against the synthetic Earth's
//      real land distribution;
//   2. the executed effect: wall time of the vertical-mixing phase with the
//      balancer on vs off on a multi-rank run, plus the census of shipped
//      columns.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "decomp/load_balance.hpp"
#include "kxx/kxx.hpp"

using namespace licomk;

namespace {
std::vector<long long> block_census(const grid::GlobalGrid& global,
                                    const decomp::Decomposition& dec) {
  std::vector<long long> census;
  for (int r = 0; r < dec.nranks(); ++r) {
    auto e = dec.block(r);
    long long count = 0;
    for (int j = e.j0; j < e.j1; ++j)
      for (int i = e.i0; i < e.i1; ++i)
        if (global.bathymetry().kmt(j, i) > 1) ++count;
    census.push_back(count);
  }
  return census;
}

std::vector<long long> sea_census(const grid::GlobalGrid& global, int px, int py) {
  return block_census(global, decomp::Decomposition(global.nx(), global.ny(), px, py));
}

/// 2-D prefix sum over the sea-point indicator, pricing any box in O(1) for
/// the weighted planner (the same structure core::LicomModel caches).
struct PrefixCensus {
  int nx, ny;
  std::vector<long long> p;
  explicit PrefixCensus(const grid::GlobalGrid& g) : nx(g.nx()), ny(g.ny()) {
    p.assign(static_cast<size_t>(ny + 1) * (nx + 1), 0);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i)
        p[static_cast<size_t>(j + 1) * (nx + 1) + i + 1] =
            p[static_cast<size_t>(j) * (nx + 1) + i + 1] +
            p[static_cast<size_t>(j + 1) * (nx + 1) + i] -
            p[static_cast<size_t>(j) * (nx + 1) + i] +
            (g.bathymetry().kmt(j, i) > 1 ? 1 : 0);
  }
  long long box(int j0, int j1, int i0, int i1) const {
    auto P = [&](int j, int i) { return p[static_cast<size_t>(j) * (nx + 1) + i]; };
    return P(j1, i1) - P(j0, i1) - P(j1, i0) + P(j0, i0);
  }
};

/// Wall time of 10 vertical-mixing sweeps on `nranks`, between barriers so
/// model construction and the first sweep (which builds the Fig. 4 plan)
/// stay out of it. Prints the columns shipped per sweep, summed over ranks.
double time_vmix(const core::ModelConfig& cfg,
                 std::shared_ptr<const grid::GlobalGrid> global, int nranks) {
  std::atomic<long long> shipped{0};
  double secs = 0.0;
  comm::Runtime::run(nranks, [&](comm::Communicator& c) {
    core::LicomModel model(cfg, global, c);
    model.mixer().compute(model.state());
    c.barrier();
    auto begin = std::chrono::steady_clock::now();
    for (int s = 0; s < 10; ++s) model.mixer().compute(model.state());
    c.barrier();
    if (c.rank() == 0)
      secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - begin).count();
    shipped.fetch_add(model.mixer().columns_shipped_out());
  });
  std::printf("      (columns shipped per sweep: %lld)\n", shipped.load());
  return secs;
}
}  // namespace

int main() {
  kxx::initialize({kxx::Backend::Serial, 0, false});
  auto spec = grid::shrink(grid::spec_coarse100km(), 4);  // 90 x 54
  spec.nz = 12;
  auto global = std::make_shared<grid::GlobalGrid>(spec);

  std::printf("Fig. 4 — Canuto load balancing on the realistic (synthetic) topography\n");
  std::printf("grid %dx%d, ocean fraction %.1f%%\n\n", spec.nx, spec.ny,
              100.0 * global->bathymetry().ocean_fraction());

  std::printf("planning: sea-point census imbalance (max/mean) before -> after,\n");
  std::printf("plus the STATIC fix: the ocean-aware weighted decomposition (the\n");
  std::printf("boundaries move instead of the columns; 'weighted' == uniform means\n");
  std::printf("refinement could not beat the uniform split there)\n");
  std::printf("%8s %14s %14s %12s %14s\n", "ranks", "uniform", "balanced", "transfers",
              "weighted");
  const PrefixCensus prices(*global);
  for (auto [px, py] :
       {std::pair{2, 2}, {4, 2}, {4, 4}, {8, 4}, {9, 6}, {15, 9}, {18, 13}}) {
    auto census = sea_census(*global, px, py);
    auto plan = decomp::balance_work(census);
    auto layout = decomp::weighted_layout(
        spec.nx, spec.ny, px, py, decomp::kHaloWidth,
        [&prices](int j0, int j1, int i0, int i1) { return prices.box(j0, j1, i0, i1); });
    decomp::Decomposition weighted(spec.nx, spec.ny, layout.x_bounds, layout.y_bounds);
    const double wi = decomp::LoadBalancePlan::imbalance(block_census(*global, weighted));
    std::printf("%8d %14.3f %14.3f %12zu %14.3f\n", px * py, plan.imbalance_before(),
                plan.imbalance_after(), plan.transfers.size(), wi);
  }

  std::printf("\nexecution: 10 vertical-mixing sweeps on 6 ranks\n");
  core::ModelConfig cfg;
  cfg.grid = spec;
  cfg.canuto_load_balance = false;
  std::printf("  balancer OFF: ");
  double off = time_vmix(cfg, global, 6);
  std::printf("      %.2f ms\n", off * 1e3);
  cfg.canuto_load_balance = true;
  std::printf("  balancer ON : ");
  double on = time_vmix(cfg, global, 6);
  std::printf("      %.2f ms\n", on * 1e3);
  std::printf(
      "\n(the ranks are threads sharing this host's cores, and the packed kernel\n"
      " costs less per column than shipping it, so the balanced run shows the\n"
      " shipping overhead without a parallel win; the census table above is the\n"
      " paper's Fig. 4 claim — the imbalance the balancer removes grows with\n"
      " rank count.)\n");
  return 0;
}
