// Tests for the polar zonal filter: where it acts, conservation, damping,
// and decomposition-independence of the pass schedule.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "comm/runtime.hpp"
#include "core/polar_filter.hpp"
#include "core/state.hpp"
#include "kxx/kxx.hpp"
#include "kxx_env.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace ld = licomk::decomp;
namespace lh = licomk::halo;
namespace kxx = licomk::kxx;
constexpr int kH = ld::kHaloWidth;

namespace {
struct Fixture {
  std::shared_ptr<licomk::grid::GlobalGrid> global;
  std::unique_ptr<ld::Decomposition> dec;
  explicit Fixture(int px = 1, int py = 1) {
    auto spec = licomk::grid::shrink(licomk::grid::spec_coarse100km(), 8);
    spec.nz = 5;
    global = std::make_shared<licomk::grid::GlobalGrid>(spec);
    dec = std::make_unique<ld::Decomposition>(spec.nx, spec.ny, px, py);
  }
};
}  // namespace

TEST(PolarFilter, ActsOnlyPolewardOfThreshold) {
  Fixture fx;
  lc::LocalGrid g(*fx.global, *fx.dec, 0);
  lc::PolarFilter filter(g, 60.0, 2.0);
  EXPECT_TRUE(filter.active());
  int rows_filtered = 0;
  for (int j = kH; j < kH + g.ny(); ++j) {
    double lat = g.lat(j, g.nx_total() / 2);
    if (filter.passes_for_row(j) > 0) {
      EXPECT_GT(std::fabs(lat), 60.0) << "row " << j;
      ++rows_filtered;
    }
  }
  EXPECT_GT(rows_filtered, 0);
  EXPECT_LT(rows_filtered, g.ny());  // tropics untouched
}

TEST(PolarFilter, MorePassesCloserToTheFold) {
  Fixture fx;
  lc::LocalGrid g(*fx.global, *fx.dec, 0);
  lc::PolarFilter filter(g, 55.0, 2.0);
  // The top (fold) row has the most compressed spacing => most passes.
  int top = kH + g.ny() - 1;
  int mid_north = 0;
  for (int j = kH; j < kH + g.ny(); ++j) {
    if (g.lat(j, 0) > 58.0 && mid_north == 0) mid_north = j;
  }
  ASSERT_GT(mid_north, 0);
  EXPECT_GE(filter.passes_for_row(top), filter.passes_for_row(mid_north));
  EXPECT_GT(filter.passes_for_row(top), 0);
}

TEST(PolarFilter, ConservativeFormPreservesAreaIntegral) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::PolarFilter filter(g, 55.0, 2.0);
    lh::BlockField2D f("f", g.extent());
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.kmt(j, i) > 0) f.at(j, i) = std::sin(1.7 * i) + 0.2 * j;
    f.mark_dirty();
    ex.update(f);
    auto total = [&]() {
      double acc = 0.0;
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i)
          if (g.kmt(j, i) > 0) acc += f.at(j, i) * g.area_t(j, i);
      return acc;
    };
    double before = total();
    filter.apply(f, ex, lh::FoldSign::Symmetric, /*conservative=*/true);
    EXPECT_NEAR(total() / before, 1.0, 1e-12);
  });
}

TEST(PolarFilter, DampsGridScaleNoiseOnFilteredRows) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::PolarFilter filter(g, 55.0, 2.0);
    lh::BlockField2D f("f", g.extent());
    // Checkerboard (2-grid-length wave) everywhere.
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.kmt(j, i) > 0) f.at(j, i) = (i % 2 == 0) ? 1.0 : -1.0;
    f.mark_dirty();
    ex.update(f);
    auto row_amplitude = [&](int j) {
      double amp = 0.0;
      int count = 0;
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.kmt(j, i) > 0) {
          amp += std::fabs(f.at(j, i));
          ++count;
        }
      return count > 0 ? amp / count : 0.0;
    };
    int top = kH + g.ny() - 1;
    int equator = kH + g.ny() / 2;
    double top_before = row_amplitude(top);
    double eq_before = row_amplitude(equator);
    filter.apply(f, ex, lh::FoldSign::Symmetric, false);
    // Fold row: checkerboard strongly damped; equator: untouched.
    if (top_before > 0.0) EXPECT_LT(row_amplitude(top), 0.5 * top_before);
    EXPECT_DOUBLE_EQ(row_amplitude(equator), eq_before);
  });
}

TEST(PolarFilter, MultiRankMatchesSingleRank) {
  Fixture fx1(1, 1);
  auto spec = fx1.global->spec();
  std::vector<double> ref(static_cast<size_t>(spec.ny) * spec.nx, 0.0);
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx1.global, *fx1.dec, 0);
    lh::HaloExchanger ex(*fx1.dec, c, 0);
    lc::PolarFilter filter(g);
    lh::BlockField2D f("f", g.extent());
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.kmt(j, i) > 0) f.at(j, i) = std::cos(0.9 * i) * (1.0 + 0.01 * j);
    f.mark_dirty();
    ex.update(f);
    filter.apply(f, ex, lh::FoldSign::Symmetric, true);
    for (int j = 0; j < g.ny(); ++j)
      for (int i = 0; i < g.nx(); ++i)
        ref[static_cast<size_t>(j) * spec.nx + i] = f.at(j + kH, i + kH);
  });

  Fixture fx4(2, 2);
  lco::Runtime::run(4, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx4.global, *fx4.dec, c.rank());
    lh::HaloExchanger ex(*fx4.dec, c, c.rank());
    lc::PolarFilter filter(g);
    lh::BlockField2D f("f", g.extent());
    const auto& e = g.extent();
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.kmt(j, i) > 0) {
          int gi = e.i0 + (i - kH);
          int gj = e.j0 + (j - kH);
          f.at(j, i) = std::cos(0.9 * (gi + kH)) * (1.0 + 0.01 * (gj + kH));
        }
    f.mark_dirty();
    ex.update(f);
    filter.apply(f, ex, lh::FoldSign::Symmetric, true);
    for (int j = 0; j < g.ny(); ++j)
      for (int i = 0; i < g.nx(); ++i) {
        size_t idx = static_cast<size_t>(e.j0 + j) * spec.nx + (e.i0 + i);
        ASSERT_NEAR(f.at(j + kH, i + kH), ref[idx], 1e-12)
            << "rank " << c.rank() << " j=" << j << " i=" << i;
      }
  });
}

TEST(PolarFilter, ThreeDFilterMatchesPerLevelTwoD) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::PolarFilter filter(g);
    lh::BlockField3D f3("f3", g.extent(), g.nz());
    lh::BlockField2D f2("f2", g.extent());
    const int k_probe = 2;
    for (int k = 0; k < g.nz(); ++k)
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i)
          if (g.t_active(k, j, i)) {
            double v = std::sin(0.8 * i + 0.1 * k) + 0.05 * j;
            f3.at(k, j, i) = v;
            if (k == k_probe) f2.at(j, i) = v;
          }
    f3.mark_dirty();
    f2.mark_dirty();
    ex.update(f3);
    ex.update(f2);
    filter.apply(f3, ex, lh::FoldSign::Symmetric, true);
    filter.apply(f2, ex, lh::FoldSign::Symmetric, true);
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.t_active(k_probe, j, i)) {
          ASSERT_DOUBLE_EQ(f3.at(k_probe, j, i), f2.at(j, i));
        }
  });
}
