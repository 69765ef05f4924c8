// Tests for the polar zonal filter: where it acts, conservation, damping,
// decomposition-independence of the pass schedule, and PolarFilterK against
// the host-loop smoothing it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "comm/runtime.hpp"
#include "core/polar_filter.hpp"
#include "core/state.hpp"
#include "halo/persistent_group.hpp"
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

/// Filter one field through a group of its own (the model's only path).
template <typename Field>
void filter_alone(const lc::PolarFilter& filter, lh::HaloExchanger& ex, Field& f,
                  bool conservative) {
  lh::PersistentGroup group(ex);
  group.add(f, lh::FoldSign::Symmetric);
  filter.apply({lc::FilteredField(f, conservative)}, group);
}
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
    filter_alone(filter, ex, f, /*conservative=*/true);
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
    filter_alone(filter, ex, f, false);
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
    filter_alone(filter, ex, f, true);
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
    filter_alone(filter, ex, f, true);
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
    lh::PersistentGroup group(ex);
    group.add(f3, lh::FoldSign::Symmetric);
    group.add(f2, lh::FoldSign::Symmetric);
    filter.apply({lc::FilteredField(f3, true), lc::FilteredField(f2, true)}, group);
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.t_active(k_probe, j, i)) {
          ASSERT_DOUBLE_EQ(f3.at(k_probe, j, i), f2.at(j, i));
        }
  });
}

namespace {
/// The host-loop smoothing PolarFilterK replaced, kept as the oracle: per
/// row, every east-face flux from the pre-pass values into a buffer, then
/// the divergence. A 2-D field is smoothed by passing its data with nz = 1.
void reference_smooth(const lc::LocalGrid& g, const lc::PolarFilter& filter, double* q, int nz,
                      int pass, bool conservative) {
  const int nx = g.nx();
  const long long row = g.nx_total();
  const long long plane = static_cast<long long>(g.ny_total()) * row;
  for (int j = kH; j < kH + g.ny(); ++j) {
    if (filter.passes_for_row(j) <= pass) continue;
    for (int k = 0; k < nz; ++k) {
      double* r = q + k * plane + j * row;
      std::vector<double> flux(static_cast<size_t>(nx) + 1, 0.0);
      for (int i = kH - 1; i < kH + nx; ++i) {
        if (k >= g.kmt(j, i) || k >= g.kmt(j, i + 1)) continue;
        double conduct =
            conservative ? 0.125 * (g.area_t(j, i) + g.area_t(j, i + 1)) : 0.25;
        flux[static_cast<size_t>(i - (kH - 1))] = conduct * (r[i + 1] - r[i]);
      }
      for (int i = kH; i < kH + nx; ++i) {
        if (k >= g.kmt(j, i)) continue;
        double div = flux[static_cast<size_t>(i - kH + 1)] - flux[static_cast<size_t>(i - kH)];
        r[i] += conservative ? div / g.area_t(j, i) : div;
      }
    }
  }
}

/// Deterministic noise in [-1, 1) over the whole allocation, ghosts and
/// land included, so stale or misplaced reads change the result.
void fill_noise(double* q, size_t n, unsigned seed) {
  unsigned long long x = 0x9e3779b97f4a7c15ULL * (seed + 1);
  for (size_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    q[i] = static_cast<double>(x >> 11) * 0x1.0p-52 - 1.0;
  }
}

/// True when the block's filtered rows hold ragged kmt (else the land-face
/// masking would go untested).
bool ragged_on_filtered_rows(const lc::LocalGrid& g, const lc::PolarFilter& filter) {
  int kmin = g.nz(), kmax = 0;
  for (int j = kH; j < kH + g.ny(); ++j) {
    if (filter.passes_for_row(j) == 0) continue;
    for (int i = kH; i < kH + g.nx(); ++i) {
      if (g.kmt(j, i) == 0) continue;
      kmin = std::min(kmin, g.kmt(j, i));
      kmax = std::max(kmax, g.kmt(j, i));
    }
  }
  return kmin < kmax;
}
}  // namespace

// One pass of PolarFilterK over a 3-D and a 2-D field in one dispatch, byte
// for byte against the host loop, for every pass index of the schedule, the
// conservative and plain forms, on the one block of a 1-rank run and every
// block of a 2x2 split.
TEST(PolarFilter, KernelPassMatchesHostLoop) {
  for (int p : {1, 2}) {
    Fixture fx(p, p);
    int ragged_blocks = 0;
    for (int rank = 0; rank < p * p; ++rank) {
      lc::LocalGrid g(*fx.global, *fx.dec, rank);
      lc::PolarFilter filter(g, 55.0, 2.0);
      ASSERT_TRUE(filter.active());
      if (ragged_on_filtered_rows(g, filter)) ++ragged_blocks;
      lh::BlockField3D f3("f3", g.extent(), g.nz());
      lh::BlockField2D f2("f2", g.extent());
      const size_t n3 = f3.view().size();
      const size_t n2 = f2.view().size();
      std::vector<double> ref3(n3), ref2(n2);
      for (bool conservative : {false, true}) {
        for (int pass = 0; pass < filter.max_passes(); ++pass) {
          const unsigned seed = static_cast<unsigned>(rank * 100 + pass * 2 + conservative);
          fill_noise(f3.view().data(), n3, seed);
          fill_noise(f2.view().data(), n2, seed + 50);
          std::memcpy(ref3.data(), f3.view().data(), n3 * sizeof(double));
          std::memcpy(ref2.data(), f2.view().data(), n2 * sizeof(double));
          reference_smooth(g, filter, ref3.data(), g.nz(), pass, conservative);
          reference_smooth(g, filter, ref2.data(), 1, pass, conservative);
          filter.smooth({lc::FilteredField(f3, conservative), lc::FilteredField(f2, conservative)},
                        pass);
          EXPECT_EQ(0, std::memcmp(f3.view().data(), ref3.data(), n3 * sizeof(double)))
              << "3-D ranks=" << p * p << " rank=" << rank << " pass=" << pass
              << " conservative=" << conservative;
          EXPECT_EQ(0, std::memcmp(f2.view().data(), ref2.data(), n2 * sizeof(double)))
              << "2-D ranks=" << p * p << " rank=" << rank << " pass=" << pass
              << " conservative=" << conservative;
        }
      }
    }
    EXPECT_GT(ragged_blocks, 0) << "ranks=" << p * p << ": no ragged kmt on filtered rows";
  }
}

// The grouped apply (zonal-only intermediate refreshes, skipped once no
// rank smooths again) against the host loop with a full exchange after
// every pass, byte for byte, at 1 and 2x2 ranks.
TEST(PolarFilter, GroupedApplyMatchesHostLoopWithFullExchanges) {
  for (int p : {1, 2}) {
    Fixture fx(p, p);
    lco::Runtime::run(p * p, [&](lco::Communicator& c) {
      lc::LocalGrid g(*fx.global, *fx.dec, c.rank());
      lh::HaloExchanger ex(*fx.dec, c, c.rank());
      lc::PolarFilter filter(g, 55.0, 2.0);
      lh::BlockField3D t("t", g.extent(), g.nz()), t_ref("t_ref", g.extent(), g.nz());
      lh::BlockField2D u("u", g.extent()), u_ref("u_ref", g.extent());
      fill_noise(t.view().data(), t.view().size(), 7 + c.rank());
      fill_noise(u.view().data(), u.view().size(), 70 + c.rank());
      std::memcpy(t_ref.view().data(), t.view().data(), t.view().size() * sizeof(double));
      std::memcpy(u_ref.view().data(), u.view().data(), u.view().size() * sizeof(double));

      lh::PersistentGroup ref_group(ex, 0);
      ref_group.add(t_ref, lh::FoldSign::Symmetric);
      ref_group.add(u_ref, lh::FoldSign::Antisymmetric);
      t_ref.mark_dirty();
      u_ref.mark_dirty();
      ref_group.exchange();
      for (int pass = 0; pass < filter.max_passes(); ++pass) {
        reference_smooth(g, filter, t_ref.view().data(), g.nz(), pass, true);
        reference_smooth(g, filter, u_ref.view().data(), 1, pass, false);
        t_ref.mark_dirty();
        u_ref.mark_dirty();
        ref_group.exchange();
      }

      lh::PersistentGroup group(ex, 1);
      group.add(t, lh::FoldSign::Symmetric);
      group.add(u, lh::FoldSign::Antisymmetric);
      t.mark_dirty();
      u.mark_dirty();
      group.exchange();
      filter.apply({lc::FilteredField(t, true), lc::FilteredField(u, false)}, group);

      EXPECT_EQ(0, std::memcmp(t.view().data(), t_ref.view().data(),
                               t.view().size() * sizeof(double)))
          << "3-D ranks=" << p * p << " rank=" << c.rank();
      EXPECT_EQ(0, std::memcmp(u.view().data(), u_ref.view().data(),
                               u.view().size() * sizeof(double)))
          << "2-D ranks=" << p * p << " rank=" << c.rank();
    });
  }
}
