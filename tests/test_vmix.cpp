// Tests for vertical mixing: Canuto/Richardson stability functions, the
// packed vmix_coeffs kernel against the scalar closure, convective
// adjustment, and the Fig. 4 load-balanced evaluation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>

#include "comm/runtime.hpp"
#include "core/constants.hpp"
#include "core/eos.hpp"
#include "core/model.hpp"
#include "core/vmix.hpp"
#include "kxx/kxx.hpp"
#include "kxx_env.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace kxx = licomk::kxx;

TEST(Canuto, StabilityFunctionsMonotoneForStableRi) {
  double prev_sm = 1e9;
  double prev_sh = 1e9;
  for (double ri : {0.0, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0}) {
    double sm = lc::canuto_sm(ri);
    double sh = lc::canuto_sh(ri);
    EXPECT_GT(sm, 0.0);
    EXPECT_GT(sh, 0.0);
    EXPECT_LT(sm, prev_sm) << "sm not decreasing at Ri=" << ri;
    EXPECT_LT(sh, prev_sh) << "sh not decreasing at Ri=" << ri;
    prev_sm = sm;
    prev_sh = sh;
  }
  // Neutral values of the closure.
  EXPECT_NEAR(lc::canuto_sm(0.0), 0.107, 1e-9);
  EXPECT_NEAR(lc::canuto_sh(0.0), 0.134, 1e-9);
}

TEST(Canuto, TurbulentPrandtlNumberGrowsWithRi) {
  double prev = 0.0;
  for (double ri : {0.0, 0.1, 0.5, 1.0, 2.0, 5.0}) {
    double pr = lc::canuto_sm(ri) / lc::canuto_sh(ri);
    EXPECT_GT(pr, prev) << "at Ri=" << ri;
    prev = pr;
  }
}

TEST(Canuto, UnstableBranchEnhancesMixing) {
  EXPECT_GT(lc::canuto_sm(-0.5), lc::canuto_sm(0.0));
  EXPECT_GT(lc::canuto_sh(-0.5), lc::canuto_sh(0.0));
}

TEST(Canuto, MixingCoefficientsBoundedAndConvective) {
  // Statically unstable => convective adjustment value.
  auto conv = lc::canuto_mixing(-1e-5, 1e-5, 50.0);
  EXPECT_DOUBLE_EQ(conv.km, lc::kConvectiveKappa);
  EXPECT_DOUBLE_EQ(conv.kt, lc::kConvectiveKappa);
  // Strongly stable, weak shear => near background.
  auto quiet = lc::canuto_mixing(1e-4, 1e-9, 500.0);
  EXPECT_LT(quiet.km, 10.0 * lc::kKappaBackgroundM);
  EXPECT_LT(quiet.kt, 10.0 * lc::kKappaBackgroundT);
  // Never exceeds the cap.
  auto strong = lc::canuto_mixing(1e-9, 1.0, 30.0);
  EXPECT_LE(strong.km, 0.5);
  EXPECT_LE(strong.kt, 0.5);
  EXPECT_GT(strong.km, 1e-3);  // vigorous shear-driven mixing
}

TEST(Richardson, PP81Form) {
  // Ri = 0: peak viscosity nu0 + background.
  auto peak = lc::richardson_mixing(0.0, 1e-4);
  EXPECT_NEAR(peak.km, 0.01 + lc::kKappaBackgroundM, 1e-12);
  // Monotone decay with Ri.
  double prev = 1e9;
  for (double ri : {0.0, 0.2, 1.0, 5.0}) {
    auto c = lc::richardson_mixing(ri * 1e-4, 1e-4);
    EXPECT_LT(c.km, prev);
    EXPECT_LE(c.kt, c.km);  // Pr >= 1
    prev = c.km;
  }
  auto conv = lc::richardson_mixing(-1e-6, 1e-6);
  EXPECT_DOUBLE_EQ(conv.km, lc::kConvectiveKappa);
}

TEST(Vmix, MixingLengthSaturates) {
  EXPECT_LT(lc::mixing_length(1.0), lc::mixing_length(10.0));
  EXPECT_LT(lc::mixing_length(10.0), lc::mixing_length(100.0));
  EXPECT_NEAR(lc::mixing_length(1e6), 30.0, 1.0);  // asymptotic length
}

TEST(Vmix, DeeperInterfacesMixMoreAtEqualRi) {
  double prev_km = 0.0;
  for (double z : {10.0, 20.0, 40.0, 60.0}) {
    auto c = lc::canuto_mixing(1e-5, 1e-4, z);
    EXPECT_GT(c.km, prev_km) << "at z=" << z;  // longer mixing length
    EXPECT_GT(c.kt, 0.0);
    prev_km = c.km;
  }
}

namespace {

constexpr int kH = licomk::decomp::kHaloWidth;

/// kappa_m and kappa_t interior fields gathered into global (k, j, i) order.
struct Kappas {
  std::vector<double> km, kt;
};

/// Run the model on `nranks` for three steps (the first builds the Fig. 4
/// plan, the later ones reuse it) and gather both mixing coefficients.
Kappas run_mixer(int nranks, bool load_balance, lc::VMixScheme scheme) {
  auto cfg = lc::ModelConfig::testing(8);
  cfg.grid.nz = 8;
  cfg.vmix = scheme;
  cfg.canuto_load_balance = load_balance;
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  const size_t n = static_cast<size_t>(cfg.grid.nz) * cfg.grid.ny * cfg.grid.nx;
  Kappas out{std::vector<double>(n, 0.0), std::vector<double>(n, 0.0)};
  std::mutex out_mutex;
  lco::Runtime::run(nranks, [&](lco::Communicator& c) {
    lc::LicomModel model(cfg, global, c);
    for (int s = 0; s < 3; ++s) model.step();
    const auto& g = model.local_grid();
    const auto& e = g.extent();
    std::lock_guard<std::mutex> lock(out_mutex);
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny(); ++j)
        for (int i = 0; i < g.nx(); ++i) {
          const size_t at =
              (static_cast<size_t>(k) * cfg.grid.ny + (e.j0 + j)) * cfg.grid.nx + (e.i0 + i);
          out.km[at] = model.state().kappa_m.at(k, j + kH, i + kH);
          out.kt[at] = model.state().kappa_t.at(k, j + kH, i + kH);
        }
  });
  return out;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

namespace {
// The branchy scalar closure the packed one replaced, kept as an independent
// oracle: the select/clamp/cap lowering must reproduce it bit for bit.
double branchy_sm(double ri) {
  ri = std::clamp(ri, -2.0, 50.0);
  if (ri >= 0.0) return 0.107 * (1.0 + 2.0 * ri) / (1.0 + 10.0 * ri + 30.0 * ri * ri);
  return 0.107 * (1.0 + 9.0 * (-ri) / (1.0 - 1.5 * ri));
}
double branchy_sh(double ri) {
  ri = std::clamp(ri, -2.0, 50.0);
  if (ri >= 0.0) return 0.134 / (1.0 + 14.0 * ri + 60.0 * ri * ri);
  return 0.134 * (1.0 + 12.0 * (-ri) / (1.0 - 1.5 * ri));
}
lc::MixingCoeffs branchy_mixing(bool canuto, double n2, double shear2, double z) {
  if (n2 < 0.0) return {lc::kConvectiveKappa, lc::kConvectiveKappa};
  const double s2 = std::max(shear2, 1e-10);
  if (canuto) {
    const double ri = n2 / s2;
    const double l = lc::mixing_length(z);
    const double q = l * l * std::sqrt(s2);
    return {std::min(branchy_sm(ri) * q + lc::kKappaBackgroundM, 0.5),
            std::min(branchy_sh(ri) * q + lc::kKappaBackgroundT, 0.5)};
  }
  const double ri = std::clamp(n2 / s2, 0.0, 50.0);
  const double denom = 1.0 + 5.0 * ri;
  const double nu = 0.01 / (denom * denom);
  return {std::min(nu + lc::kKappaBackgroundM, 0.5),
          std::min(nu / denom + lc::kKappaBackgroundT, 0.5)};
}
}  // namespace

TEST(Vmix, ClosureMatchesBranchyReference) {
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (double ri : {-10.0, -2.0, -1.0, -0.5, -0.0, 0.0, 0.3, 2.0 / 3.0, 1.0, 50.0, 60.0}) {
    EXPECT_EQ(bits(lc::canuto_sm(ri)), bits(branchy_sm(ri))) << "ri=" << ri;
    EXPECT_EQ(bits(lc::canuto_sh(ri)), bits(branchy_sh(ri))) << "ri=" << ri;
  }
  for (double n2 : {-1e-3, -1e-9, -0.0, 0.0, 1e-9, 1e-6, 1e-4, 1e-2})
    for (double s2 : {0.0, 1e-12, 1e-10, 1e-8, 1e-4, 1e-1, 10.0})
      for (double z : {0.1, 5.0, 50.0, 500.0}) {
        const auto c = lc::canuto_mixing(n2, s2, z);
        const auto cr = branchy_mixing(true, n2, s2, z);
        EXPECT_EQ(bits(c.km), bits(cr.km)) << n2 << " " << s2 << " " << z;
        EXPECT_EQ(bits(c.kt), bits(cr.kt)) << n2 << " " << s2 << " " << z;
        const auto r = lc::richardson_mixing(n2, s2);
        const auto rr = branchy_mixing(false, n2, s2, z);
        EXPECT_EQ(bits(r.km), bits(rr.km)) << n2 << " " << s2;
        EXPECT_EQ(bits(r.kt), bits(rr.kt)) << n2 << " " << s2;
      }
}

// kappa_m and kappa_t are byte-identical at every pack width, on 1 and 4
// ranks, with the Fig. 4 balancer on and off, for both schemes.
TEST(Vmix, LoadBalancedResultsIdenticalToLocal) {
  for (auto scheme : {lc::VMixScheme::Canuto, lc::VMixScheme::Richardson}) {
    kxx::set_pack_size(1);
    const Kappas ref = run_mixer(1, false, scheme);
    for (int pack : {1, 4, 8}) {
      kxx::set_pack_size(pack);
      for (auto [ranks, balance] : {std::pair{1, false}, {4, false}, {4, true}}) {
        const Kappas got = run_mixer(ranks, balance, scheme);
        EXPECT_TRUE(same_bytes(got.km, ref.km) && same_bytes(got.kt, ref.kt))
            << "scheme=" << static_cast<int>(scheme) << " pack=" << pack << " ranks=" << ranks
            << " balance=" << balance;
      }
    }
  }
  kxx::set_pack_size(LICOMK_PACK_SIZE);
}

// The packed vmix_coeffs kernel against the scalar closure (canuto_mixing /
// richardson_mixing of brunt_vaisala_sq and the corner-averaged shear), per
// interface, byte for byte. The block is ragged (kmt 0, 1, 2 and nz, the 1-
// and 2-level columns carved into the synthetic Earth, which has none), its
// interior width leaves a partial i-tail at widths 4 and 8, and the fields
// reach every branch of the closure: N² < 0, N² = 0 (so Ri is exactly 0),
// Ri beyond the clamps, shear below the 1e-10 floor, and km/kt at the 0.5
// cap. Halo cells and the bottom plane are never written.
TEST(Vmix, PackedKernelMatchesScalarClosure) {
  EXPECT_EQ(lc::canuto_sm(-7.0), lc::canuto_sm(-2.0));  // the lower Ri clamp
  EXPECT_EQ(lc::canuto_sh(80.0), lc::canuto_sh(50.0));  // the upper Ri clamp
  auto spec = licomk::grid::shrink(licomk::grid::spec_coarse100km(), 8);
  spec.nz = 8;
  const licomk::grid::GlobalGrid global(spec);
  const licomk::decomp::Decomposition dec(spec.nx, spec.ny, 1, 1);
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(global, dec, 0);
    const int nz = g.nz();
    // The LocalGrid's kmt handle is shallow (View semantics): carve the
    // shallow columns before the mixer copies it.
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.kmt(j, i) == nz && (i + j) % 9 < 2) g.kmt_view()(j, i) = 1 + (i + j) % 9;
    bool has[4] = {};  // kmt 0, 1, 2, nz
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i) {
        const int kc = g.kmt(j, i);
        has[0] |= kc == 0;
        has[1] |= kc == 1;
        has[2] |= kc == 2;
        has[3] |= kc == nz;
      }
    for (bool h : has) ASSERT_TRUE(h);
    ASSERT_NE(g.nx() % 4, 0);
    ASSERT_NE(g.nx() % 8, 0);

    // Density by column type along i (unstable, neutral, strongly and weakly
    // stratified); velocity by row band (depth-uniform, so zero shear, then
    // strong alternating shear, then mild shear).
    lc::OceanState s(g);
    for (int k = 0; k < nz; ++k)
      for (int j = 0; j < g.ny_total(); ++j)
        for (int i = 0; i < g.nx_total(); ++i) {
          const int type = (3 * j + i) % 5;
          const double rho = type == 0   ? 1025.0 - 0.01 * k
                             : type == 1 ? 1025.0
                             : type == 2 ? 1025.0 + 2.0 * k
                                         : 1025.0 + 1e-3 * k + 1e-4 * ((7 * i + 3 * j) % 5);
          const int band = j % 6;
          const double amp = band < 2 ? 0.0 : band < 4 ? 2.0 : 0.01;
          const double sign = k % 2 == 0 ? 1.0 : -1.0;
          s.rho.at(k, j, i) = rho;
          s.u_cur.at(k, j, i) = 0.1 * ((i + j) % 3) + amp * sign;
          s.v_cur.at(k, j, i) = -0.05 * ((i * j) % 4) + 0.5 * amp * sign * ((i % 2) ? 1 : -1);
        }

    const auto& vg = g.vertical();
    auto corner_avg = [&](const licomk::halo::BlockField3D& f, int k, int j, int i) {
      return 0.25 *
             (f.at(k, j, i) + f.at(k, j - 1, i) + f.at(k, j, i - 1) + f.at(k, j - 1, i - 1));
    };
    auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    constexpr double kSentinel = -7.0;
    for (auto scheme : {lc::VMixScheme::Canuto, lc::VMixScheme::Richardson}) {
      const bool canuto = scheme == lc::VMixScheme::Canuto;
      long long unstable = 0, neutral = 0, steep = 0, still = 0, capped = 0;
      for (int pack : {1, 4, 8}) {
        kxx::set_pack_size(pack);
        for (auto* f : {&s.kappa_m, &s.kappa_t})
          std::fill_n(f->view().data(), f->view().size(), kSentinel);
        lc::VerticalMixer mixer(g, c, scheme, false);
        mixer.compute(s);
        long long mismatches = 0;
        for (int k = 0; k < nz; ++k)
          for (int j = 0; j < g.ny_total(); ++j)
            for (int i = 0; i < g.nx_total(); ++i) {
              const double km = s.kappa_m.at(k, j, i);
              const double kt = s.kappa_t.at(k, j, i);
              const bool interior = k + 1 < nz && j >= kH && j < kH + g.ny() && i >= kH &&
                                    i < kH + g.nx();
              lc::MixingCoeffs ref{kSentinel, kSentinel};
              if (interior && k + 1 < g.kmt(j, i)) {
                const double dzc = vg.depth(k + 1) - vg.depth(k);
                const double n2 =
                    lc::brunt_vaisala_sq(s.rho.at(k, j, i), s.rho.at(k + 1, j, i), dzc);
                const double dudz =
                    (corner_avg(s.u_cur, k, j, i) - corner_avg(s.u_cur, k + 1, j, i)) / dzc;
                const double dvdz =
                    (corner_avg(s.v_cur, k, j, i) - corner_avg(s.v_cur, k + 1, j, i)) / dzc;
                const double s2 = dudz * dudz + dvdz * dvdz;
                ref = canuto ? lc::canuto_mixing(n2, s2, vg.interface_depth(k + 1))
                             : lc::richardson_mixing(n2, s2);
                if (pack == 1) {
                  unstable += n2 < 0.0;
                  neutral += n2 == 0.0 && s2 > 1e-10;
                  steep += n2 / std::max(s2, 1e-10) > 50.0;
                  still += s2 < 1e-10;
                  capped += ref.km == 0.5 || ref.kt == 0.5;
                }
              } else if (interior) {
                ref = lc::MixingCoeffs{0.0, 0.0};
              }
              if (bits(km) != bits(ref.km) || bits(kt) != bits(ref.kt)) {
                if (mismatches++ == 0)
                  ADD_FAILURE() << "scheme=" << static_cast<int>(scheme) << " pack=" << pack
                                << " (k, j, i)=(" << k << ", " << j << ", " << i << ") km "
                                << km << " vs " << ref.km << ", kt " << kt << " vs " << ref.kt;
              }
            }
        EXPECT_EQ(mismatches, 0) << "pack=" << pack;
      }
      EXPECT_GT(unstable, 0);
      EXPECT_GT(neutral, 0);
      EXPECT_GT(steep, 0);
      EXPECT_GT(still, 0);
      if (canuto) EXPECT_GT(capped, 0);  // PP81 peaks at 0.01 m^2/s
    }
    kxx::set_pack_size(LICOMK_PACK_SIZE);
  });
}

TEST(Vmix, LoadBalanceShipsColumnsOnImbalancedRanks) {
  auto cfg = lc::ModelConfig::testing(8);
  cfg.grid.nz = 8;
  cfg.canuto_load_balance = true;
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  std::atomic<long long> shipped{0};
  std::atomic<long long> received{0};
  lco::Runtime::run(4, [&](lco::Communicator& c) {
    lc::LicomModel model(cfg, global, c);
    model.step();
    shipped.fetch_add(model.mixer().columns_shipped_out());
    received.fetch_add(model.mixer().columns_received());
  });
  // With land concentrated on some ranks there must be real redistribution,
  // and every shipped column is computed somewhere.
  EXPECT_GT(shipped.load(), 0);
  EXPECT_EQ(shipped.load(), received.load());
}

TEST(Vmix, SchemesDifferButBothBounded) {
  auto cfg = lc::ModelConfig::testing(8);
  cfg.grid.nz = 8;
  cfg.vmix = lc::VMixScheme::Canuto;
  lc::LicomModel canuto(cfg);
  canuto.step();
  cfg.vmix = lc::VMixScheme::Richardson;
  lc::LicomModel rich(cfg);
  rich.step();
  const auto& g = canuto.local_grid();
  const int h = licomk::decomp::kHaloWidth;
  int differing = 0;
  for (int k = 0; k + 1 < g.nz(); ++k)
    for (int j = h; j < h + g.ny(); ++j)
      for (int i = h; i < h + g.nx(); ++i) {
        double a = canuto.state().kappa_t.at(k, j, i);
        double b = rich.state().kappa_t.at(k, j, i);
        EXPECT_GE(a, 0.0);
        EXPECT_LE(a, lc::kConvectiveKappa);
        EXPECT_GE(b, 0.0);
        EXPECT_LE(b, lc::kConvectiveKappa);
        if (std::fabs(a - b) > 1e-12) ++differing;
      }
  EXPECT_GT(differing, 100);  // the schemes are genuinely different
}
