// Tests for the dynamical-core kernels: EOS, pressure, implicit vertical
// solve, vertical mean, barotropic sub-cycle, baroclinic update.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "core/column_solve.hpp"
#include "core/constants.hpp"
#include "core/dynamics.hpp"
#include "core/eos.hpp"
#include "core/forcing.hpp"
#include "core/model.hpp"
#include "kxx/kxx.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace kxx = licomk::kxx;
constexpr int kH = licomk::decomp::kHaloWidth;

TEST(Eos, LinearFormExact) {
  EXPECT_DOUBLE_EQ(lc::density_linear(lc::kTRef, lc::kSRef), 0.0);
  // Warmer water is lighter; saltier water is denser.
  EXPECT_LT(lc::density_linear(lc::kTRef + 5.0, lc::kSRef), 0.0);
  EXPECT_GT(lc::density_linear(lc::kTRef, lc::kSRef + 1.0), 0.0);
  EXPECT_NEAR(lc::density_linear(lc::kTRef + 1.0, lc::kSRef), -lc::kRho0 * lc::kAlphaT, 1e-12);
}

TEST(Eos, UnescoQualitativeProperties) {
  // Warmer => lighter, monotone in T at fixed S and depth.
  double prev = 1e9;
  for (double t : {0.0, 5.0, 10.0, 20.0, 28.0}) {
    double rho = lc::density_unesco(t, 35.0, 100.0);
    EXPECT_LT(rho, prev);
    prev = rho;
  }
  // Saltier => denser.
  EXPECT_GT(lc::density_unesco(10.0, 36.0, 100.0), lc::density_unesco(10.0, 34.0, 100.0));
  // Thermobaricity: the same warm anomaly is lighter at depth.
  double shallow = lc::density_unesco(15.0, 35.0, 0.0);
  double deep = lc::density_unesco(15.0, 35.0, 4000.0);
  EXPECT_NE(shallow, deep);
}

TEST(Eos, BruntVaisalaSign) {
  // Lighter over denser => stable, N^2 > 0.
  EXPECT_GT(lc::brunt_vaisala_sq(-1.0, 1.0, 10.0), 0.0);
  EXPECT_LT(lc::brunt_vaisala_sq(1.0, -1.0, 10.0), 0.0);
}

TEST(ImplicitVerticalSolve, ConservesColumnIntegral) {
  const int n = 12;
  std::vector<double> dz(n, 10.0), zc(n), kf(n, 0.01), x(n);
  for (int k = 0; k < n; ++k) {
    zc[static_cast<size_t>(k)] = 10.0 * k + 5.0;
    x[static_cast<size_t>(k)] = std::sin(0.7 * k) + 2.0;
  }
  double before = 0.0;
  for (int k = 0; k < n; ++k) before += x[static_cast<size_t>(k)] * dz[static_cast<size_t>(k)];
  lc::implicit_vertical_solve(n, 1440.0, kf.data(), dz.data(), zc.data(), x.data());
  double after = 0.0;
  for (int k = 0; k < n; ++k) after += x[static_cast<size_t>(k)] * dz[static_cast<size_t>(k)];
  EXPECT_NEAR(after / before, 1.0, 1e-12);  // zero-flux boundaries
}

TEST(ImplicitVerticalSolve, SmoothsAndPreservesConstants) {
  const int n = 10;
  std::vector<double> dz(n, 10.0), zc(n), kf(n, 0.05);
  for (int k = 0; k < n; ++k) zc[static_cast<size_t>(k)] = 10.0 * k + 5.0;
  // Constant stays constant.
  std::vector<double> c(n, 3.14);
  lc::implicit_vertical_solve(n, 3600.0, kf.data(), dz.data(), zc.data(), c.data());
  for (double v : c) EXPECT_NEAR(v, 3.14, 1e-12);
  // Oscillation damps: variance strictly decreases.
  std::vector<double> x(n);
  for (int k = 0; k < n; ++k) x[static_cast<size_t>(k)] = (k % 2 == 0) ? 1.0 : -1.0;
  auto variance = [&](const std::vector<double>& v) {
    double mean = std::accumulate(v.begin(), v.end(), 0.0) / n;
    double var = 0.0;
    for (double q : v) var += (q - mean) * (q - mean);
    return var;
  };
  double v0 = variance(x);
  lc::implicit_vertical_solve(n, 3600.0, kf.data(), dz.data(), zc.data(), x.data());
  EXPECT_LT(variance(x), 0.2 * v0);
  // Monotone bounds (implicit diffusion is an M-matrix solve).
  for (double q : x) {
    EXPECT_GE(q, -1.0 - 1e-12);
    EXPECT_LE(q, 1.0 + 1e-12);
  }
}

TEST(ImplicitVerticalSolve, SingleLevelIsIdentity) {
  double x = 7.0;
  double dz = 10.0, zc = 5.0, kf = 0.1;
  lc::implicit_vertical_solve(1, 3600.0, &kf, &dz, &zc, &x);
  EXPECT_DOUBLE_EQ(x, 7.0);
}

namespace {
/// Deterministic pseudo-random in [0, 1).
double unit_noise(int a, int b, int salt) {
  unsigned h = static_cast<unsigned>(a) * 73856093u ^ static_cast<unsigned>(b) * 19349663u ^
               static_cast<unsigned>(salt) * 2654435761u;
  h ^= h >> 13;
  h *= 0x5bd1e995u;
  h ^= h >> 15;
  return static_cast<double>(h) / 4294967296.0;
}
/// The textbook per-column Thomas solve the packed solver must reproduce:
/// coefficients first, then the forward sweep and back substitution, in
/// the scalar kernel's op order.
void reference_thomas(int nlev, double dt, const double* kf, const double* dz, const double* zc,
                      double* x) {
  if (nlev <= 1) return;
  std::vector<double> a(static_cast<size_t>(nlev)), b(a.size()), c(a.size());
  for (int k = 0; k < nlev; ++k) {
    double lam_up = 0.0;
    double lam_dn = 0.0;
    if (k > 0) lam_up = dt * kf[k - 1] / (dz[k] * (zc[k] - zc[k - 1]));
    if (k < nlev - 1) lam_dn = dt * kf[k] / (dz[k] * (zc[k + 1] - zc[k]));
    a[static_cast<size_t>(k)] = -lam_up;
    b[static_cast<size_t>(k)] = 1.0 + lam_up + lam_dn;
    c[static_cast<size_t>(k)] = -lam_dn;
  }
  for (int k = 1; k < nlev; ++k) {
    const double m = a[static_cast<size_t>(k)] / b[static_cast<size_t>(k - 1)];
    b[static_cast<size_t>(k)] -= m * c[static_cast<size_t>(k - 1)];
    x[k] -= m * x[k - 1];
  }
  x[nlev - 1] /= b[static_cast<size_t>(nlev - 1)];
  for (int k = nlev - 2; k >= 0; --k)
    x[k] = (x[k] - c[static_cast<size_t>(k)] * x[k + 1]) / b[static_cast<size_t>(k)];
}
}  // namespace

// implicit_vertical_solve is the N = 1, one-RHS instance of the packed
// solver; one pack of columns ending at different depths must reproduce the
// per-column scalar solves (and the textbook reference) bit for bit, and
// leave every level below a lane's bottom (and lanes with fewer than two
// levels) untouched.
TEST(ImplicitVerticalSolve, PackedLanesMatchScalarBitwise) {
  constexpr int kN = 8;
  const int nz = 12;
  const int nlev[kN] = {0, 1, 2, nz - 1, nz, 3, nz, 5};
  std::vector<double> dz(nz), zc(nz);
  double top = 0.0;
  for (int k = 0; k < nz; ++k) {
    dz[static_cast<size_t>(k)] = 10.0 + 5.0 * k;
    zc[static_cast<size_t>(k)] = top + 0.5 * dz[static_cast<size_t>(k)];
    top += dz[static_cast<size_t>(k)];
  }
  // Below a lane's bottom the solution is NaN and the faces are infinite:
  // those values are read (the sweep runs to the deepest lane) but must
  // never reach a live level or be written.
  std::vector<double> kf(static_cast<size_t>(nz) * kN), x(static_cast<size_t>(nz) * kN);
  for (int k = 0; k < nz; ++k)
    for (int l = 0; l < kN; ++l) {
      kf[static_cast<size_t>(k * kN + l)] = k < nlev[l] - 1
                                                ? 1e-4 + 0.05 * unit_noise(k, l, 1)
                                                : std::numeric_limits<double>::infinity();
      x[static_cast<size_t>(k * kN + l)] = k < nlev[l] ? 20.0 * unit_noise(k, l, 2) - 5.0
                                                       : std::numeric_limits<double>::quiet_NaN();
    }
  std::vector<double> want = x;
  for (int l = 0; l < kN; ++l) {
    std::vector<double> col(static_cast<size_t>(nz)), kcol(static_cast<size_t>(nz));
    for (int k = 0; k < nz; ++k) {
      col[static_cast<size_t>(k)] = x[static_cast<size_t>(k * kN + l)];
      kcol[static_cast<size_t>(k)] = kf[static_cast<size_t>(k * kN + l)];
    }
    std::vector<double> ref = col;
    reference_thomas(nlev[l], 3600.0, kcol.data(), dz.data(), zc.data(), ref.data());
    lc::implicit_vertical_solve(nlev[l], 3600.0, kcol.data(), dz.data(), zc.data(), col.data());
    EXPECT_EQ(0, std::memcmp(col.data(), ref.data(), col.size() * sizeof(double))) << l;
    for (int k = 0; k < nz; ++k)
      want[static_cast<size_t>(k * kN + l)] = col[static_cast<size_t>(k)];
  }
  double* const rhs[1] = {x.data()};
  lc::implicit_vertical_solve_packed<kN, 1>(nlev, 3600.0, kf.data(), dz.data(), zc.data(), rhs);
  EXPECT_EQ(0, std::memcmp(x.data(), want.data(), x.size() * sizeof(double)));
  // The solve did something on the deep lanes (not a vacuous comparison).
  EXPECT_NE(want[static_cast<size_t>(4)], 20.0 * unit_noise(0, 4, 2) - 5.0);
}

// Two right-hand sides share one factorization; each must match its own
// scalar solve bit for bit.
TEST(ImplicitVerticalSolve, TwoRhsMatchTwoScalarSolves) {
  constexpr int kN = 4;
  const int nz = 9;
  const int nlev[kN] = {nz, 2, 7, 0};
  std::vector<double> dz(nz, 25.0), zc(nz);
  for (int k = 0; k < nz; ++k) zc[static_cast<size_t>(k)] = 25.0 * k + 12.5;
  const size_t n = static_cast<size_t>(nz) * kN;
  std::vector<double> kf(n), u(n), v(n);
  for (size_t e = 0; e < n; ++e) {
    kf[e] = 1e-3 + 0.1 * unit_noise(static_cast<int>(e), 0, 3);
    u[e] = unit_noise(static_cast<int>(e), 1, 4) - 0.5;
    v[e] = -0.25 + 0.5 * unit_noise(static_cast<int>(e), 2, 5);
  }
  std::vector<double> u_want = u, v_want = v;
  for (int l = 0; l < kN; ++l) {
    std::vector<double> cu(static_cast<size_t>(nz)), cv(static_cast<size_t>(nz)),
        ck(static_cast<size_t>(nz));
    for (int k = 0; k < nz; ++k) {
      cu[static_cast<size_t>(k)] = u[static_cast<size_t>(k * kN + l)];
      cv[static_cast<size_t>(k)] = v[static_cast<size_t>(k * kN + l)];
      ck[static_cast<size_t>(k)] = kf[static_cast<size_t>(k * kN + l)];
    }
    lc::implicit_vertical_solve(nlev[l], 2880.0, ck.data(), dz.data(), zc.data(), cu.data());
    lc::implicit_vertical_solve(nlev[l], 2880.0, ck.data(), dz.data(), zc.data(), cv.data());
    for (int k = 0; k < nz; ++k) {
      u_want[static_cast<size_t>(k * kN + l)] = cu[static_cast<size_t>(k)];
      v_want[static_cast<size_t>(k * kN + l)] = cv[static_cast<size_t>(k)];
    }
  }
  double* const rhs[2] = {u.data(), v.data()};
  lc::implicit_vertical_solve_packed<kN, 2>(nlev, 2880.0, kf.data(), dz.data(), zc.data(), rhs);
  EXPECT_EQ(0, std::memcmp(u.data(), u_want.data(), n * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(v.data(), v_want.data(), n * sizeof(double)));

  // The same two RHS through a one-lane pack: the scalar layout.
  for (int l = 0; l < kN; ++l) {
    std::vector<double> cu(static_cast<size_t>(nz)), cv(static_cast<size_t>(nz)),
        ck(static_cast<size_t>(nz));
    for (int k = 0; k < nz; ++k) {
      cu[static_cast<size_t>(k)] = u_want[static_cast<size_t>(k * kN + l)];
      ck[static_cast<size_t>(k)] = kf[static_cast<size_t>(k * kN + l)];
    }
    cv = cu;
    std::vector<double> single = cu;
    lc::implicit_vertical_solve(nlev[l], 900.0, ck.data(), dz.data(), zc.data(), single.data());
    const int one[1] = {nlev[l]};
    double* const pair[2] = {cu.data(), cv.data()};
    lc::implicit_vertical_solve_packed<1, 2>(one, 900.0, ck.data(), dz.data(), zc.data(), pair);
    EXPECT_EQ(0, std::memcmp(cu.data(), single.data(), cu.size() * sizeof(double))) << l;
    EXPECT_EQ(0, std::memcmp(cv.data(), single.data(), cv.size() * sizeof(double))) << l;
  }
}

namespace {
struct ModelFixture {
  lc::ModelConfig cfg;
  std::shared_ptr<licomk::grid::GlobalGrid> global;
  ModelFixture() {
    cfg = lc::ModelConfig::testing(8);
    cfg.grid.nz = 8;
    global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  }
};
}  // namespace

TEST(Dynamics, PressureIsTheHydrostaticIntegralOfDensity) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    m.step();  // computes density and pressure from the evolving state
    const auto& g = m.local_grid();
    const auto& s = m.state();
    const auto& vg = g.vertical();
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i) {
        int nlev = g.kmt(j, i);
        if (nlev == 0) continue;
        // Surface value: half-layer integral of the top density.
        ASSERT_NEAR(s.pressure.at(0, j, i),
                    lc::kGravity * s.rho.at(0, j, i) * 0.5 * vg.dz(0) / lc::kRho0, 1e-12);
        for (int k = 1; k < nlev; ++k) {
          double dzc = vg.depth(k) - vg.depth(k - 1);
          double expect = s.pressure.at(k - 1, j, i) +
                          lc::kGravity * 0.5 * (s.rho.at(k - 1, j, i) + s.rho.at(k, j, i)) *
                              dzc / lc::kRho0;
          ASSERT_NEAR(s.pressure.at(k, j, i), expect, 1e-10);
        }
      }
  });
}

// Fused + packed readyt chain vs the unfused scalar kernels: every byte of
// rho and pressure (halos and land columns included) must match for every
// pack width.
TEST(Dynamics, FusedDensityPressureBitIdentical) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    m.step();  // evolve to a non-trivial state
    const auto& g = m.local_grid();
    const auto& s = m.state();
    const std::size_t bytes3 = static_cast<std::size_t>(g.nz()) * g.ny_total() *
                               g.nx_total() * sizeof(double);

    licomk::halo::BlockField3D rho_ref("rho_ref", g.extent(), g.nz());
    licomk::halo::BlockField3D p_ref("p_ref", g.extent(), g.nz());
    lc::compute_density(g, fx.cfg.linear_eos, s.t_cur, s.s_cur, rho_ref);
    lc::compute_pressure(g, rho_ref, p_ref);

    for (int pack : {1, 4, 8}) {
      kxx::set_pack_size(pack);
      licomk::halo::BlockField3D rho_f("rho_f", g.extent(), g.nz());
      licomk::halo::BlockField3D p_f("p_f", g.extent(), g.nz());
      lc::compute_density_pressure_fused(g, fx.cfg.linear_eos, s.t_cur, s.s_cur, rho_f, p_f);
      EXPECT_EQ(0, std::memcmp(rho_ref.view().data(), rho_f.view().data(), bytes3))
          << "rho pack=" << pack;
      EXPECT_EQ(0, std::memcmp(p_ref.view().data(), p_f.view().data(), bytes3))
          << "pressure pack=" << pack;
    }
    kxx::set_pack_size(LICOMK_PACK_SIZE);
  });
}

// Fused + packed readyc chain (tendencies + both vertical means) vs the
// unfused kernels, including the land-corner zero writes and the per-column
// wind/bottom-drag branches at mid-pack positions.
TEST(Dynamics, FusedTendencyMeansBitIdentical) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    m.step();
    const auto& g = m.local_grid();
    const auto& s = m.state();
    const double day = 17.25;
    const std::size_t bytes3 = static_cast<std::size_t>(g.nz()) * g.ny_total() *
                               g.nx_total() * sizeof(double);
    const std::size_t bytes2 =
        static_cast<std::size_t>(g.ny_total()) * g.nx_total() * sizeof(double);

    licomk::halo::BlockField3D fu_ref("fu_ref", g.extent(), g.nz());
    licomk::halo::BlockField3D fv_ref("fv_ref", g.extent(), g.nz());
    licomk::halo::BlockField2D gu_ref("gu_ref", g.extent());
    licomk::halo::BlockField2D gv_ref("gv_ref", g.extent());
    lc::compute_momentum_tendencies(g, fx.cfg, s, day, fu_ref, fv_ref);
    lc::vertical_mean(g, fu_ref, gu_ref);
    lc::vertical_mean(g, fv_ref, gv_ref);

    for (int pack : {1, 4, 8}) {
      kxx::set_pack_size(pack);
      licomk::halo::BlockField3D fu_f("fu_f", g.extent(), g.nz());
      licomk::halo::BlockField3D fv_f("fv_f", g.extent(), g.nz());
      licomk::halo::BlockField2D gu_f("gu_f", g.extent());
      licomk::halo::BlockField2D gv_f("gv_f", g.extent());
      lc::compute_tendency_means(g, fx.cfg, s, day, fu_f, fv_f, gu_f, gv_f);
      EXPECT_EQ(0, std::memcmp(fu_ref.view().data(), fu_f.view().data(), bytes3))
          << "fu pack=" << pack;
      EXPECT_EQ(0, std::memcmp(fv_ref.view().data(), fv_f.view().data(), bytes3))
          << "fv pack=" << pack;
      EXPECT_EQ(0, std::memcmp(gu_ref.view().data(), gu_f.view().data(), bytes2))
          << "gu_bar pack=" << pack;
      EXPECT_EQ(0, std::memcmp(gv_ref.view().data(), gv_f.view().data(), bytes2))
          << "gv_bar pack=" << pack;
    }
    kxx::set_pack_size(LICOMK_PACK_SIZE);
  });
}

// The bclinc column packed across i (u and v sharing one factorization of
// the corner-averaged kappa_m system) vs the pack-width-1 scalar body: every
// byte of u_new/v_new and of the Asselin-filtered u_cur/v_cur.
TEST(Dynamics, PackedBaroclinicColumnBitIdentical) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    m.step();
    m.step();  // nonzero velocities, tendencies and viscosity everywhere
    const auto& g = m.local_grid();
    const auto& s0 = m.state();
    licomk::halo::BlockField2D ua("ua", g.extent()), va("va", g.extent());
    for (int j = 0; j < g.ny_total(); ++j)
      for (int i = 0; i < g.nx_total(); ++i) {
        ua.at(j, i) = 0.01 * std::sin(0.3 * i + 0.1 * j);
        va.at(j, i) = 0.01 * std::cos(0.2 * i - 0.4 * j);
      }
    const std::size_t bytes3 = static_cast<std::size_t>(g.nz()) * g.ny_total() *
                               g.nx_total() * sizeof(double);
    auto run = [&](int pack) {
      auto st = std::make_unique<lc::OceanState>(g);
      for (auto [dst, src] : {std::pair{&st->u_old, &s0.u_old}, {&st->v_old, &s0.v_old},
                              {&st->u_cur, &s0.u_cur}, {&st->v_cur, &s0.v_cur},
                              {&st->fu_tend, &s0.fu_tend}, {&st->fv_tend, &s0.fv_tend},
                              {&st->kappa_m, &s0.kappa_m}})
        std::memcpy(dst->view().data(), src->view().data(), bytes3);
      kxx::fill(st->u_new.view(), 7.0);  // stale values the column must clear
      kxx::fill(st->v_new.view(), -7.0);
      kxx::set_pack_size(pack);
      lc::baroclinic_update(g, fx.cfg, *st, ua, va);
      return st;
    };
    auto ref = run(1);
    for (int pack : {4, 8}) {
      auto st = run(pack);
      for (auto [a, b, name] : {std::tuple{&ref->u_new, &st->u_new, "u_new"},
                                {&ref->v_new, &st->v_new, "v_new"},
                                {&ref->u_cur, &st->u_cur, "u_cur"},
                                {&ref->v_cur, &st->v_cur, "v_cur"}})
        EXPECT_EQ(0, std::memcmp(a->view().data(), b->view().data(), bytes3))
            << name << " pack=" << pack;
    }
    kxx::set_pack_size(LICOMK_PACK_SIZE);
  });
}

TEST(Dynamics, VerticalMeanIsThicknessWeighted) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::World world(1);
  lc::LicomModel m(fx.cfg, fx.global, world.communicator(0));
  const auto& g = m.local_grid();
  auto& s = m.state();
  // x(k) = k + 1 on active U levels.
  for (int k = 0; k < g.nz(); ++k)
    for (int j = 0; j < g.ny_total(); ++j)
      for (int i = 0; i < g.nx_total(); ++i)
        s.fu_tend.at(k, j, i) = g.u_active(k, j, i) ? k + 1.0 : 0.0;
  licomk::halo::BlockField2D mean("mean", g.extent());
  lc::vertical_mean(g, s.fu_tend, mean);
  for (int j = kH; j < kH + g.ny(); ++j)
    for (int i = kH; i < kH + g.nx(); ++i) {
      int nlev = g.kmu(j, i);
      if (nlev == 0) {
        EXPECT_DOUBLE_EQ(mean.at(j, i), 0.0);
        continue;
      }
      double num = 0.0, den = 0.0;
      for (int k = 0; k < nlev; ++k) {
        num += (k + 1.0) * g.vertical().dz(k);
        den += g.vertical().dz(k);
      }
      ASSERT_NEAR(mean.at(j, i), num / den, 1e-12);
    }
}

namespace {
/// A subcycle group (η/ū/v̄) of its own on the model's exchanger, on the tag
/// block just past the model's, so it never collides with the model's plans.
std::unique_ptr<licomk::halo::PersistentGroup> subcycle_group(lc::LicomModel& m) {
  namespace lh = licomk::halo;
  auto group =
      std::make_unique<lh::PersistentGroup>(m.exchanger(), lc::LicomModel::kHaloTagBlocks);
  group->add(m.state().eta_cur, lh::FoldSign::Symmetric);
  group->add(m.state().ubar_cur, lh::FoldSign::Antisymmetric);
  group->add(m.state().vbar_cur, lh::FoldSign::Antisymmetric);
  return group;
}
}  // namespace

TEST(Dynamics, BarotropicRestStateStaysAtRest) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    auto& s = m.state();
    licomk::halo::BlockField2D zero_g("zg", m.local_grid().extent());
    licomk::halo::BlockField2D zero_g2("zg2", m.local_grid().extent());
    licomk::halo::BlockField2D ua("ua", m.local_grid().extent());
    licomk::halo::BlockField2D va("va", m.local_grid().extent());
    lc::PolarFilter filter(m.local_grid());
    auto group = subcycle_group(m);
    lc::run_barotropic(m.local_grid(), fx.cfg, s, filter, zero_g, zero_g2, ua, va, *group);
    // No forcing, flat eta, zero velocity: everything remains zero.
    for (int j = 0; j < m.local_grid().ny_total(); ++j)
      for (int i = 0; i < m.local_grid().nx_total(); ++i) {
        ASSERT_DOUBLE_EQ(s.eta_cur.at(j, i), 0.0);
        ASSERT_DOUBLE_EQ(s.ubar_cur.at(j, i), 0.0);
        ASSERT_DOUBLE_EQ(s.vbar_cur.at(j, i), 0.0);
        ASSERT_DOUBLE_EQ(ua.at(j, i), 0.0);
      }
  });
}

TEST(Dynamics, BarotropicConservesVolume) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    const auto& g = m.local_grid();
    auto& s = m.state();
    // Seed a velocity field; eta starts flat (zero).
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.kmu(j, i) > 0) {
          s.ubar_cur.at(j, i) = 0.1 * std::sin(0.5 * i) * std::cos(0.3 * j);
          s.vbar_cur.at(j, i) = 0.1 * std::cos(0.4 * i + 1.0);
          s.ubar_old.at(j, i) = s.ubar_cur.at(j, i);
          s.vbar_old.at(j, i) = s.vbar_cur.at(j, i);
        }
    s.ubar_cur.mark_dirty();
    s.vbar_cur.mark_dirty();
    m.exchanger().update(s.ubar_cur, licomk::halo::FoldSign::Antisymmetric);
    m.exchanger().update(s.vbar_cur, licomk::halo::FoldSign::Antisymmetric);
    licomk::halo::BlockField2D zg("zg", g.extent()), zg2("zg2", g.extent());
    licomk::halo::BlockField2D ua("ua", g.extent()), va("va", g.extent());
    lc::PolarFilter filter(g);
    auto eta_volume = [&]() {
      double v = 0.0;
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i)
          if (g.kmt(j, i) > 0) v += s.eta_cur.at(j, i) * g.area_t(j, i);
      return v;
    };
    double before = eta_volume();
    auto group = subcycle_group(m);
    lc::run_barotropic(g, fx.cfg, s, filter, zg, zg2, ua, va, *group);
    double after = eta_volume();
    // Flux-form divergence over a closed/periodic domain: exact volume
    // conservation (relative to the basin's eta capacity).
    double scale = 0.01 * 3.0e14;  // 1 cm over ~ocean area
    EXPECT_NEAR((after - before) / scale, 0.0, 1e-9);
    // And the sub-cycle generated a gravity-wave response.
    double max_eta = 0.0;
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        max_eta = std::max(max_eta, std::fabs(s.eta_cur.at(j, i)));
    EXPECT_GT(max_eta, 0.0);
  });
}

TEST(Dynamics, MomentumTendencyRespondsToWind) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    const auto& g = m.local_grid();
    auto& s = m.state();
    // At rest with flat density there is no PG; the only surface-layer force
    // is wind stress, so the k=0 tendency matches tau/(rho0*dz0).
    licomk::kxx::fill(s.t_cur.view(), 10.0);
    licomk::kxx::fill(s.s_cur.view(), 35.0);
    s.t_cur.mark_dirty();
    s.s_cur.mark_dirty();
    lc::compute_density(g, true, s.t_cur, s.s_cur, s.rho);
    lc::compute_pressure(g, s.rho, s.pressure);
    lc::compute_momentum_tendencies(g, fx.cfg, s, 0.0, s.fu_tend, s.fv_tend);
    int checked = 0;
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i) {
        if (g.kmu(j, i) < 2) continue;
        auto f = lc::climatological_forcing(g.lon(j, i), g.lat(j, i), 0.0);
        double expect = f.tau_x / (lc::kRho0 * g.vertical().dz(0));
        ASSERT_NEAR(s.fu_tend.at(0, j, i), expect, std::fabs(expect) * 1e-9 + 1e-15);
        ++checked;
      }
    EXPECT_GT(checked, 100);
  });
}

TEST(Dynamics, BaroclinicRotationPreservesSpeedWithoutForcing) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  ModelFixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LicomModel m(fx.cfg, fx.global, c);
    const auto& g = m.local_grid();
    auto& s = m.state();
    // u_old = u_cur = (0.3, 0), no tendencies, no vertical viscosity,
    // anchoring target equal to the column mean: pure inertial rotation.
    licomk::kxx::fill(s.fu_tend.view(), 0.0);
    licomk::kxx::fill(s.fv_tend.view(), 0.0);
    licomk::kxx::fill(s.kappa_m.view(), 0.0);
    licomk::halo::BlockField2D ua("ua", g.extent()), va("va", g.extent());
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny_total(); ++j)
        for (int i = 0; i < g.nx_total(); ++i) {
          double u = g.u_active(k, j, i) ? 0.3 : 0.0;
          s.u_old.at(k, j, i) = u;
          s.u_cur.at(k, j, i) = u;
          s.v_old.at(k, j, i) = 0.0;
          s.v_cur.at(k, j, i) = 0.0;
        }
    for (int j = 0; j < g.ny_total(); ++j)
      for (int i = 0; i < g.nx_total(); ++i) ua.at(j, i) = g.kmu(j, i) > 0 ? 0.3 : 0.0;
    // ua is not the rotated mean, so anchor with the actual rotated mean:
    // easier check — semi-implicit rotation conserves |u| before anchoring;
    // with a full-depth-uniform field, the anchoring shift is uniform too, so
    // compare the speed of (u_new, v_new) after re-adding the known shift.
    lc::baroclinic_update(g, fx.cfg, s, ua, va);
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i) {
        int nlev = g.kmu(j, i);
        for (int k = 0; k < nlev; ++k) {
          // The column is vertically uniform: anchoring replaced the mean
          // with ua = 0.3 in u and va = 0 in v. Remove it and verify the
          // rotation preserved speed: |rotated| = 0.3.
          double mu = s.u_new.at(k, j, i) - 0.3;  // rotation result minus mean
          double mv = s.v_new.at(k, j, i) - 0.0;
          (void)mu;
          (void)mv;
          // Direct check: the pre-anchor rotated vector has |.| = 0.3; the
          // anchor replaces the mean by (0.3, 0). For a uniform column the
          // final field is exactly (0.3, 0) + (rot - rot_mean) = (0.3, 0).
          ASSERT_NEAR(s.u_new.at(k, j, i), 0.3, 1e-12);
          ASSERT_NEAR(s.v_new.at(k, j, i), 0.0, 1e-12);
        }
      }
  });
}

TEST(Dynamics, Fp32BarotropicCloseButNotIdentical) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  auto cfg = lc::ModelConfig::testing(8);
  cfg.grid.nz = 8;
  cfg.fp32_barotropic = false;
  lc::LicomModel fp64(cfg);
  fp64.run_days(1.0);
  auto d64 = fp64.diagnostics();

  cfg.fp32_barotropic = true;
  lc::LicomModel fp32(cfg);
  fp32.run_days(1.0);
  auto d32 = fp32.diagnostics();

  // The mixed-precision run stays physically equivalent...
  EXPECT_TRUE(d32.finite());
  EXPECT_NEAR(d32.mean_sst, d64.mean_sst, 0.05);
  EXPECT_NEAR(d32.max_abs_eta / d64.max_abs_eta, 1.0, 0.15);
  EXPECT_NEAR(d32.kinetic_energy / d64.kinetic_energy, 1.0, 0.15);
  // ...but the rounding genuinely changed the trajectory.
  EXPECT_NE(d32.max_abs_eta, d64.max_abs_eta);
}
