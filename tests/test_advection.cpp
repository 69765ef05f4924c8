// Tests for the two-step shape-preserving (FCT) tracer advection — the
// properties the Yu (1994) scheme guarantees: conservation and no new
// extrema — plus multi-rank consistency.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "comm/runtime.hpp"
#include "core/advection.hpp"
#include "core/baseline.hpp"
#include "core/constants.hpp"
#include "core/dynamics.hpp"
#include "core/forcing.hpp"
#include "core/state.hpp"
#include "core/tracer.hpp"
#include "kxx/kxx.hpp"
#include "kxx_env.hpp"
#include "telemetry/telemetry.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace ld = licomk::decomp;
namespace lh = licomk::halo;
namespace kxx = licomk::kxx;

namespace {

constexpr int kH = ld::kHaloWidth;

struct Fixture {
  std::shared_ptr<licomk::grid::GlobalGrid> global;
  std::unique_ptr<ld::Decomposition> dec;

  explicit Fixture(int shrink = 8, int nz = 8, int px = 1, int py = 1) {
    auto spec = licomk::grid::shrink(licomk::grid::spec_coarse100km(), shrink);
    spec.nz = nz;
    global = std::make_shared<licomk::grid::GlobalGrid>(spec);
    dec = std::make_unique<ld::Decomposition>(spec.nx, spec.ny, px, py);
  }
};

/// Deterministic pseudo-random in [-1, 1].
double noise(int k, int j, int i, int salt) {
  unsigned h = static_cast<unsigned>(k) * 73856093u ^ static_cast<unsigned>(j) * 19349663u ^
               static_cast<unsigned>(i) * 83492791u ^ static_cast<unsigned>(salt) * 2654435761u;
  h ^= h >> 13;
  h *= 0x5bd1e995u;
  h ^= h >> 15;
  return static_cast<double>(h) / 2147483648.0 - 1.0;
}

/// Masked velocities as a function of GLOBAL indices (so every decomposition
/// builds the same field): interior set, ghosts zeroed (exchange after).
void set_velocities(const lc::LocalGrid& g, lc::OceanState& s, double scale, int salt) {
  const auto& e = g.extent();
  licomk::kxx::fill(s.u_cur.view(), 0.0);
  licomk::kxx::fill(s.v_cur.view(), 0.0);
  for (int k = 0; k < g.nz(); ++k)
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.u_active(k, j, i)) {
          int gj = e.j0 + (j - kH);
          int gi = e.i0 + (i - kH);
          s.u_cur.at(k, j, i) = scale * noise(k, gj, gi, salt);
          s.v_cur.at(k, j, i) = scale * noise(k, gj, gi, salt + 1);
        }
  s.u_cur.mark_dirty();
  s.v_cur.mark_dirty();
}

/// Tracer with structure: a blob plus noise, set through interior; halo via
/// exchange.
void set_tracer(const lc::LocalGrid& g, lh::BlockField3D& q, int salt) {
  const auto& e = g.extent();
  for (int k = 0; k < g.nz(); ++k)
    for (int j = 0; j < g.ny_total(); ++j)
      for (int i = 0; i < g.nx_total(); ++i) {
        int gj = e.j0 + (j - kH);
        int gi = e.i0 + (i - kH);
        q.at(k, j, i) = 10.0 + 3.0 * std::sin(0.3 * gi) * std::cos(0.4 * gj) +
                        0.5 * noise(k, gj, gi, salt);
      }
  q.mark_dirty();
}

double total_tracer(const lc::LocalGrid& g, const lh::BlockField3D& q) {
  double total = 0.0;
  for (int k = 0; k < g.nz(); ++k)
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.t_active(k, j, i)) total += q.at(k, j, i) * g.area_t(j, i) * g.vertical().dz(k);
  return total;
}

void minmax_tracer(const lc::LocalGrid& g, const lh::BlockField3D& q, double* mn, double* mx) {
  *mn = 1e300;
  *mx = -1e300;
  for (int k = 0; k < g.nz(); ++k)
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.t_active(k, j, i)) {
          *mn = std::min(*mn, q.at(k, j, i));
          *mx = std::max(*mx, q.at(k, j, i));
        }
}

}  // namespace

TEST(Advection, ZeroVelocityIsIdentity) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    set_tracer(g, s.t_cur, 3);
    ex.update(s.t_cur);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);  // u = v = 0
    lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, s.t_new);
    for (int k = 0; k < g.nz(); ++k)
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i)
          ASSERT_DOUBLE_EQ(s.t_new.at(k, j, i), s.t_cur.at(k, j, i));
  });
}

TEST(Advection, ConservesTracerVolumeIntegralExactly) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    set_velocities(g, s, 0.4, 11);
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex.update(s.v_cur, lh::FoldSign::Antisymmetric);
    set_tracer(g, s.t_cur, 5);
    ex.update(s.t_cur);
    double before = total_tracer(g, s.t_cur);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
    lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, s.t_new);
    double after = total_tracer(g, s.t_new);
    // The budget closes exactly up to the free-surface volume term
    // dt * sum(q_surface * w_surface) — the tracer carried by the (closed)
    // lid while eta absorbs the volume change.
    double surface_term = 0.0;
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (g.t_active(0, j, i))
          surface_term += s.t_cur.at(0, j, i) * ws.w_top.at(0, j, i);
    double expected = before - 1440.0 * surface_term;
    EXPECT_NEAR(after / expected, 1.0, 1e-12);
    // And the free-surface term is small relative to the inventory.
    EXPECT_LT(std::fabs(1440.0 * surface_term) / std::fabs(before), 1e-3);
  });
}

TEST(Advection, UniformTracerStaysUniformUnderDivergentFlow) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    set_velocities(g, s, 0.5, 55);
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex.update(s.v_cur, lh::FoldSign::Antisymmetric);
    licomk::kxx::fill(s.t_cur.view(), 7.5);
    s.t_cur.mark_dirty();
    ex.update(s.t_cur);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
    lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, s.t_new);
    for (int k = 0; k < g.nz(); ++k)
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i)
          ASSERT_NEAR(s.t_new.at(k, j, i), 7.5, 1e-11);
  });
}

TEST(Advection, NoNewExtremaUnderRandomVelocities) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    set_velocities(g, s, 0.5, 23);
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex.update(s.v_cur, lh::FoldSign::Antisymmetric);
    set_tracer(g, s.t_cur, 9);
    ex.update(s.t_cur);
    double mn0, mx0, mn1, mx1;
    minmax_tracer(g, s.t_cur, &mn0, &mx0);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
    // Several repeated applications, checking bounds each time.
    for (int it = 0; it < 4; ++it) {
      lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, s.t_new);
      minmax_tracer(g, s.t_new, &mn1, &mx1);
      EXPECT_GE(mn1, mn0 - 1e-10) << "iteration " << it;
      EXPECT_LE(mx1, mx0 + 1e-10) << "iteration " << it;
      std::swap(s.t_cur, s.t_new);
      s.t_cur.mark_dirty();
      ex.update(s.t_cur);
    }
  });
}

TEST(Advection, TransportsBlobDownstream) {
  Fixture fx(8, 6);
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    // Uniform eastward flow wherever active.
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny_total(); ++j)
        for (int i = 0; i < g.nx_total(); ++i)
          s.u_cur.at(k, j, i) = g.u_active(k, j, i) ? 1.0 : 0.0;
    s.u_cur.mark_dirty();
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);

    // Tracer anomaly blob at mid-domain.
    licomk::kxx::fill(s.t_cur.view(), 1.0);
    int jc = kH + g.ny() / 2;
    int ic = kH + g.nx() / 3;
    for (int k = 0; k < 2; ++k)
      for (int dj = -1; dj <= 1; ++dj)
        for (int di = -1; di <= 1; ++di) s.t_cur.at(k, jc + dj, ic + di) = 5.0;
    s.t_cur.mark_dirty();
    ex.update(s.t_cur);

    auto center_i = [&]() {
      double wsum = 0.0, isum = 0.0;
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i)
          if (g.t_active(0, j, i)) {
            double w = s.t_cur.at(0, j, i) - 1.0;
            if (w > 0.05) {
              wsum += w;
              isum += w * i;
            }
          }
      return wsum > 0 ? isum / wsum : 0.0;
    };
    double c0 = center_i();
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
    // 60 x 3 h at 1 m/s ~ 650 km: about one cell on this coarse grid.
    for (int it = 0; it < 60; ++it) {
      lc::advect_tracer_fct(g, 10800.0, s.t_cur, ws, ex, s.t_new);
      std::swap(s.t_cur, s.t_new);
      s.t_cur.mark_dirty();
      ex.update(s.t_cur);
    }
    double c1 = center_i();
    EXPECT_GT(c1, c0 + 0.3);  // blob moved east
  });
}

TEST(Advection, MultiRankMatchesSingleRank) {
  // Reference: 1 rank.
  Fixture fx1(8, 6, 1, 1);
  auto spec = fx1.global->spec();
  std::vector<double> reference;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx1.global, *fx1.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx1.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    set_velocities(g, s, 0.4, 77);
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex.update(s.v_cur, lh::FoldSign::Antisymmetric);
    set_tracer(g, s.t_cur, 31);
    ex.update(s.t_cur);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
    lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, s.t_new);
    reference.resize(static_cast<size_t>(g.nz()) * spec.ny * spec.nx);
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny(); ++j)
        for (int i = 0; i < g.nx(); ++i)
          reference[(static_cast<size_t>(k) * spec.ny + j) * spec.nx + i] =
              s.t_new.at(k, j + kH, i + kH);
  });

  // 2x2 ranks must reproduce the same interior values exactly: the fixture
  // fields are functions of global indices, so every rank builds the same
  // global problem.
  Fixture fx4(8, 6, 2, 2);
  lco::Runtime::run(4, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx4.global, *fx4.dec, c.rank());
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx4.dec, c, c.rank());
    lc::AdvectionWorkspace ws(g);
    const auto& e = g.extent();
    set_velocities(g, s, 0.4, 77);  // same global field as the 1-rank case
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex.update(s.v_cur, lh::FoldSign::Antisymmetric);
    set_tracer(g, s.t_cur, 31);
    ex.update(s.t_cur);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
    lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, s.t_new);
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny(); ++j)
        for (int i = 0; i < g.nx(); ++i) {
          size_t idx = (static_cast<size_t>(k) * spec.ny + (e.j0 + j)) * spec.nx + (e.i0 + i);
          ASSERT_NEAR(s.t_new.at(k, j + kH, i + kH), reference[idx], 1e-12)
              << "rank " << c.rank() << " k=" << k << " j=" << j << " i=" << i;
        }
  });
}

TEST(Advection, WFromContinuityClosesColumns) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    set_velocities(g, s, 0.4, 41);
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex.update(s.v_cur, lh::FoldSign::Antisymmetric);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
    // Below every column's bottom, w is zero; and the stored w at the top of
    // the deepest cell equals the accumulated divergence below (closure).
    for (int j = kH + 1; j < kH + g.ny() - 1; ++j)
      for (int i = kH + 1; i < kH + g.nx() - 1; ++i) {
        int nlev = g.kmt(j, i);
        for (int k = nlev; k < g.nz(); ++k) EXPECT_DOUBLE_EQ(ws.w_top.at(k, j, i), 0.0);
        if (nlev > 0) {
          double div_total = 0.0;
          for (int k = 0; k < nlev; ++k) {
            div_total += ws.flux_e.at(k, j, i) - ws.flux_e.at(k, j, i - 1) +
                         ws.flux_n.at(k, j, i) - ws.flux_n.at(k, j - 1, i);
          }
          EXPECT_NEAR(ws.w_top.at(0, j, i), -div_total, 1e-6);
        }
      }
  });
}

TEST(GentMcWilliams, NoBolusFluxForUniformDensity) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace with_gm(g), without(g);
    licomk::kxx::fill(s.rho.view(), 1.0);  // flat isopycnals => zero slope
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, without);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, with_gm, 1000.0, &s.rho);
    for (size_t n = 0; n < with_gm.flux_e.view().size(); ++n) {
      ASSERT_DOUBLE_EQ(with_gm.flux_e.view().data()[n], without.flux_e.view().data()[n]);
      ASSERT_DOUBLE_EQ(with_gm.flux_n.view().data()[n], without.flux_n.view().data()[n]);
    }
  });
}

TEST(GentMcWilliams, BolusOverturningIntegratesToZeroPerFaceColumn) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace base(g), gm(g);
    // Stably stratified density with a meridional tilt.
    const auto& e = g.extent();
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny_total(); ++j)
        for (int i = 0; i < g.nx_total(); ++i) {
          int gj = e.j0 + (j - kH);
          s.rho.at(k, j, i) = 1.0 + 0.05 * k + 0.002 * gj;
        }
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, base);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, gm, 1000.0, &s.rho);
    int nonzero_faces = 0;
    for (int j = kH; j < kH + g.ny() - 1; ++j)
      for (int i = kH; i < kH + g.nx(); ++i) {
        double column_sum = 0.0;
        double column_abs = 0.0;
        for (int k = 0; k < g.nz(); ++k) {
          double bolus = gm.flux_n.at(k, j, i) - base.flux_n.at(k, j, i);
          column_sum += bolus;
          column_abs += std::fabs(bolus);
        }
        if (column_abs > 0.0) {
          ++nonzero_faces;
          // Pure overturning: the net face-column transport vanishes.
          ASSERT_NEAR(column_sum / column_abs, 0.0, 1e-10) << j << " " << i;
          // Flattening sign: dense water to the north => northward at top.
          double top = gm.flux_n.at(0, j, i) - base.flux_n.at(0, j, i);
          EXPECT_GT(top, 0.0) << j << " " << i;
        }
      }
    EXPECT_GT(nonzero_faces, 50);
  });
}

TEST(GentMcWilliams, FlattensIsopycnalsAndConserves) {
  // GM transport releases available potential energy: the density center of
  // mass sinks while the tracer inventory is exactly conserved (the bolus
  // velocity rides through the same FCT machinery).
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    // Tracer == "density": stably stratified + tilted; advect it with its
    // own GM bolus flow (u = v = 0).
    const auto& e = g.extent();
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny_total(); ++j)
        for (int i = 0; i < g.nx_total(); ++i) {
          int gj = e.j0 + (j - kH);
          double val = 1.0 + 0.05 * k + 0.003 * gj;
          s.rho.at(k, j, i) = val;
          s.t_cur.at(k, j, i) = val;
        }
    s.t_cur.mark_dirty();
    ex.update(s.t_cur);
    auto heavy_depth = [&]() {
      double num = 0.0, den = 0.0;
      for (int k = 0; k < g.nz(); ++k)
        for (int j = kH; j < kH + g.ny(); ++j)
          for (int i = kH; i < kH + g.nx(); ++i)
            if (g.t_active(k, j, i)) {
              double vol = g.area_t(j, i) * g.vertical().dz(k);
              num += s.t_cur.at(k, j, i) * g.vertical().depth(k) * vol;
              den += s.t_cur.at(k, j, i) * vol;
            }
      return num / den;  // tracer-mass-weighted mean depth
    };
    double before_total = total_tracer(g, s.t_cur);
    double depth_before = heavy_depth();
    for (int it = 0; it < 10; ++it) {
      lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws, 2000.0, &s.rho);
      lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, s.t_new);
      std::swap(s.t_cur, s.t_new);
      s.t_cur.mark_dirty();
      ex.update(s.t_cur);
      // Track the evolving "density" so the slopes update.
      for (size_t n = 0; n < s.rho.view().size(); ++n)
        s.rho.view().data()[n] = s.t_cur.view().data()[n];
    }
    EXPECT_NEAR(total_tracer(g, s.t_cur) / before_total, 1.0, 1e-9);
    EXPECT_GT(heavy_depth(), depth_before);  // mass center sank: APE released
  });
}

TEST(Baseline, LegacyRoutineBitIdenticalToKxxPipeline) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex_a(*fx.dec, c, 0), ex_b(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws_a(g), ws_b(g);
    set_velocities(g, s, 0.4, 91);
    ex_a.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex_a.update(s.v_cur, lh::FoldSign::Antisymmetric);
    set_tracer(g, s.t_cur, 17);
    ex_a.update(s.t_cur);

    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws_a);
    lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws_a, ex_a, s.t_new);

    lc::baseline_volume_fluxes(g, s.u_cur, s.v_cur, ws_b);
    lc::baseline_advect_tracer(g, 1440.0, s.t_cur, ws_b, ex_b, s.s_new);

    for (int k = 0; k < g.nz(); ++k)
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i)
          ASSERT_DOUBLE_EQ(s.s_new.at(k, j, i), s.t_new.at(k, j, i))
              << k << " " << j << " " << i;
  });
}

// The fused low-order predictor must reproduce the unfused path bit-for-bit
// at every pack width: the pack lanes evaluate the same expressions in the
// same order as the per-tracer LowOrder kernel, and masked stores leave
// land/halo bytes untouched. The pair (one fused q_td group exchange) is
// also two sequential single-tracer advections (per-field q_td exchanges,
// per-tracer LowOrder predictors), bit for bit. The block has a partial
// i-tail at widths 4 and 8 and a band of still water, where the face fluxes
// and w are exactly zero (the upwind selects' vol > 0 boundary).
TEST(Advection, FusedLowOrderPairBitIdenticalToUnfused) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    lc::AdvectionWorkspace ws(g);
    lc::TracerAdvScratch scratch(g);
    set_velocities(g, s, 0.4, 23);
    for (int k = 0; k < g.nz(); ++k)
      for (int j = kH + 3; j < kH + 7; ++j)
        for (int i = 0; i < g.nx_total(); ++i) {
          s.u_cur.at(k, j, i) = 0.0;
          s.v_cur.at(k, j, i) = 0.0;
        }
    const int lo_extent = g.nx_total() - 2;  // adv_low_order_pair: interior + 1 ring
    for (int w : {4, 8}) ASSERT_NE(lo_extent % w, 0);
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex.update(s.v_cur, lh::FoldSign::Antisymmetric);
    set_tracer(g, s.t_cur, 5);
    set_tracer(g, s.s_cur, 41);
    ex.update(s.t_cur);
    ex.update(s.s_cur);
    lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
    long long w_pos = 0, w_neg = 0, w_zero = 0;  // interior faces k > 0 of sea cells
    for (int k = 1; k < g.nz(); ++k)
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i) {
          if (!g.t_active(k, j, i)) continue;
          const double w = ws.w_top.at(k, j, i);
          (w > 0.0 ? w_pos : w < 0.0 ? w_neg : w_zero) += 1;
        }
    ASSERT_GT(w_pos, 0);
    ASSERT_GT(w_neg, 0);
    ASSERT_GT(w_zero, 0);
    lh::PersistentGroup qtd_group(ex);
    qtd_group.add(ws.q_td);
    qtd_group.add(scratch.q_td);

    lh::BlockField3D t_ref("t_ref", g.extent(), g.nz());
    lh::BlockField3D s_ref("s_ref", g.extent(), g.nz());
    lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, t_ref);
    lc::advect_tracer_fct(g, 1440.0, s.s_cur, ws, ex, s_ref);
    const size_t bytes = t_ref.view().size() * sizeof(double);

    for (int pack : {1, 4, 8}) {
      kxx::set_pack_size(pack);
      lh::BlockField3D t_fused("t_fused", g.extent(), g.nz());
      lh::BlockField3D s_fused("s_fused", g.extent(), g.nz());
      lc::advect_tracer_pair(g, 1440.0, s.t_cur, s.s_cur, ws, scratch, qtd_group, t_fused,
                             s_fused);
      EXPECT_EQ(0, std::memcmp(t_fused.view().data(), t_ref.view().data(), bytes))
          << "pack=" << pack;
      EXPECT_EQ(0, std::memcmp(s_fused.view().data(), s_ref.view().data(), bytes))
          << "pack=" << pack;
    }
    kxx::set_pack_size(LICOMK_PACK_SIZE);
  });
}

// The packed Zalesak limiter (adv_r_factors) and corrector (adv_correct)
// against their pack-width-1 scalar body, byte for byte, on a ragged-kmt
// block. The block covers the surface and bottom planes (where the vertical
// neighbors drop out), a partial i-tail at every pack width (the dispatch
// extents are not multiples of 4 or 8), and anti-diffusive fluxes of both
// signs including exact zeros (land faces and zeroed velocities).
TEST(Advection, PackedLimiterMatchesScalar) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    lh::HaloExchanger ex(*fx.dec, c, 0);
    set_velocities(g, s, 0.4, 31);
    // Exactly still water in a band of rows: zero fluxes inside the ocean.
    for (int k = 0; k < g.nz(); ++k)
      for (int j = kH + 3; j < kH + 6; ++j)
        for (int i = 0; i < g.nx_total(); ++i) {
          s.u_cur.at(k, j, i) = 0.0;
          s.v_cur.at(k, j, i) = 0.0;
        }
    ex.update(s.u_cur, lh::FoldSign::Antisymmetric);
    ex.update(s.v_cur, lh::FoldSign::Antisymmetric);
    set_tracer(g, s.t_cur, 9);
    ex.update(s.t_cur);

    // The block is what the test claims: ragged columns reaching the bottom,
    // and extents with a partial tail at widths 4 and 8.
    int kmt_min = g.nz(), kmt_max = 0, partial = 0;
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i) {
        const int kc = g.kmt(j, i);
        if (kc > 0) kmt_min = std::min(kmt_min, kc);
        kmt_max = std::max(kmt_max, kc);
        if (kc > 0 && kc < g.nz()) ++partial;
      }
    ASSERT_EQ(kmt_max, g.nz());
    ASSERT_LT(kmt_min, g.nz());
    ASSERT_GT(partial, 0);
    const int rf_extent = g.nx_total() - 2;       // adv_r_factors: interior + 1 ring
    const int cr_extent = g.nx_total() - 2 * kH;  // adv_correct: interior
    for (int w : {4, 8}) {
      ASSERT_NE(rf_extent % w, 0);
      ASSERT_NE(cr_extent % w, 0);
    }

    auto run = [&](int pack, lc::AdvectionWorkspace& ws, lh::BlockField3D& out) {
      kxx::set_pack_size(pack);
      lc::compute_volume_fluxes(g, s.u_cur, s.v_cur, ws);
      lc::advect_tracer_fct(g, 1440.0, s.t_cur, ws, ex, out);
    };
    lc::AdvectionWorkspace ref(g);
    lh::BlockField3D q_ref("q_ref", g.extent(), g.nz());
    run(1, ref, q_ref);

    long long pos = 0, neg = 0, zero = 0;
    for (int k = 0; k < g.nz(); ++k)
      for (int j = kH; j < kH + g.ny(); ++j)
        for (int i = kH; i < kH + g.nx(); ++i) {
          if (!g.t_active(k, j, i)) continue;
          const double a = ref.a_e.at(k, j, i);
          (a > 0.0 ? pos : a < 0.0 ? neg : zero) += 1;
        }
    ASSERT_GT(pos, 0);
    ASSERT_GT(neg, 0);
    ASSERT_GT(zero, 0);

    const size_t bytes = q_ref.view().size() * sizeof(double);
    for (int pack : {4, 8}) {
      lc::AdvectionWorkspace ws(g);
      lh::BlockField3D q_out("q_out", g.extent(), g.nz());
      run(pack, ws, q_out);
      EXPECT_EQ(0, std::memcmp(ws.r_plus.view().data(), ref.r_plus.view().data(), bytes))
          << "r_plus pack=" << pack;
      EXPECT_EQ(0, std::memcmp(ws.r_minus.view().data(), ref.r_minus.view().data(), bytes))
          << "r_minus pack=" << pack;
      EXPECT_EQ(0, std::memcmp(q_out.view().data(), q_ref.view().data(), bytes))
          << "q_out pack=" << pack;
    }
    kxx::set_pack_size(LICOMK_PACK_SIZE);
  });
}

namespace {

/// The per-tracer column finisher the fused t+s column replaced, kept here
/// as the reference: one column of one tracer at a time, surface forcing and
/// the shortwave profile evaluated afresh, its own tridiagonal solve.
void reference_tracer_column(const lc::LocalGrid& g, const lc::ModelConfig& cfg,
                             const lc::OceanState& st, int which, double day,
                             lh::BlockField3D& q) {
  const double dt = cfg.grid.dt_tracer;
  const double restore_rate = 1.0 / (cfg.restore_timescale_days * 86400.0);
  const auto& vg = g.vertical();
  const double* dz = vg.thicknesses().data();
  const double* zc = vg.centers().data();
  const double* iface = vg.interfaces().data();
  const lh::BlockField3D& q_old = which == 0 ? st.t_cur : st.s_cur;
  for (int j = kH; j < kH + g.ny(); ++j)
    for (int i = kH; i < kH + g.nx(); ++i) {
      const int nlev = g.kmt(j, i);
      if (nlev == 0) continue;
      std::vector<double> col(static_cast<size_t>(nlev)), kf(static_cast<size_t>(nlev));
      for (int k = 0; k < nlev; ++k) {
        col[static_cast<size_t>(k)] = q.at(k, j, i);
        kf[static_cast<size_t>(k)] = st.kappa_t.at(k, j, i);
      }
      const lc::SurfaceForcing f =
          lc::climatological_forcing(g.lon_view()(j, i), g.lat_view()(j, i), day);
      if (which == 0 && cfg.solar_penetration) {
        const double q0 = f.shortwave / (lc::kRho0 * lc::kCp);
        for (int k = 0; k < nlev; ++k) {
          double absorbed = lc::shortwave_fraction(iface[k]) - lc::shortwave_fraction(iface[k + 1]);
          if (k == nlev - 1) absorbed += lc::shortwave_fraction(iface[nlev]);
          col[static_cast<size_t>(k)] += dt * q0 * absorbed / dz[k];
        }
        col[0] -= dt * q0 / dz[0];
      }
      const double target = which == 0 ? f.sst_target + cfg.sst_target_offset_c : f.sss_target;
      col[0] += dt * restore_rate * (target - q_old.at(0, j, i));
      lc::implicit_vertical_solve(nlev, dt, kf.data(), dz, zc, col.data());
      for (int k = 0; k < nlev; ++k) q.at(k, j, i) = col[static_cast<size_t>(k)];
    }
}

}  // namespace

// The fused t+s column (one dispatch, one shared factorization, forcing once
// per column, shortwave from the per-level table) against two per-tracer
// reference passes, at pack widths 1, 4 and 8, with solar penetration on and
// off.
TEST(TracerColumn, FusedPairMatchesPerTracerPasses) {
  Fixture fx;
  lco::Runtime::run(1, [&](lco::Communicator& c) {
    (void)c;
    lc::LocalGrid g(*fx.global, *fx.dec, 0);
    lc::OceanState s(g);
    set_tracer(g, s.t_cur, 3);
    set_tracer(g, s.s_cur, 4);
    set_tracer(g, s.t_new, 5);
    set_tracer(g, s.s_new, 6);
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 0; j < g.ny_total(); ++j)
        for (int i = 0; i < g.nx_total(); ++i)
          s.kappa_t.at(k, j, i) = 1e-4 + 5e-3 * (1.0 + noise(k, j, i, 77));
    const auto sw = lc::shortwave_fraction_table(g.vertical().interfaces());
    const double day = 200.5;
    const size_t bytes = s.t_new.view().size() * sizeof(double);

    for (bool solar : {true, false}) {
      lc::ModelConfig cfg = lc::ModelConfig::testing(8);
      cfg.solar_penetration = solar;
      cfg.sst_target_offset_c = 0.25;
      lh::BlockField3D t_ref("t_ref", g.extent(), g.nz());
      lh::BlockField3D s_ref("s_ref", g.extent(), g.nz());
      std::memcpy(t_ref.view().data(), s.t_new.view().data(), bytes);
      std::memcpy(s_ref.view().data(), s.s_new.view().data(), bytes);
      reference_tracer_column(g, cfg, s, 0, day, t_ref);
      reference_tracer_column(g, cfg, s, 1, day, s_ref);
      for (int pack : {1, 4, 8}) {
        kxx::set_pack_size(pack);
        lc::OceanState st(g);
        std::memcpy(st.t_cur.view().data(), s.t_cur.view().data(), bytes);
        std::memcpy(st.s_cur.view().data(), s.s_cur.view().data(), bytes);
        std::memcpy(st.t_new.view().data(), s.t_new.view().data(), bytes);
        std::memcpy(st.s_new.view().data(), s.s_new.view().data(), bytes);
        std::memcpy(st.kappa_t.view().data(), s.kappa_t.view().data(), bytes);
        lc::tracer_columns(g, cfg, st, sw, day);
        EXPECT_EQ(0, std::memcmp(st.t_new.view().data(), t_ref.view().data(), bytes))
            << "t pack=" << pack << " solar=" << solar;
        EXPECT_EQ(0, std::memcmp(st.s_new.view().data(), s_ref.view().data(), bytes))
            << "s pack=" << pack << " solar=" << solar;
      }
    }
    kxx::set_pack_size(LICOMK_PACK_SIZE);
  });
}

/// The per-tracer horizontal diffusion the pair kernel replaced, kept as the
/// oracle: HDiffK's scalar body (q_acc += dt_ah * div / (area * dz) at active
/// cells, the flux-form Laplacian divergence with closed land faces and fold
/// seam), and for the biharmonic LapFieldK's Laplacian field over interior +
/// 1 ring first, diffused with -dt * A4.
namespace hdiff_ref {
double lap_div(const lc::LocalGrid& g, const lh::BlockField3D& q, long long seam, int k, int j,
               int i) {
  const double* dz = g.vertical().thicknesses().data();
  auto cond_e = [&](int jj, int ii) {
    if (k >= g.kmt(jj, ii) || k >= g.kmt(jj, ii + 1)) return 0.0;
    return g.dy_u(jj, ii) * dz[k] / g.dx_t(jj, ii);
  };
  auto cond_n = [&](int jj, int ii) {
    if (jj == seam || k >= g.kmt(jj, ii) || k >= g.kmt(jj + 1, ii)) return 0.0;
    return g.dx_u(jj, ii) * dz[k] / g.dy_t(jj, ii);
  };
  return cond_e(j, i) * (q.at(k, j, i + 1) - q.at(k, j, i)) -
         cond_e(j, i - 1) * (q.at(k, j, i) - q.at(k, j, i - 1)) +
         cond_n(j, i) * (q.at(k, j + 1, i) - q.at(k, j, i)) -
         cond_n(j - 1, i) * (q.at(k, j, i) - q.at(k, j - 1, i));
}

void diffuse(const lc::LocalGrid& g, const lc::ModelConfig& cfg, const lh::BlockField3D& q_cur,
             lh::BlockField3D& q_acc) {
  const auto& gh = g.global().h();
  const double dx_mean = gh.dx_t(gh.ny() / 2, gh.nx() / 2);
  const double dt = cfg.grid.dt_tracer;
  const long long seam = g.seam_row() >= 0 ? g.seam_row() : -2;
  const double* dz = g.vertical().thicknesses().data();
  const lh::BlockField3D* q = &q_cur;
  double coeff = dt * cfg.effective_diffusivity(dx_mean);
  lh::BlockField3D lap("lap", g.extent(), g.nz());
  if (cfg.hmix == lc::HMixScheme::Biharmonic) {
    for (int k = 0; k < g.nz(); ++k)
      for (int j = 1; j < g.ny_total() - 1; ++j)
        for (int i = 1; i < g.nx_total() - 1; ++i)
          lap.at(k, j, i) = k >= g.kmt(j, i) ? 0.0
                                              : lap_div(g, q_cur, seam, k, j, i) /
                                                    (g.area_t(j, i) * dz[k]);
    q = &lap;
    coeff = -dt * cfg.effective_biharmonic(dx_mean);
  }
  for (int k = 0; k < g.nz(); ++k)
    for (int j = kH; j < kH + g.ny(); ++j)
      for (int i = kH; i < kH + g.nx(); ++i)
        if (k < g.kmt(j, i))
          q_acc.at(k, j, i) += coeff * lap_div(g, *q, seam, k, j, i) / (g.area_t(j, i) * dz[k]);
}
}  // namespace hdiff_ref

// The tracer step's horizontal diffusion — one trc_hdiff_pair dispatch for
// t and s, after two trc_lap_field dispatches for the biharmonic — for both
// schemes: the strict AthreadSim run (staged through LDM), the Serial run at
// pack widths 1, 4 and 8, and the per-tracer oracle agree byte for byte in
// t_new and s_new. Covered: the whole 1-rank block and both blocks of a
// 2-rank split, ragged kmt, partial i-tails at every pack width, and the
// closed fold seam row (every block spans the north edge).
TEST(TracerHDiff, FusedPairMatchesPerTracerOracle) {
  namespace tel = licomk::telemetry;
  for (lc::HMixScheme hmix : {lc::HMixScheme::Laplacian, lc::HMixScheme::Biharmonic}) {
    lc::ModelConfig cfg = lc::ModelConfig::testing(8);
    cfg.hmix = hmix;
    const char* scheme = hmix == lc::HMixScheme::Laplacian ? "laplacian" : "biharmonic";
    for (int px : {1, 2}) {
      Fixture fx(8, 8, px, 1);
      for (int rank = 0; rank < px; ++rank) {
        lc::LocalGrid g(*fx.global, *fx.dec, rank);
        ASSERT_GE(g.seam_row(), 0) << "px=" << px << " rank=" << rank;
        ASSERT_NE(g.nx() % 4, 0) << "px=" << px << " rank=" << rank;
        int kmin = g.nz(), kmax = 0;
        for (int j = kH; j < kH + g.ny(); ++j)
          for (int i = kH; i < kH + g.nx(); ++i)
            if (g.kmt(j, i) > 0) {
              kmin = std::min(kmin, g.kmt(j, i));
              kmax = std::max(kmax, g.kmt(j, i));
            }
        ASSERT_LT(kmin, kmax) << "flat bottom: kmt is not ragged";

        lc::OceanState s(g);
        set_tracer(g, s.t_cur, 11);
        set_tracer(g, s.s_cur, 12);
        set_tracer(g, s.t_new, 13);
        set_tracer(g, s.s_new, 14);
        const size_t bytes = s.t_new.view().size() * sizeof(double);
        auto run = [&](lh::BlockField3D& t_out, lh::BlockField3D& s_out) {
          lc::OceanState st(g);
          lc::AdvectionWorkspace ws(g);
          std::memcpy(st.t_cur.view().data(), s.t_cur.view().data(), bytes);
          std::memcpy(st.s_cur.view().data(), s.s_cur.view().data(), bytes);
          std::memcpy(st.t_new.view().data(), s.t_new.view().data(), bytes);
          std::memcpy(st.s_new.view().data(), s.s_new.view().data(), bytes);
          lc::tracer_hdiff(g, cfg, st, ws);
          std::memcpy(t_out.view().data(), st.t_new.view().data(), bytes);
          std::memcpy(s_out.view().data(), st.s_new.view().data(), bytes);
        };

        lh::BlockField3D t_ref("t_ref", g.extent(), g.nz());
        lh::BlockField3D s_ref("s_ref", g.extent(), g.nz());
        std::memcpy(t_ref.view().data(), s.t_new.view().data(), bytes);
        std::memcpy(s_ref.view().data(), s.s_new.view().data(), bytes);
        hdiff_ref::diffuse(g, cfg, s.t_cur, t_ref);
        hdiff_ref::diffuse(g, cfg, s.s_cur, s_ref);

        lh::BlockField3D t_out("t_out", g.extent(), g.nz());
        lh::BlockField3D s_out("s_out", g.extent(), g.nz());
        kxx::initialize({kxx::Backend::AthreadSim, 1, /*athread_strict=*/true});
        tel::set_enabled(true);
        tel::reset();
        run(t_out, s_out);
        EXPECT_GT(tel::span_counter_value("trc_hdiff_pair", "dma.transfers"), 0u) << scheme;
        EXPECT_EQ(0u, tel::counter_value("kxx.ldm_stage_fallbacks")) << scheme;
        tel::reset();
        tel::set_enabled(false);
        EXPECT_EQ(0, std::memcmp(t_out.view().data(), t_ref.view().data(), bytes))
            << "t " << scheme << " px=" << px << " rank=" << rank << " athread";
        EXPECT_EQ(0, std::memcmp(s_out.view().data(), s_ref.view().data(), bytes))
            << "s " << scheme << " px=" << px << " rank=" << rank << " athread";

        kxx::initialize({kxx::Backend::Serial, 1, false});
        for (int pack : {1, 4, 8}) {
          kxx::set_pack_size(pack);
          run(t_out, s_out);
          EXPECT_EQ(0, std::memcmp(t_out.view().data(), t_ref.view().data(), bytes))
              << "t " << scheme << " px=" << px << " rank=" << rank << " pack=" << pack;
          EXPECT_EQ(0, std::memcmp(s_out.view().data(), s_ref.view().data(), bytes))
              << "s " << scheme << " px=" << px << " rank=" << rank << " pack=" << pack;
        }
        kxx::set_pack_size(LICOMK_PACK_SIZE);
      }
    }
  }
}
