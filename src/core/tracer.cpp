#include "core/tracer.hpp"

#include <cmath>
#include <vector>

#include "core/column_solve.hpp"
#include "core/constants.hpp"
#include "core/field_ref.hpp"
#include "core/forcing.hpp"
#include "kxx/kxx.hpp"
#include "util/error.hpp"

namespace licomk::core {
namespace trc {

/// Flux-form Laplacian divergence of q at an active cell, LapFieldK's stencil
/// (`f` supplies kmt, the metrics, dz and seam_j); FusedHDiffPairK evaluates
/// the same expression. Face conductances are zero across land faces and the
/// closed fold seam.
template <typename K>
double laplacian_div(const K& f, const CF3& q, long long k, long long j, long long i) {
  auto cond_e = [&](long long jj, long long ii) {
    if (k >= f.kmt(jj, ii) || k >= f.kmt(jj, ii + 1)) return 0.0;
    return f.dyu(jj, ii) * f.dz[k] / f.dxt(jj, ii);
  };
  auto cond_n = [&](long long jj, long long ii) {
    if (jj == f.seam_j || k >= f.kmt(jj, ii) || k >= f.kmt(jj + 1, ii)) return 0.0;
    return f.dxu(jj, ii) * f.dz[k] / f.dyt(jj, ii);
  };
  return cond_e(j, i) * (q(k, j, i + 1) - q(k, j, i)) -
         cond_e(j, i - 1) * (q(k, j, i) - q(k, j, i - 1)) +
         cond_n(j, i) * (q(k, j + 1, i) - q(k, j, i)) -
         cond_n(j - 1, i) * (q(k, j, i) - q(k, j - 1, i));
}

/// Flux-form horizontal diffusion of BOTH tracers in one sweep, added onto
/// the advected fields: qa_acc += dt_ah * div(q) / (area * dz) with the
/// laplacian_div stencil (no flux across land faces). The face conductances
/// depend only on geometry and k, so they are computed once for t and s.
/// The Laplacian passes t_cur/s_cur; the biharmonic passes the two
/// LapFieldK fields with dt_ah = -dt * A4. On AthreadSim the scalar body
/// stages through LDM (kxx_access).
struct FusedHDiffPairK {
  CI2 kmt;
  CF2 dxt, dyt, dxu, dyu, area;
  CF3 qa, qb;      ///< diffused fields of t and s (time level n, or its Laplacian)
  F3 qa_acc, qb_acc;  ///< advected fields, incremented in place
  const double* dz = nullptr;
  double dt_ah = 0.0;
  long long seam_j = -2;

  void kxx_access(kxx::AccessSpec& a) const {
    a.in(qa).halo(1, 1, 1).halo(2, 1, 1);
    a.in(qb).halo(1, 1, 1).halo(2, 1, 1);
    a.inout(qa_acc);
    a.inout(qb_acc);
  }

  void operator()(long long k, long long j, long long i) const {
    pack_op<1>(k, j, i, kxx::Mask<1>::all_true());
  }

  /// Packed form, dispatched on the plain i-tail mask (no LevelsRef), and
  /// through pack_op<1> the scalar body (pack width 1). With a full tail
  /// every lane address — including the ±1 stencil neighbors — is inside the
  /// dense allocation, so all loads are unmasked, and every neighbor is
  /// multiplied by a zero conductance at land/below-bottom faces, so dead
  /// lanes compute discarded products. Partial-column masking reduces to
  /// selected conductances plus an `act` select of the read-modify-write
  /// store (dead lanes write back the value they read); partial tails (at
  /// most one pack per row) fall back to pack_op<1> per live lane.
  template <int N>
  void pack_op(long long k, long long j, long long i0, const kxx::Mask<N>& tail) const {
    using P = kxx::Pack<double, N>;
    if constexpr (N > 1) {
      if (!tail.all()) {
        for (int l = 0; l < N; ++l)
          if (tail[l]) pack_op<1>(k, j, i0 + l, kxx::Mask<1>::all_true());
        return;
      }
    }
    // A face is open when the cell across it is wet (and it is not the fold
    // seam); a dead lane's conductances only feed the value the final
    // select discards, so the face masks need not include `act`.
    kxx::Mask<N> act, me, mw, mn, ms;
    const bool open_n = j != seam_j;
    const bool open_s = j - 1 != seam_j;
    for (int l = 0; l < N; ++l) {
      const long long i = i0 + l;
      act.set(l, k < kmt(j, i));
      me.set(l, k < kmt(j, i + 1));
      mw.set(l, k < kmt(j, i - 1));
      mn.set(l, open_n & (k < kmt(j + 1, i)));
      ms.set(l, open_s & (k < kmt(j - 1, i)));
    }
    if (act.none()) return;
    const double dzk = dz[k];
    const P zero(0.0);
    const P ce = kxx::select(
        me, kxx::pack_load<N>(dyu.ptr(j, i0)) * dzk / kxx::pack_load<N>(dxt.ptr(j, i0)), zero);
    const P cw = kxx::select(
        mw, kxx::pack_load<N>(dyu.ptr(j, i0 - 1)) * dzk / kxx::pack_load<N>(dxt.ptr(j, i0 - 1)),
        zero);
    const P cn = kxx::select(
        mn, kxx::pack_load<N>(dxu.ptr(j, i0)) * dzk / kxx::pack_load<N>(dyt.ptr(j, i0)), zero);
    const P cs = kxx::select(
        ms, kxx::pack_load<N>(dxu.ptr(j - 1, i0)) * dzk / kxx::pack_load<N>(dyt.ptr(j - 1, i0)),
        zero);
    const P denom = kxx::pack_load<N>(area.ptr(j, i0)) * dzk;

    const P qa_c = kxx::pack_load<N>(qa.ptr(k, j, i0));
    const P qa_e = kxx::pack_load<N>(qa.ptr(k, j, i0 + 1));
    const P qa_w = kxx::pack_load<N>(qa.ptr(k, j, i0 - 1));
    const P qa_n = kxx::pack_load<N>(qa.ptr(k, j + 1, i0));
    const P qa_s = kxx::pack_load<N>(qa.ptr(k, j - 1, i0));
    const P div_a = ce * (qa_e - qa_c) - cw * (qa_c - qa_w) + cn * (qa_n - qa_c) -
                    cs * (qa_c - qa_s);
    const P acc_a = kxx::pack_load<N>(qa_acc.ptr(k, j, i0));
    kxx::pack_store<N>(qa_acc.ptr(k, j, i0),
                       kxx::select(act, acc_a + dt_ah * div_a / denom, acc_a));

    const P qb_c = kxx::pack_load<N>(qb.ptr(k, j, i0));
    const P qb_e = kxx::pack_load<N>(qb.ptr(k, j, i0 + 1));
    const P qb_w = kxx::pack_load<N>(qb.ptr(k, j, i0 - 1));
    const P qb_n = kxx::pack_load<N>(qb.ptr(k, j + 1, i0));
    const P qb_s = kxx::pack_load<N>(qb.ptr(k, j - 1, i0));
    const P div_b = ce * (qb_e - qb_c) - cw * (qb_c - qb_w) + cn * (qb_n - qb_c) -
                    cs * (qb_c - qb_s);
    const P acc_b = kxx::pack_load<N>(qb_acc.ptr(k, j, i0));
    kxx::pack_store<N>(qb_acc.ptr(k, j, i0),
                       kxx::select(act, acc_b + dt_ah * div_b / denom, acc_b));
  }
};

/// First pass of the biharmonic operator: the flux-form Laplacian of q as a
/// FIELD (not an increment). The second pass is FusedHDiffPairK on the two
/// tracers' fields with a negative coefficient: dq/dt = -A4 * lap(lap(q)).
/// Two ghost layers make the whole ∇⁴ stencil computable without an extra
/// halo exchange: this pass runs on interior + 1 ring, the second on the
/// interior.
struct LapFieldK {
  CI2 kmt;
  CF2 dxt, dyt, dxu, dyu, area;
  CF3 q;
  F3 lap;
  const double* dz = nullptr;
  long long seam_j = -2;

  void operator()(long long k, long long j, long long i) const {
    if (k >= kmt(j, i)) {
      lap(k, j, i) = 0.0;
      return;
    }
    lap(k, j, i) = laplacian_div(*this, q, k, j, i) / (area(j, i) * dz[k]);
  }
};

/// Column finisher for BOTH tracers: penetrating shortwave (temperature),
/// surface restoring, and implicit vertical diffusion of t and s against one
/// shared factorization of the kappa_t system (column_solve.hpp). The surface
/// forcing is evaluated once per column, and the shortwave profile is read
/// from a per-level table. Packed across i — lane l carries column i0 + l to
/// its own depth kmt — and the scalar body is pack_op<1> (AthreadSim, pack
/// width 1, partial i-tails). Each lane performs a per-tracer scalar column's
/// FP ops in its order, so every width is bit-identical.
struct TracerPairColumnK {
  CI2 kmt;
  CF2 lon, lat;
  CF3 kappa_t, t_old, s_old;  ///< pre-step tracers (time level n) for restoring
  F3 t, s;                    ///< advected+diffused fields, solved in place
  const double* dz = nullptr;
  const double* zc = nullptr;
  const double* sw_frac = nullptr;  ///< nz+1 entries: shortwave_fraction(iface[k])
  double dt = 0.0;
  double restore_rate = 0.0;  ///< 1/s
  double day_of_year = 0.0;
  int solar = 0;  ///< Jerlov shortwave penetration (temperature only)
  /// Heat-flux ensemble perturbation: offset on the SST restoring target
  /// (the restoring term IS the surface heat flux; shortwave is
  /// redistributive over the column, so this is the effective flux knob).
  double sst_offset_c = 0.0;

  void operator()(long long j, long long i) const {
    pack_op<1>(j, i, kxx::Mask<1>::all_true());
  }

  template <int N>
  void pack_op(long long j, long long i0, const kxx::Mask<N>& tail) const {
    if constexpr (N > 1) {
      if (!tail.all()) {
        // Partial i-tail: lanes past the extent must not be read or written.
        for (int l = 0; l < N; ++l)
          if (tail[l]) pack_op<1>(j, i0 + l, kxx::Mask<1>::all_true());
        return;
      }
    }
    int nlev[N];
    int nmax = 0;
    for (int l = 0; l < N; ++l) {
      nlev[l] = kmt(j, i0 + l);
      nmax = nlev[l] > nmax ? nlev[l] : nmax;
    }
    if (nmax == 0) return;
    using P = kxx::Pack<double, N>;
    double tc[kMaxLevels * N];
    double sc[kMaxLevels * N];
    double kf[kMaxLevels * N];
    for (int k = 0; k < nmax; ++k) {
      kxx::pack_store<N>(tc + k * N, kxx::pack_load<N>(t.ptr(k, j, i0)));
      kxx::pack_store<N>(sc + k * N, kxx::pack_load<N>(s.ptr(k, j, i0)));
      kxx::pack_store<N>(kf + k * N, kxx::pack_load<N>(kappa_t.ptr(k, j, i0)));
    }
    // Surface forcing once per column, for both tracers (lane-scalar: the
    // climatology is branchy transcendental code).
    P sst, sss, q0;  // q0 in K m / s
    for (int l = 0; l < N; ++l) {
      if (nlev[l] == 0) continue;
      const SurfaceForcing f = climatological_forcing(lon(j, i0 + l), lat(j, i0 + l), day_of_year);
      sst[l] = f.sst_target + sst_offset_c;
      sss[l] = f.sss_target;
      q0[l] = f.shortwave / (kRho0 * kCp);
    }

    if (solar != 0) {
      // Penetrating shortwave: the Jerlov profile deposits heat through the
      // upper ocean. The column-integrated surface balance (longwave/latent
      // cooling vs insolation) is already folded into the restoring target,
      // so the whole flux is withdrawn from the top cell again — the term is
      // purely redistributive (column heat change is exactly zero) but warms
      // the subsurface, the physical effect the profile exists to capture.
      const P dq = dt * q0;
      for (int k = 0; k < nmax; ++k) {
        const double absorbed = sw_frac[k] - sw_frac[k + 1];
        const double bottom = absorbed + sw_frac[k + 1];  // bottom cell absorbs the rest
        kxx::Mask<N> last;
        for (int l = 0; l < N; ++l) last.set(l, k == nlev[l] - 1);
        const P a = kxx::select(last, P(bottom), P(absorbed));
        kxx::pack_store<N>(tc + k * N, kxx::pack_load<N>(tc + k * N) + dq * a / dz[k]);
      }
      kxx::pack_store<N>(tc, kxx::pack_load<N>(tc) - dq / dz[0]);
    }

    // Surface restoring enters as an explicit source in the top cell.
    const double rr = dt * restore_rate;
    kxx::pack_store<N>(tc, kxx::pack_load<N>(tc) +
                               rr * (sst - kxx::pack_load<N>(t_old.ptr(0, j, i0))));
    kxx::pack_store<N>(sc, kxx::pack_load<N>(sc) +
                               rr * (sss - kxx::pack_load<N>(s_old.ptr(0, j, i0))));
    double* const ts[2] = {tc, sc};
    implicit_vertical_solve_packed<N, 2>(nlev, dt, kf, dz, zc, ts);
    for (int k = 0; k < nmax; ++k) {
      kxx::Mask<N> live;
      for (int l = 0; l < N; ++l) live.set(l, k < nlev[l]);
      kxx::pack_store<N>(t.ptr(k, j, i0), kxx::select(live, kxx::pack_load<N>(tc + k * N),
                                                      kxx::pack_load<N>(t.ptr(k, j, i0))));
      kxx::pack_store<N>(s.ptr(k, j, i0), kxx::select(live, kxx::pack_load<N>(sc + k * N),
                                                      kxx::pack_load<N>(s.ptr(k, j, i0))));
    }
  }
};

}  // namespace trc
}  // namespace licomk::core

KXX_REGISTER_FOR_3D(trc_hdiff_pair, licomk::core::trc::FusedHDiffPairK);
KXX_REGISTER_FOR_3D(trc_lap_field, licomk::core::trc::LapFieldK);
KXX_REGISTER_FOR_2D(trc_column, licomk::core::trc::TracerPairColumnK);

namespace licomk::core {

void tracer_columns(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                    const std::vector<double>& sw_frac, double day_of_year) {
  LICOMK_REQUIRE(g.nz() <= kMaxLevels, "column deeper than kMaxLevels");
  LICOMK_REQUIRE(sw_frac.size() == static_cast<size_t>(g.nz()) + 1,
                 "shortwave table needs nz + 1 interface values");
  const int h = decomp::kHaloWidth;
  trc::TracerPairColumnK tc{cref(g.kmt_view()),
                            cref(g.lon_view()),
                            cref(g.lat_view()),
                            cref(state.kappa_t),
                            cref(state.t_cur),
                            cref(state.s_cur),
                            mref(state.t_new),
                            mref(state.s_new),
                            g.vertical().thicknesses().data(),
                            g.vertical().centers().data(),
                            sw_frac.data(),
                            cfg.grid.dt_tracer,
                            1.0 / (cfg.restore_timescale_days * 86400.0),
                            day_of_year,
                            cfg.solar_penetration ? 1 : 0,
                            cfg.sst_target_offset_c};
  kxx::parallel_for_packed("trc_column",
                           kxx::MDRangePolicy2({h, h}, {h + g.ny(), h + g.nx()}), tc);
  state.t_new.mark_dirty();
  state.s_new.mark_dirty();
}

void tracer_hdiff(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                  AdvectionWorkspace& ws) {
  const int h = decomp::kHaloWidth;
  const double dt = cfg.grid.dt_tracer;
  // Global representative spacing (decomposition-independent physics).
  const auto& gh = g.global().h();
  const double dx_mean = gh.dx_t(gh.ny() / 2, gh.nx() / 2);
  const long long seam = g.seam_row() >= 0 ? g.seam_row() : -2;
  // Single-plane tiles for the LDM-staged AthreadSim dispatch (see dynamics.cpp).
  kxx::MDRangePolicy3 interior3({0, h, h}, {g.nz(), h + g.ny(), h + g.nx()}, {1, 4, 64});
  const halo::BlockField3D* qa = &state.t_cur;
  const halo::BlockField3D* qb = &state.s_cur;
  double coeff = dt * cfg.effective_diffusivity(dx_mean);
  if (cfg.hmix == HMixScheme::Biharmonic) {
    // lap(t) and lap(s) over interior + 1 ring, then -A4 * lap(lap(q)).
    if (!ws.hmix_lap.view().valid()) {
      ws.hmix_lap = halo::BlockField3D("hmix_lap", g.extent(), g.nz());
      ws.hmix_lap_s = halo::BlockField3D("hmix_lap_s", g.extent(), g.nz());
    }
    kxx::MDRangePolicy3 ring1({0, 1, 1}, {g.nz(), g.ny_total() - 1, g.nx_total() - 1});
    auto laplacian = [&](const halo::BlockField3D& q, halo::BlockField3D& lap) {
      trc::LapFieldK lf{cref(g.kmt_view()), cref(g.dxt_view()), cref(g.dyt_view()),
                        cref(g.dxu_view()), cref(g.dyu_view()), cref(g.area_view()),
                        cref(q),            mref(lap),
                        g.vertical().thicknesses().data(), seam};
      kxx::parallel_for("trc_lap_field", ring1, lf);
    };
    laplacian(state.t_cur, ws.hmix_lap);
    laplacian(state.s_cur, ws.hmix_lap_s);
    qa = &ws.hmix_lap;
    qb = &ws.hmix_lap_s;
    coeff = -dt * cfg.effective_biharmonic(dx_mean);
  }
  trc::FusedHDiffPairK hp{cref(g.kmt_view()), cref(g.dxt_view()), cref(g.dyt_view()),
                          cref(g.dxu_view()), cref(g.dyu_view()), cref(g.area_view()),
                          cref(*qa),          cref(*qb),
                          mref(state.t_new),  mref(state.s_new),
                          g.vertical().thicknesses().data(), coeff, seam};
  kxx::parallel_for_packed("trc_hdiff_pair", interior3, hp);
  // Elided: the second tracer's re-reads of the 2-D metrics/mask (5 doubles +
  // 3 kmt probes per face pair, counted as the five metric planes).
  kxx::note_fusion_views_elided(5LL * g.ny() * g.nx() *
                                static_cast<long long>(sizeof(double)));
}

void tracer_step(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                 AdvectionWorkspace& ws, TracerAdvScratch& scratch,
                 halo::PersistentGroup& qtd_group, const std::vector<double>& sw_frac,
                 double day_of_year) {
  compute_volume_fluxes(g, state.u_cur, state.v_cur, ws, cfg.gm_kappa, &state.rho);
  advect_tracer_pair(g, cfg.grid.dt_tracer, state.t_cur, state.s_cur, ws, scratch, qtd_group,
                     state.t_new, state.s_new);
  tracer_hdiff(g, cfg, state, ws);
  // Both tracers' columns in one packed sweep: the horizontal diffusion
  // passes above touch only their own tracer, so running both before the
  // columns (instead of interleaving per tracer) changes no bits.
  tracer_columns(g, cfg, state, sw_frac, day_of_year);
}

}  // namespace licomk::core
