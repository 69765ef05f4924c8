#include "core/dynamics.hpp"

#include <algorithm>
#include <cmath>

#include "core/column_solve.hpp"
#include "core/constants.hpp"
#include "core/eos.hpp"
#include "core/field_ref.hpp"
#include "core/forcing.hpp"
#include "halo/exchange_group.hpp"
#include "kxx/kxx.hpp"

namespace licomk::core {

namespace dyn {

struct DensityK {
  CI2 kmt;
  CF3 t, s;
  F3 rho;
  const double* zc = nullptr;
  int linear = 0;
  void operator()(long long k, long long j, long long i) const {
    if (k >= kmt(j, i)) return;
    rho(k, j, i) = density(linear != 0, t(k, j, i), s(k, j, i), zc[k]);
  }
};

struct PressureK {
  CI2 kmt;
  CF3 rho;
  CF2 eta;  ///< unused by the integral; kept so the kernel signature matches
            ///< the readyt call shape (the surface slope force belongs to the
            ///< barotropic sub-system only — including g*eta here would
            ///< double-count it against barotr's -g*grad(eta)).
  F3 p;
  const double* zc = nullptr;
  const double* dz = nullptr;
  void operator()(long long j, long long i) const {
    int nlev = kmt(j, i);
    if (nlev == 0) return;
    double pk = kGravity * rho(0, j, i) * 0.5 * dz[0] / kRho0;
    p(0, j, i) = pk;
    for (int k = 1; k < nlev; ++k) {
      double dzc = zc[k] - zc[k - 1];
      pk += kGravity * 0.5 * (rho(k - 1, j, i) + rho(k, j, i)) * dzc / kRho0;
      p(k, j, i) = pk;
    }
  }
};

struct TendencyK {
  CI2 kmu;
  CF2 dxu, dyu, lon, lat;
  CF3 u, v, p;
  F3 fu, fv;
  const double* dz = nullptr;
  double viscosity = 0.0;
  double day_of_year = 0.0;
  double bottom_drag = 5.0e-4;  ///< linear drag velocity, m/s
  double wind_scale = 1.0;      ///< ensemble wind-stress perturbation factor

  /// LDM staging footprint: u/v carry the full ±1 horizontal stencil, p is
  /// read at (j..j+1, i..i+1); fu/fv are written at every dispatched index
  /// (0.0 below the column bottom). 2-D metrics/masks stay unstaged.
  void kxx_access(kxx::AccessSpec& a) const {
    a.in(u).halo(1, 1, 1).halo(2, 1, 1);
    a.in(v).halo(1, 1, 1).halo(2, 1, 1);
    a.in(p).halo(1, 0, 1).halo(2, 0, 1);
    a.out(fu);
    a.out(fv);
  }

  void operator()(long long k, long long j, long long i) const {
    if (k >= kmu(j, i)) {
      fu(k, j, i) = 0.0;
      fv(k, j, i) = 0.0;
      return;
    }
    double inv_dx = 1.0 / dxu(j, i);
    double inv_dy = 1.0 / dyu(j, i);

    // Baroclinic + surface pressure gradient, averaged from the four
    // surrounding T cells onto the corner.
    double dpdx =
        0.5 * ((p(k, j, i + 1) + p(k, j + 1, i + 1)) - (p(k, j, i) + p(k, j + 1, i))) * inv_dx;
    double dpdy =
        0.5 * ((p(k, j + 1, i) + p(k, j + 1, i + 1)) - (p(k, j, i) + p(k, j, i + 1))) * inv_dy;

    // Centered horizontal advection of momentum.
    double uc = u(k, j, i);
    double vc = v(k, j, i);
    double dudx = 0.5 * (u(k, j, i + 1) - u(k, j, i - 1)) * inv_dx;
    double dudy = 0.5 * (u(k, j + 1, i) - u(k, j - 1, i)) * inv_dy;
    double dvdx = 0.5 * (v(k, j, i + 1) - v(k, j, i - 1)) * inv_dx;
    double dvdy = 0.5 * (v(k, j + 1, i) - v(k, j - 1, i)) * inv_dy;

    // Laplacian horizontal viscosity.
    double lap_u = (u(k, j, i + 1) - 2.0 * uc + u(k, j, i - 1)) * inv_dx * inv_dx +
                   (u(k, j + 1, i) - 2.0 * uc + u(k, j - 1, i)) * inv_dy * inv_dy;
    double lap_v = (v(k, j, i + 1) - 2.0 * vc + v(k, j, i - 1)) * inv_dx * inv_dx +
                   (v(k, j + 1, i) - 2.0 * vc + v(k, j - 1, i)) * inv_dy * inv_dy;

    double gu = -dpdx - (uc * dudx + vc * dudy) + viscosity * lap_u;
    double gv = -dpdy - (uc * dvdx + vc * dvdy) + viscosity * lap_v;

    if (k == 0) {  // wind stress enters the top layer
      SurfaceForcing f = climatological_forcing(lon(j, i), lat(j, i), day_of_year);
      gu += wind_scale * f.tau_x / (kRho0 * dz[0]);
      gv += wind_scale * f.tau_y / (kRho0 * dz[0]);
    }
    if (k == kmu(j, i) - 1) {  // linear bottom drag in the deepest layer
      gu -= bottom_drag * uc / dz[k];
      gv -= bottom_drag * vc / dz[k];
    }
    fu(k, j, i) = gu;
    fv(k, j, i) = gv;
  }
};

struct VertMeanK {
  CI2 kmu;
  CF3 x;
  F2 out;
  const double* dz = nullptr;
  void operator()(long long j, long long i) const {
    int nlev = kmu(j, i);
    if (nlev == 0) {
      out(j, i) = 0.0;
      return;
    }
    double num = 0.0;
    double den = 0.0;
    for (int k = 0; k < nlev; ++k) {
      num += x(k, j, i) * dz[k];
      den += dz[k];
    }
    out(j, i) = num / den;
  }
};

/// Fused readyt (density + hydrostatic pressure) in one column sweep: ρ(k)
/// is computed once, stored (GM bolus still reads the View), and consumed by
/// the pressure integral FROM THE REGISTER — the unfused PressureK's full
/// re-read of rho is elided. Bit-identity: the stored double and the register
/// hold the same value, and the integral below is textually the PressureK
/// expression, so every FP op matches the unfused chain.
struct FusedDensityPressureK {
  CI2 kmt;
  CF3 t, s;
  F3 rho;
  F3 p;
  const double* zc = nullptr;
  const double* dz = nullptr;
  int linear = 0;

  void operator()(long long j, long long i) const {
    const int nlev = kmt(j, i);
    if (nlev == 0) return;
    double rk = density(linear != 0, t(0, j, i), s(0, j, i), zc[0]);
    rho(0, j, i) = rk;
    double pk = kGravity * rk * 0.5 * dz[0] / kRho0;
    p(0, j, i) = pk;
    for (int k = 1; k < nlev; ++k) {
      double rprev = rk;
      rk = density(linear != 0, t(k, j, i), s(k, j, i), zc[k]);
      rho(k, j, i) = rk;
      double dzc = zc[k] - zc[k - 1];
      pk += kGravity * 0.5 * (rprev + rk) * dzc / kRho0;
      p(k, j, i) = pk;
    }
  }

  /// Packed form: N adjacent columns advance level-by-level. The EOS stays
  /// lane-scalar (branchy polynomial); the integral uses Pack ops, whose
  /// lane order is the scalar order. Per-level masking is hoisted out of the
  /// loop: the uniform prefix k < min(nlev) runs mask-free with unmasked
  /// loads/stores (every lane is live, so every address is in-bounds), and
  /// each deeper column is finished by the scalar recurrence seeded from the
  /// prefix registers. Packs holding a dead lane (land or tail) delegate to
  /// the scalar body per live lane — per-level mask bookkeeping there costs
  /// more than the vector integral saves.
  template <int N>
  void pack_op(long long j, long long i0, const kxx::Mask<N>& cols) const {
    int nlev[N];
    int nmin = 1 << 30;
    for (int l = 0; l < N; ++l) {
      nlev[l] = cols[l] ? kmt(j, i0 + l) : 0;
      nmin = nlev[l] < nmin ? nlev[l] : nmin;
    }
    if (nmin == 0) {
      for (int l = 0; l < N; ++l)
        if (nlev[l] > 0) (*this)(j, i0 + l);
      return;
    }
    kxx::Pack<double, N> rk, pk;
    for (int k = 0; k < nmin; ++k) {
      const kxx::Pack<double, N> tv = kxx::pack_load<N>(t.ptr(k, j, i0));
      const kxx::Pack<double, N> sv = kxx::pack_load<N>(s.ptr(k, j, i0));
      kxx::Pack<double, N> rnew;
      for (int l = 0; l < N; ++l) rnew[l] = density(linear != 0, tv[l], sv[l], zc[k]);
      if (k == 0) {
        rk = rnew;
        pk = kGravity * rk * 0.5 * dz[0] / kRho0;
      } else {
        double dzc = zc[k] - zc[k - 1];
        pk += kGravity * 0.5 * (rk + rnew) * dzc / kRho0;
        rk = rnew;
      }
      kxx::pack_store<N>(rho.ptr(k, j, i0), rk);
      kxx::pack_store<N>(p.ptr(k, j, i0), pk);
    }
    for (int l = 0; l < N; ++l) {
      const long long i = i0 + l;
      double rkl = rk[l];
      double pkl = pk[l];
      for (int k = nmin; k < nlev[l]; ++k) {
        double rprev = rkl;
        rkl = density(linear != 0, t(k, j, i), s(k, j, i), zc[k]);
        rho(k, j, i) = rkl;
        double dzc = zc[k] - zc[k - 1];
        pkl += kGravity * 0.5 * (rprev + rkl) * dzc / kRho0;
        p(k, j, i) = pkl;
      }
    }
  }
};

/// Fused readyc (momentum tendencies + both dz-weighted vertical means): the
/// tendencies gu/gv feed the mean accumulators straight from registers, so
/// the two VertMeanK re-read passes over fu and fv are elided. The stencil
/// math is textually TendencyK's; the accumulation is textually VertMeanK's.
struct FusedTendencyMeanK {
  CI2 kmu;
  CF2 dxu, dyu, lon, lat;
  CF3 u, v, p;
  F3 fu, fv;
  F2 gu_bar, gv_bar;
  const double* dz = nullptr;
  double viscosity = 0.0;
  double day_of_year = 0.0;
  double bottom_drag = 5.0e-4;
  double wind_scale = 1.0;
  int nz = 0;

  void operator()(long long j, long long i) const {
    const int nlev = kmu(j, i);
    double inv_dx = 1.0 / dxu(j, i);
    double inv_dy = 1.0 / dyu(j, i);
    double num_u = 0.0;
    double num_v = 0.0;
    double den = 0.0;
    for (int k = 0; k < nz; ++k) {
      if (k >= nlev) {
        fu(k, j, i) = 0.0;
        fv(k, j, i) = 0.0;
        continue;
      }
      double dpdx =
          0.5 * ((p(k, j, i + 1) + p(k, j + 1, i + 1)) - (p(k, j, i) + p(k, j + 1, i))) * inv_dx;
      double dpdy =
          0.5 * ((p(k, j + 1, i) + p(k, j + 1, i + 1)) - (p(k, j, i) + p(k, j, i + 1))) * inv_dy;
      double uc = u(k, j, i);
      double vc = v(k, j, i);
      double dudx = 0.5 * (u(k, j, i + 1) - u(k, j, i - 1)) * inv_dx;
      double dudy = 0.5 * (u(k, j + 1, i) - u(k, j - 1, i)) * inv_dy;
      double dvdx = 0.5 * (v(k, j, i + 1) - v(k, j, i - 1)) * inv_dx;
      double dvdy = 0.5 * (v(k, j + 1, i) - v(k, j - 1, i)) * inv_dy;
      double lap_u = (u(k, j, i + 1) - 2.0 * uc + u(k, j, i - 1)) * inv_dx * inv_dx +
                     (u(k, j + 1, i) - 2.0 * uc + u(k, j - 1, i)) * inv_dy * inv_dy;
      double lap_v = (v(k, j, i + 1) - 2.0 * vc + v(k, j, i - 1)) * inv_dx * inv_dx +
                     (v(k, j + 1, i) - 2.0 * vc + v(k, j - 1, i)) * inv_dy * inv_dy;
      double gu = -dpdx - (uc * dudx + vc * dudy) + viscosity * lap_u;
      double gv = -dpdy - (uc * dvdx + vc * dvdy) + viscosity * lap_v;
      if (k == 0) {
        SurfaceForcing f = climatological_forcing(lon(j, i), lat(j, i), day_of_year);
        gu += wind_scale * f.tau_x / (kRho0 * dz[0]);
        gv += wind_scale * f.tau_y / (kRho0 * dz[0]);
      }
      if (k == nlev - 1) {
        gu -= bottom_drag * uc / dz[k];
        gv -= bottom_drag * vc / dz[k];
      }
      fu(k, j, i) = gu;
      fv(k, j, i) = gv;
      num_u += gu * dz[k];
      num_v += gv * dz[k];
      den += dz[k];
    }
    if (nlev == 0) {
      gu_bar(j, i) = 0.0;
      gv_bar(j, i) = 0.0;
    } else {
      gu_bar(j, i) = num_u / den;
      gv_bar(j, i) = num_v / den;
    }
  }

  /// Packed form over N adjacent corners. Stencil math runs as Pack ops
  /// (lane order = scalar order); the branchy pieces — surface forcing at
  /// k == 0, bottom drag at each lane's own deepest level, the mean
  /// accumulators — stay lane-scalar under their masks so no spurious FP op
  /// ever touches an accumulator (even x += 0.0 can flip a signed zero).
  ///
  /// Loads are never masked here: with a full tail every lane's address is
  /// inside the dense (nz, ny_total, nx_total) allocation at every k, so
  /// below-bottom lanes may read whatever the array holds — their results
  /// are discarded by the masked stores/accumulation and elementwise lane
  /// math cannot leak across lanes. The rare partial tail pack (at most one
  /// per row) falls back to the scalar body per live lane.
  template <int N>
  void pack_op(long long j, long long i0, const kxx::Mask<N>& tail) const {
    using P = kxx::Pack<double, N>;
    if (!tail.all()) {
      for (int l = 0; l < N; ++l)
        if (tail[l]) (*this)(j, i0 + l);
      return;
    }
    int nlev[N];
    int nmin = nz;
    int nmax = 0;
    for (int l = 0; l < N; ++l) {
      nlev[l] = kmu(j, i0 + l);
      nmin = nlev[l] < nmin ? nlev[l] : nmin;
      nmax = nlev[l] > nmax ? nlev[l] : nmax;
    }
    const P inv_dx = 1.0 / kxx::pack_load<N>(dxu.ptr(j, i0));
    const P inv_dy = 1.0 / kxx::pack_load<N>(dyu.ptr(j, i0));
    P num_u, num_v, den;
    for (int k = 0; k < nz; ++k) {
      if (k >= nmax) {  // every lane below its bottom: zeros, nothing else
        kxx::pack_store<N>(fu.ptr(k, j, i0), P{});
        kxx::pack_store<N>(fv.ptr(k, j, i0), P{});
        continue;
      }
      const P p_c = kxx::pack_load<N>(p.ptr(k, j, i0));
      const P p_e = kxx::pack_load<N>(p.ptr(k, j, i0 + 1));
      const P p_n = kxx::pack_load<N>(p.ptr(k, j + 1, i0));
      const P p_ne = kxx::pack_load<N>(p.ptr(k, j + 1, i0 + 1));
      const P uc = kxx::pack_load<N>(u.ptr(k, j, i0));
      const P vc = kxx::pack_load<N>(v.ptr(k, j, i0));
      const P u_e = kxx::pack_load<N>(u.ptr(k, j, i0 + 1));
      const P u_w = kxx::pack_load<N>(u.ptr(k, j, i0 - 1));
      const P u_n = kxx::pack_load<N>(u.ptr(k, j + 1, i0));
      const P u_s = kxx::pack_load<N>(u.ptr(k, j - 1, i0));
      const P v_e = kxx::pack_load<N>(v.ptr(k, j, i0 + 1));
      const P v_w = kxx::pack_load<N>(v.ptr(k, j, i0 - 1));
      const P v_n = kxx::pack_load<N>(v.ptr(k, j + 1, i0));
      const P v_s = kxx::pack_load<N>(v.ptr(k, j - 1, i0));
      const P dpdx = 0.5 * ((p_e + p_ne) - (p_c + p_n)) * inv_dx;
      const P dpdy = 0.5 * ((p_n + p_ne) - (p_c + p_e)) * inv_dy;
      const P dudx = 0.5 * (u_e - u_w) * inv_dx;
      const P dudy = 0.5 * (u_n - u_s) * inv_dy;
      const P dvdx = 0.5 * (v_e - v_w) * inv_dx;
      const P dvdy = 0.5 * (v_n - v_s) * inv_dy;
      const P lap_u = (u_e - 2.0 * uc + u_w) * inv_dx * inv_dx +
                      (u_n - 2.0 * uc + u_s) * inv_dy * inv_dy;
      const P lap_v = (v_e - 2.0 * vc + v_w) * inv_dx * inv_dx +
                      (v_n - 2.0 * vc + v_s) * inv_dy * inv_dy;
      P gu = -dpdx - (uc * dudx + vc * dudy) + viscosity * lap_u;
      P gv = -dpdy - (uc * dvdx + vc * dvdy) + viscosity * lap_v;
      if (k < nmin) {
        // Every lane live: no masks on this plane at all.
        if (k == 0) {
          for (int l = 0; l < N; ++l) {
            SurfaceForcing f =
                climatological_forcing(lon(j, i0 + l), lat(j, i0 + l), day_of_year);
            gu[l] += wind_scale * f.tau_x / (kRho0 * dz[0]);
            gv[l] += wind_scale * f.tau_y / (kRho0 * dz[0]);
          }
        }
        if (k >= nmin - 1) {  // no lane can bottom out above the shallowest
          for (int l = 0; l < N; ++l) {
            if (k == nlev[l] - 1) {
              gu[l] -= bottom_drag * uc[l] / dz[k];
              gv[l] -= bottom_drag * vc[l] / dz[k];
            }
          }
        }
        kxx::pack_store<N>(fu.ptr(k, j, i0), gu);
        kxx::pack_store<N>(fv.ptr(k, j, i0), gv);
        num_u += gu * dz[k];
        num_v += gv * dz[k];
        den += P(dz[k]);
        continue;
      }
      // Mixed plane: some lanes below bottom. Math above already ran on all
      // lanes; dead lanes store 0 and never touch the accumulators.
      kxx::Mask<N> mk;
      for (int l = 0; l < N; ++l) mk.set(l, k < nlev[l]);
      if (k == 0) {
        for (int l = 0; l < N; ++l) {
          if (!mk[l]) continue;
          SurfaceForcing f =
              climatological_forcing(lon(j, i0 + l), lat(j, i0 + l), day_of_year);
          gu[l] += wind_scale * f.tau_x / (kRho0 * dz[0]);
          gv[l] += wind_scale * f.tau_y / (kRho0 * dz[0]);
        }
      }
      for (int l = 0; l < N; ++l) {
        if (mk[l] && k == nlev[l] - 1) {
          gu[l] -= bottom_drag * uc[l] / dz[k];
          gv[l] -= bottom_drag * vc[l] / dz[k];
        }
      }
      kxx::pack_store<N>(fu.ptr(k, j, i0), kxx::blend(mk, gu, 0.0));
      kxx::pack_store<N>(fv.ptr(k, j, i0), kxx::blend(mk, gv, 0.0));
      for (int l = 0; l < N; ++l) {
        if (!mk[l]) continue;
        num_u[l] += gu[l] * dz[k];
        num_v[l] += gv[l] * dz[k];
        den[l] += dz[k];
      }
    }
    P ub, vb;
    for (int l = 0; l < N; ++l) {
      ub[l] = nlev[l] == 0 ? 0.0 : num_u[l] / den[l];
      vb[l] = nlev[l] == 0 ? 0.0 : num_v[l] / den[l];
    }
    kxx::pack_store<N>(gu_bar.ptr(j, i0), ub);
    kxx::pack_store<N>(gv_bar.ptr(j, i0), vb);
  }
};

struct BarotropicEtaK {
  CI2 kmt;
  CF2 dxu, dyu, area, ubar, vbar, eta_old;
  F2 eta_new;
  const double* iface = nullptr;  ///< nz+1 interface depths
  CI2 kmt_for_h;                  ///< same as kmt (column depth lookup)
  double dt2 = 0.0;
  long long seam_j = -2;  ///< closed fold seam (volume conservation)
  int fp32 = 0;           ///< mixed-precision substep arithmetic (§VIII)

  double column_depth(long long j, long long i) const { return iface[kmt_for_h(j, i)]; }

  void operator()(long long j, long long i) const {
    if (kmt(j, i) == 0) {
      eta_new(j, i) = 0.0;
      return;
    }
    double h_c = column_depth(j, i);
    (void)h_c;
    // min(depth of both sides) keeps transport out of shallow cells bounded.
    auto flux_e = [&](long long jj, long long ii) {
      if (kmt(jj, ii) == 0 || kmt(jj, ii + 1) == 0) return 0.0;
      double hf = std::min(column_depth(jj, ii), column_depth(jj, ii + 1));
      return 0.5 * (ubar(jj, ii) + ubar(jj - 1, ii)) * dyu(jj, ii) * hf;
    };
    auto flux_n = [&](long long jj, long long ii) {
      if (jj == seam_j || kmt(jj, ii) == 0 || kmt(jj + 1, ii) == 0) return 0.0;
      double hf = std::min(column_depth(jj, ii), column_depth(jj + 1, ii));
      return 0.5 * (vbar(jj, ii) + vbar(jj, ii - 1)) * dxu(jj, ii) * hf;
    };
    if (fp32 != 0) {
      // Mixed precision (§VIII): round the substep arithmetic to fp32; state
      // stays double. Flux differencing in float keeps eta increments small
      // relative to eta itself, so the rounding behaves like O(1e-7) noise.
      float div = static_cast<float>(flux_e(j, i)) - static_cast<float>(flux_e(j, i - 1)) +
                  static_cast<float>(flux_n(j, i)) - static_cast<float>(flux_n(j - 1, i));
      eta_new(j, i) = static_cast<float>(eta_old(j, i)) -
                      static_cast<float>(dt2) * div / static_cast<float>(area(j, i));
      return;
    }
    double div = flux_e(j, i) - flux_e(j, i - 1) + flux_n(j, i) - flux_n(j - 1, i);
    eta_new(j, i) = eta_old(j, i) - dt2 * div / area(j, i);
  }
};

struct BarotropicUVK {
  CI2 kmu;
  CF2 dxu, dyu, fcor, eta, ubar_old, vbar_old, gu, gv;
  F2 ubar_new, vbar_new;
  double dt2 = 0.0;
  int fp32 = 0;  ///< mixed-precision substep arithmetic (§VIII)

  void operator()(long long j, long long i) const {
    if (kmu(j, i) == 0) {
      ubar_new(j, i) = 0.0;
      vbar_new(j, i) = 0.0;
      return;
    }
    double detadx =
        0.5 * ((eta(j, i + 1) + eta(j + 1, i + 1)) - (eta(j, i) + eta(j + 1, i))) / dxu(j, i);
    double detady =
        0.5 * ((eta(j + 1, i) + eta(j + 1, i + 1)) - (eta(j, i) + eta(j, i + 1))) / dyu(j, i);
    double fu_b = -kGravity * detadx + gu(j, i);
    double fv_b = -kGravity * detady + gv(j, i);
    // Semi-implicit Coriolis rotation (trapezoidal).
    double alpha = fcor(j, i) * 0.5 * dt2;
    if (fp32 != 0) {
      float au = static_cast<float>(ubar_old(j, i)) +
                 static_cast<float>(alpha) * static_cast<float>(vbar_old(j, i)) +
                 static_cast<float>(dt2) * static_cast<float>(fu_b);
      float av = static_cast<float>(vbar_old(j, i)) -
                 static_cast<float>(alpha) * static_cast<float>(ubar_old(j, i)) +
                 static_cast<float>(dt2) * static_cast<float>(fv_b);
      float denom = 1.0f + static_cast<float>(alpha) * static_cast<float>(alpha);
      ubar_new(j, i) = (au + static_cast<float>(alpha) * av) / denom;
      vbar_new(j, i) = (av - static_cast<float>(alpha) * au) / denom;
      return;
    }
    double au = ubar_old(j, i) + alpha * vbar_old(j, i) + dt2 * fu_b;
    double av = vbar_old(j, i) - alpha * ubar_old(j, i) + dt2 * fv_b;
    double denom = 1.0 + alpha * alpha;
    ubar_new(j, i) = (au + alpha * av) / denom;
    vbar_new(j, i) = (av - alpha * au) / denom;
  }
};

struct AsselinK2D {
  CF2 x_old, x_new;
  F2 x_cur;
  double gamma = 0.1;
  void operator()(long long j, long long i) const {
    x_cur(j, i) += gamma * (x_old(j, i) - 2.0 * x_cur(j, i) + x_new(j, i));
  }
};

struct AccumulateK2D {
  CF2 src;
  F2 acc;
  double weight = 1.0;
  void operator()(long long j, long long i) const { acc(j, i) += weight * src(j, i); }
};

/// bclinc column: semi-implicit Coriolis, implicit vertical viscosity of u
/// and v against ONE shared factorization of the corner-averaged kappa_m
/// system, barotropic re-anchoring and the Asselin filter. Packed across i:
/// lane l carries column i0 + l to its own depth kmu. The scalar body is
/// pack_op<1> (AthreadSim, pack width 1, partial i-tails).
struct BclincColumnK {
  CI2 kmu;
  CF2 fcor;
  CF3 u_old, v_old, fu, fv, kappa_m;
  F3 u_cur, v_cur, u_new, v_new;
  CF2 ubar_avg, vbar_avg;
  const double* dz = nullptr;
  const double* zc = nullptr;
  double dt = 0.0;      ///< baroclinic step
  double gamma = 0.1;   ///< Asselin

  int nz = 0;

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
      nlev[l] = kmu(j, i0 + l);
      nmax = nlev[l] > nmax ? nlev[l] : nmax;
    }
    using P = kxx::Pack<double, N>;
    const P zero(0.0);
    double un[kMaxLevels * N];
    double vn[kMaxLevels * N];
    double kf[kMaxLevels * N];
    const double dt2 = 2.0 * dt;
    const P alpha = kxx::pack_load<N>(fcor.ptr(j, i0)) * 0.5 * dt2;
    const P denom = 1.0 + alpha * alpha;
    for (int k = 0; k < nmax; ++k) {
      const P uo = kxx::pack_load<N>(u_old.ptr(k, j, i0));
      const P vo = kxx::pack_load<N>(v_old.ptr(k, j, i0));
      const P au = uo + alpha * vo + dt2 * kxx::pack_load<N>(fu.ptr(k, j, i0));
      const P av = vo - alpha * uo + dt2 * kxx::pack_load<N>(fv.ptr(k, j, i0));
      kxx::pack_store<N>(un + k * N, (au + alpha * av) / denom);
      kxx::pack_store<N>(vn + k * N, (av - alpha * au) / denom);
      // Vertical viscosity at the face below cell k: corner average of the
      // four surrounding T columns.
      kxx::pack_store<N>(kf + k * N, 0.25 * (kxx::pack_load<N>(kappa_m.ptr(k, j, i0)) +
                                             kxx::pack_load<N>(kappa_m.ptr(k, j, i0 + 1)) +
                                             kxx::pack_load<N>(kappa_m.ptr(k, j + 1, i0)) +
                                             kxx::pack_load<N>(kappa_m.ptr(k, j + 1, i0 + 1))));
    }
    if (nmax > 0) {
      double* const uv[2] = {un, vn};
      implicit_vertical_solve_packed<N, 2>(nlev, dt2, kf, dz, zc, uv);
      // Re-anchor the depth mean to the barotropic solution.
      P mu = zero;
      P mv = zero;
      P hsum = zero;
      for (int k = 0; k < nmax; ++k) {
        int live[N];
        for (int l = 0; l < N; ++l) live[l] = k < nlev[l];
        mu = kxx::select(live, mu + kxx::pack_load<N>(un + k * N) * dz[k], mu);
        mv = kxx::select(live, mv + kxx::pack_load<N>(vn + k * N) * dz[k], mv);
        hsum = kxx::select(live, hsum + dz[k], hsum);
      }
      const P du = kxx::pack_load<N>(ubar_avg.ptr(j, i0)) - mu / hsum;
      const P dv = kxx::pack_load<N>(vbar_avg.ptr(j, i0)) - mv / hsum;
      for (int k = 0; k < nmax; ++k) {
        int live[N];
        for (int l = 0; l < N; ++l) live[l] = k < nlev[l];
        const P u = kxx::pack_load<N>(un + k * N) + du;
        const P v = kxx::pack_load<N>(vn + k * N) + dv;
        kxx::pack_store<N>(u_new.ptr(k, j, i0), kxx::select(live, u, zero));
        kxx::pack_store<N>(v_new.ptr(k, j, i0), kxx::select(live, v, zero));
        // Robert–Asselin filter on the central time level.
        const P uc = kxx::pack_load<N>(u_cur.ptr(k, j, i0));
        const P vc = kxx::pack_load<N>(v_cur.ptr(k, j, i0));
        const P uo = kxx::pack_load<N>(u_old.ptr(k, j, i0));
        const P vo = kxx::pack_load<N>(v_old.ptr(k, j, i0));
        kxx::pack_store<N>(u_cur.ptr(k, j, i0),
                           kxx::select(live, uc + gamma * (uo - 2.0 * uc + u), uc));
        kxx::pack_store<N>(v_cur.ptr(k, j, i0),
                           kxx::select(live, vc + gamma * (vo - 2.0 * vc + v), vc));
      }
    }
    // Clear land levels so buffer rotation never resurfaces stale values.
    for (int k = nmax; k < nz; ++k) {
      double* unew = u_new.ptr(k, j, i0);
      double* vnew = v_new.ptr(k, j, i0);
      for (int l = 0; l < N; ++l) {
        unew[l] = 0.0;
        vnew[l] = 0.0;
      }
    }
  }
};

}  // namespace dyn
}  // namespace licomk::core

KXX_REGISTER_FOR_3D(dyn_density, licomk::core::dyn::DensityK);
KXX_REGISTER_FOR_2D(dyn_pressure, licomk::core::dyn::PressureK);
KXX_REGISTER_FOR_3D(dyn_tendency, licomk::core::dyn::TendencyK);
KXX_REGISTER_FOR_2D(dyn_vert_mean, licomk::core::dyn::VertMeanK);
KXX_REGISTER_FOR_2D(dyn_rho_p, licomk::core::dyn::FusedDensityPressureK);
KXX_REGISTER_FOR_2D(dyn_tend_mean, licomk::core::dyn::FusedTendencyMeanK);
KXX_REGISTER_FOR_2D(dyn_barotropic_eta, licomk::core::dyn::BarotropicEtaK);
KXX_REGISTER_FOR_2D(dyn_barotropic_uv, licomk::core::dyn::BarotropicUVK);
KXX_REGISTER_FOR_2D(dyn_asselin2d, licomk::core::dyn::AsselinK2D);
KXX_REGISTER_FOR_2D(dyn_accumulate2d, licomk::core::dyn::AccumulateK2D);
KXX_REGISTER_FOR_2D(dyn_bclinc_column, licomk::core::dyn::BclincColumnK);

namespace licomk::core {

namespace {

kxx::MDRangePolicy2 interior2(const LocalGrid& g) {
  const int h = decomp::kHaloWidth;
  return kxx::MDRangePolicy2({h, h}, {h + g.ny(), h + g.nx()});
}

kxx::MDRangePolicy3 interior3(const LocalGrid& g) {
  // Single-plane tiles keep the LDM slab footprint small and yield > 64 tiles
  // on test-sized grids, so every CPE's double-buffered prefetch engages.
  const int h = decomp::kHaloWidth;
  return kxx::MDRangePolicy3({0, h, h}, {g.nz(), h + g.ny(), h + g.nx()}, {1, 4, 64});
}

}  // namespace

void implicit_vertical_solve(int nlev, double dt, const double* kappa_face, const double* dz,
                             const double* zc, double* x) {
  const int n[1] = {nlev};
  double* const rhs[1] = {x};
  implicit_vertical_solve_packed<1, 1>(n, dt, kappa_face, dz, zc, rhs);
}

void compute_density(const LocalGrid& g, bool linear_eos, const halo::BlockField3D& t,
                     const halo::BlockField3D& s, halo::BlockField3D& rho) {
  dyn::DensityK f{cref(g.kmt_view()), cref(t), cref(s), mref(rho),
                  g.vertical().centers().data(), linear_eos ? 1 : 0};
  // Density is needed one ring beyond the interior (pressure gradients at
  // boundary corners), and tracer halos are valid, so run on the full block.
  kxx::parallel_for("dyn_density",
                    kxx::MDRangePolicy3({0, 0, 0}, {g.nz(), g.ny_total(), g.nx_total()}), f);
  rho.mark_dirty();
}

void compute_pressure(const LocalGrid& g, const halo::BlockField3D& rho,
                      const halo::BlockField2D& eta, halo::BlockField3D& pressure) {
  dyn::PressureK f{cref(g.kmt_view()), cref(rho), cref(eta), mref(pressure),
                   g.vertical().centers().data(), g.vertical().thicknesses().data()};
  kxx::parallel_for("dyn_pressure",
                    kxx::MDRangePolicy2({0, 0}, {g.ny_total(), g.nx_total()}), f);
  pressure.mark_dirty();
}

void compute_momentum_tendencies(const LocalGrid& g, const ModelConfig& cfg,
                                 const OceanState& state, double day_of_year,
                                 halo::BlockField3D& fu, halo::BlockField3D& fv) {
  // Resolution-scaled viscosity from a GLOBAL representative spacing: a
  // block-local spacing would make the physics depend on the decomposition.
  const auto& gh = g.global().h();
  double dx_mean = gh.dx_t(gh.ny() / 2, gh.nx() / 2);
  dyn::TendencyK f{cref(g.kmu_view()),
                   cref(g.dxu_view()),
                   cref(g.dyu_view()),
                   cref(g.lon_view()),
                   cref(g.lat_view()),
                   cref(state.u_cur),
                   cref(state.v_cur),
                   cref(state.pressure),
                   mref(fu),
                   mref(fv),
                   g.vertical().thicknesses().data(),
                   cfg.effective_viscosity(dx_mean),
                   day_of_year,
                   5.0e-4,
                   cfg.wind_stress_scale};
  kxx::parallel_for("dyn_tendency", interior3(g), f);
  fu.mark_dirty();
  fv.mark_dirty();
}

void vertical_mean(const LocalGrid& g, const halo::BlockField3D& x3, halo::BlockField2D& out) {
  dyn::VertMeanK f{cref(g.kmu_view()), cref(x3), mref(out),
                   g.vertical().thicknesses().data()};
  kxx::parallel_for("dyn_vert_mean", interior2(g), f);
  out.mark_dirty();
}

void compute_density_pressure_fused(const LocalGrid& g, bool linear_eos,
                                    const halo::BlockField3D& t, const halo::BlockField3D& s,
                                    halo::BlockField3D& rho, const halo::BlockField2D& eta,
                                    halo::BlockField3D& pressure) {
  (void)eta;  // like PressureK's: surface slope belongs to the barotr subsystem
  dyn::FusedDensityPressureK f{cref(g.kmt_view()),
                               cref(t),
                               cref(s),
                               mref(rho),
                               mref(pressure),
                               g.vertical().centers().data(),
                               g.vertical().thicknesses().data(),
                               linear_eos ? 1 : 0};
  // Same full-block footprint as the unfused chain (density is needed one
  // ring beyond the interior for boundary-corner pressure gradients).
  kxx::parallel_for_packed("dyn_rho_p",
                           kxx::MDRangePolicy2({0, 0}, {g.ny_total(), g.nx_total()}),
                           cref(g.kmt_view()).levels(), f);
  // The elided traffic: PressureK's full re-read of the rho View.
  kxx::note_fusion_views_elided(static_cast<long long>(g.nz()) * g.ny_total() *
                                g.nx_total() * static_cast<long long>(sizeof(double)));
  rho.mark_dirty();
  pressure.mark_dirty();
}

void compute_tendency_means_fused(const LocalGrid& g, const ModelConfig& cfg,
                                  const OceanState& state, double day_of_year,
                                  halo::BlockField3D& fu, halo::BlockField3D& fv,
                                  halo::BlockField2D& gu_bar, halo::BlockField2D& gv_bar) {
  const auto& gh = g.global().h();
  double dx_mean = gh.dx_t(gh.ny() / 2, gh.nx() / 2);
  dyn::FusedTendencyMeanK f{cref(g.kmu_view()),
                            cref(g.dxu_view()),
                            cref(g.dyu_view()),
                            cref(g.lon_view()),
                            cref(g.lat_view()),
                            cref(state.u_cur),
                            cref(state.v_cur),
                            cref(state.pressure),
                            mref(fu),
                            mref(fv),
                            mref(gu_bar),
                            mref(gv_bar),
                            g.vertical().thicknesses().data(),
                            cfg.effective_viscosity(dx_mean),
                            day_of_year,
                            5.0e-4,
                            cfg.wind_stress_scale,
                            g.nz()};
  // No LevelsRef: land corners must still write fu = fv = 0 and zero means,
  // exactly as the unfused TendencyK/VertMeanK do.
  kxx::parallel_for_packed("dyn_tend_mean", interior2(g), f);
  // Elided: the two VertMeanK re-read passes over fu and fv.
  kxx::note_fusion_views_elided(2LL * g.nz() * g.ny() * g.nx() *
                                static_cast<long long>(sizeof(double)));
  fu.mark_dirty();
  fv.mark_dirty();
  gu_bar.mark_dirty();
  gv_bar.mark_dirty();
}

void run_barotropic(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                    halo::HaloExchanger& exchanger, const PolarFilter& filter,
                    const halo::BlockField2D& gu_bar, const halo::BlockField2D& gv_bar,
                    halo::BlockField2D& ubar_avg, halo::BlockField2D& vbar_avg,
                    halo::PersistentGroup* subcycle_group) {
  const int nsub = cfg.grid.barotropic_substeps();
  const double dtb = cfg.grid.dt_barotropic;
  const double* iface = g.vertical().interfaces().data();

  kxx::fill(ubar_avg.view(), 0.0);
  kxx::fill(vbar_avg.view(), 0.0);
  const double weight = 1.0 / nsub;

  // The three prognostic 2-D fields travel as ONE aggregated message per
  // neighbor per phase every substep (§V-D message-count reduction). The
  // group enrolls the field objects once; the rotation below swaps buffers
  // between them, which the group re-resolves at each exchange. When the
  // caller supplies a PersistentGroup the per-call ExchangeGroup is not used
  // at all — the persistent plan is reused across substeps AND baroclinic
  // steps.
  halo::ExchangeGroup group(exchanger);
  if (subcycle_group == nullptr) {
    group.add(state.eta_cur, halo::FoldSign::Symmetric);
    group.add(state.ubar_cur, halo::FoldSign::Antisymmetric);
    group.add(state.vbar_cur, halo::FoldSign::Antisymmetric);
  }
  const std::vector<FilteredField> filtered = {
      FilteredField(state.eta_cur, halo::FoldSign::Symmetric, /*conservative=*/true),
      FilteredField(state.ubar_cur, halo::FoldSign::Antisymmetric, false),
      FilteredField(state.vbar_cur, halo::FoldSign::Antisymmetric, false),
  };

  for (int sub = 0; sub < nsub; ++sub) {
    // eta leapfrog.
    dyn::BarotropicEtaK ek{cref(g.kmt_view()), cref(g.dxu_view()), cref(g.dyu_view()),
                           cref(g.area_view()), cref(state.ubar_cur), cref(state.vbar_cur),
                           cref(state.eta_old), mref(state.eta_new), iface,
                           cref(g.kmt_view()), 2.0 * dtb,
                           g.seam_row() >= 0 ? g.seam_row() : -2,
                           cfg.fp32_barotropic ? 1 : 0};
    kxx::parallel_for("barotr_eta", interior2(g), ek);

    // Momentum leapfrog with semi-implicit Coriolis.
    dyn::BarotropicUVK uk{cref(g.kmu_view()), cref(g.dxu_view()), cref(g.dyu_view()),
                          cref(g.coriolis_view()), cref(state.eta_cur), cref(state.ubar_old),
                          cref(state.vbar_old), cref(gu_bar), cref(gv_bar),
                          mref(state.ubar_new), mref(state.vbar_new), 2.0 * dtb,
                          cfg.fp32_barotropic ? 1 : 0};
    kxx::parallel_for("barotr_uv", interior2(g), uk);

    // Robert–Asselin filter on the central level.
    dyn::AsselinK2D ae{cref(state.eta_old), cref(state.eta_new), mref(state.eta_cur),
                       cfg.asselin_coeff};
    kxx::parallel_for("barotr_asselin_eta", interior2(g), ae);
    dyn::AsselinK2D au{cref(state.ubar_old), cref(state.ubar_new), mref(state.ubar_cur),
                       cfg.asselin_coeff};
    kxx::parallel_for("barotr_asselin_u", interior2(g), au);
    dyn::AsselinK2D av{cref(state.vbar_old), cref(state.vbar_new), mref(state.vbar_cur),
                       cfg.asselin_coeff};
    kxx::parallel_for("barotr_asselin_v", interior2(g), av);

    state.eta_new.mark_dirty();
    state.ubar_new.mark_dirty();
    state.vbar_new.mark_dirty();
    state.rotate_barotropic();

    // Aggregated 2-D halo update every substep (velocities flip across the
    // fold; each field keeps its own FoldSign inside the batch).
    if (subcycle_group != nullptr) {
      // Persistent path. When the filter is active, the only ghost reads
      // between here and the filter's closing full exchange are the zonal
      // smoothing stencil's east/west columns — so the main substep update
      // ships only the zonal phase, and the filter's final exchange rebuilds
      // every ghost (meridional, fold, corners) from interior data before
      // the next substep's kernels run. Bit-identical, fewer messages.
      if (filter.active()) {
        subcycle_group->exchange_zonal();
      } else {
        subcycle_group->exchange();
      }
      filter.apply(filtered, *subcycle_group);
    } else {
      group.exchange();

      // Polar zonal filter: damp the grid-scale gravity-wave modes that
      // exceed the explicit CFL limit near the fold. Volume-conservative on
      // eta. The batched form exchanges all three fields per pass in one
      // message per neighbor (zonal-only between passes).
      filter.apply(filtered, exchanger);
    }

    // Accumulate the sub-cycle average used to anchor the baroclinic mean.
    dyn::AccumulateK2D accu{cref(state.ubar_cur), mref(ubar_avg), weight};
    kxx::parallel_for("barotr_avg_u", interior2(g), accu);
    dyn::AccumulateK2D accv{cref(state.vbar_cur), mref(vbar_avg), weight};
    kxx::parallel_for("barotr_avg_v", interior2(g), accv);
  }
  ubar_avg.mark_dirty();
  vbar_avg.mark_dirty();
}

void baroclinic_update(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                       const halo::BlockField2D& ubar_avg, const halo::BlockField2D& vbar_avg) {
  LICOMK_REQUIRE(g.nz() <= kMaxLevels, "column deeper than kMaxLevels");
  dyn::BclincColumnK f{cref(g.kmu_view()), cref(g.coriolis_view()), cref(state.u_old),
                       cref(state.v_old), cref(state.fu_tend), cref(state.fv_tend),
                       cref(state.kappa_m), mref(state.u_cur), mref(state.v_cur),
                       mref(state.u_new), mref(state.v_new), cref(ubar_avg), cref(vbar_avg),
                       g.vertical().thicknesses().data(), g.vertical().centers().data(),
                       cfg.grid.dt_baroclinic, cfg.asselin_coeff, g.nz()};
  kxx::parallel_for_packed("bclinc_column", interior2(g), f);
  state.u_new.mark_dirty();
  state.v_new.mark_dirty();
  state.u_cur.mark_dirty();
  state.v_cur.mark_dirty();
}

}  // namespace licomk::core
