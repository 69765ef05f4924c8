#include "core/advection.hpp"

#include <algorithm>
#include <cmath>

#include "kxx/kxx.hpp"

namespace licomk::core {
namespace adv {

/// Shared geometry handed to every advection functor.
struct Geo {
  CI2 kmt;
  CF2 area, dyu, dxu;
  const double* dz = nullptr;  ///< nz layer thicknesses
  int nz = 0;
  long long seam_j = -2;  ///< row whose north face is the (closed) fold seam

  bool active(long long k, long long j, long long i) const { return k < kmt(j, i); }
};

/// Stage 1a: volume flux through the EAST face of T cell (j,i).
/// B-grid: the face is bounded by corners (j-1,i) and (j,i).
struct FluxEast {
  Geo g;
  CF3 u;
  F3 fe;
  /// LDM staging footprint: u is read with a j-1 stencil; fe is written at
  /// every dispatched index. Geometry (2-D masks/metrics) stays unstaged.
  void kxx_access(kxx::AccessSpec& a) const {
    a.in(u).halo(1, 1, 0);
    a.out(fe);
  }
  void operator()(long long k, long long j, long long i) const {
    double flux = 0.0;
    if (g.active(k, j, i) && g.active(k, j, i + 1)) {
      double uf = 0.5 * (u(k, j, i) + u(k, j - 1, i));
      flux = uf * g.dyu(j, i) * g.dz[k];
    }
    fe(k, j, i) = flux;
  }
};

/// Stage 1b: volume flux through the NORTH face of T cell (j,i)
/// (corners (j,i-1) and (j,i)).
struct FluxNorth {
  Geo g;
  CF3 v;
  F3 fn;
  /// LDM staging footprint: v is read with an i-1 stencil; fn is written at
  /// every dispatched index.
  void kxx_access(kxx::AccessSpec& a) const {
    a.in(v).halo(2, 1, 0);
    a.out(fn);
  }
  void operator()(long long k, long long j, long long i) const {
    double flux = 0.0;
    if (j != g.seam_j && g.active(k, j, i) && g.active(k, j + 1, i)) {
      double vf = 0.5 * (v(k, j, i) + v(k, j, i - 1));
      flux = vf * g.dxu(j, i) * g.dz[k];
    }
    fn(k, j, i) = flux;
  }
};

/// Stage 1b': Gent–McWilliams bolus fluxes added onto a horizontal face
/// column. The eddy-induced streamfunction psi(k) = kappa * S(k) lives at
/// the face's vertical interfaces (psi = 0 at surface and wherever either
/// neighbor column ends, so the face-column bolus transport integrates to
/// exactly zero: pure overturning). S is the isopycnal slope, tapered to
/// |S| <= s_max and zeroed under weak/unstable stratification.
struct GmBolus {
  Geo g;
  CF3 rho;
  F3 flux;            ///< flux_e (dir=0) or flux_n (dir=1), incremented
  CF2 len;            ///< face length: dyu for east faces, dxu for north
  const double* zc = nullptr;
  double kappa = 0.0;
  int dir = 0;        ///< 0: east face (i, i+1), 1: north face (j, j+1)
  long long seam_j = -2;

  static constexpr double kSlopeMax = 2.0e-3;
  static constexpr double kMinStrat = 1.0e-6;  ///< kg/m^3 per meter

  void operator()(long long j, long long i) const {
    const long long j2 = dir == 1 ? j + 1 : j;
    const long long i2 = dir == 0 ? i + 1 : i;
    if (dir == 1 && j == seam_j) return;
    const int nlev = std::min(g.kmt(j, i), g.kmt(j2, i2));
    if (nlev < 2) return;
    // Center-to-center spacing across the face (area / face length).
    const double dist =
        dir == 0 ? g.area(j, i) / g.dyu(j, i) : g.area(j, i) / g.dxu(j, i);
    double psi_above = 0.0;  // psi at the top interface of cell k
    for (int k = 0; k < nlev; ++k) {
      // psi at the BOTTOM interface of cell k (interface k+1).
      double psi_below = 0.0;
      if (k + 1 < nlev) {
        double drho_dx = 0.5 *
                         ((rho(k, j2, i2) + rho(k + 1, j2, i2)) -
                          (rho(k, j, i) + rho(k + 1, j, i))) /
                         dist;
        // z upward: density must decrease upward for a stable column.
        double drho_dz = 0.25 *
                         ((rho(k, j, i) + rho(k, j2, i2)) -
                          (rho(k + 1, j, i) + rho(k + 1, j2, i2))) /
                         (zc[k + 1] - zc[k]);
        if (drho_dz < -kMinStrat) {
          double slope = -drho_dx / drho_dz;
          slope = std::clamp(slope, -kSlopeMax, kSlopeMax);
          psi_below = kappa * slope;
        }
      }
      // u* dz = -(psi_top - psi_bottom); volume flux = u* dz * face_length.
      flux(k, j, i) += (psi_below - psi_above) * len(j, i);
      psi_above = psi_below;
    }
  }
};

/// Stage 1c: vertical volume flux from discrete continuity, integrated from
/// the bottom of each column upward. w(k) = flux through the TOP of cell k,
/// positive upward. Runs per column (2-D dispatch).
struct WContinuity {
  Geo g;
  CF3 fe, fn;
  F3 w;
  void operator()(long long j, long long i) const {
    const int nlev = g.kmt(j, i);
    for (int k = 0; k < g.nz; ++k) w(k, j, i) = 0.0;
    double below = 0.0;  // flux through the bottom of cell k
    for (int k = nlev - 1; k >= 0; --k) {
      double divh = fe(k, j, i) - fe(k, j, i - 1) + fn(k, j, i) - fn(k, j - 1, i);
      double top = below - divh;
      w(k, j, i) = top;
      below = top;
    }
  }
};

/// Donor-cell (upwind) tracer flux through a face with volume flux `vol`,
/// `q_from` on the negative side and `q_to` on the positive side.
inline double upwind_flux(double vol, double q_from, double q_to) {
  return vol > 0.0 ? vol * q_from : vol * q_to;
}

/// Stage 2a: low-order provisional field q_td (monotone donor-cell update).
struct LowOrder {
  Geo g;
  CF3 q, fe, fn, w;
  F3 qtd;
  double dt;
  void operator()(long long k, long long j, long long i) const {
    if (!g.active(k, j, i)) {
      qtd(k, j, i) = q(k, j, i);
      return;
    }
    auto lo_e = [&](long long jj, long long ii) {
      return upwind_flux(fe(k, jj, ii), q(k, jj, ii), q(k, jj, ii + 1));
    };
    auto lo_n = [&](long long jj, long long ii) {
      return upwind_flux(fn(k, jj, ii), q(k, jj, ii), q(k, jj + 1, ii));
    };
    // Vertical: flux through the top of cell kk moves tracer from cell kk
    // (when upward) to cell kk-1. The surface face (kk == 0) is closed to
    // tracer transport (free-surface volume change handles it).
    auto lo_t = [&](long long kk) {
      if (kk <= 0 || kk >= g.kmt(j, i)) return 0.0;
      return upwind_flux(w(kk, j, i), q(kk, j, i), q(kk - 1, j, i));
    };
    double vol = g.area(j, i) * g.dz[k];
    double div = lo_e(j, i) - lo_e(j, i - 1) + lo_n(j, i) - lo_n(j - 1, i) + lo_t(k) - lo_t(k + 1);
    // Free-surface consistency: the surface cell's volume change (w through
    // the closed tracer lid, absorbed by eta) enters in advective form, so a
    // uniform tracer stays exactly uniform under divergent flow and the
    // donor-cell predictor keeps its maximum principle. The tracer budget
    // then closes up to the physical dt*q*w_surface free-surface term.
    if (k == 0) div += q(0, j, i) * w(0, j, i);
    qtd(k, j, i) = q(k, j, i) - dt * div / vol;
  }
};

/// Stage 2a (fused pair): both tracers' monotone predictors in one sweep —
/// the volume fluxes fe/fn/w and the cell volume are loaded once and feed
/// both donor-cell updates, eliding the second LowOrder pass's full re-read
/// of the three flux fields. Each tracer's update is textually LowOrder's
/// expression, so the result is bit-identical to two LowOrder dispatches.
struct FusedLowOrderPair {
  Geo g;
  CF3 qa, qb, fe, fn, w;
  F3 qa_td, qb_td;
  double dt;

  void operator()(long long k, long long j, long long i) const {
    pack_op<1>(k, j, i, kxx::Mask<1>::all_true());
  }

  /// Packed form, and through pack_op<1> the scalar body (AthreadSim, pack
  /// width 1, partial i-tails), in the RFactors style: lane masks from kmt,
  /// unmasked loads (every ±1 neighbor of a full pack lies inside the
  /// allocation), bitwise selects. No LevelsRef at the dispatch: inactive
  /// cells still write the passthrough qtd = q, exactly as LowOrder's
  /// early-out does.
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
    kxx::Mask<N> act, bot;  // lo_t(k) guard is k > 0 (plane-uniform) and act
    for (int l = 0; l < N; ++l) {
      const int kc = g.kmt(j, i0 + l);
      act.set(l, k < kc);
      bot.set(l, k + 1 < kc);  // lo_t(k + 1) guard
    }
    const P qa_c = kxx::pack_load<N>(qa.ptr(k, j, i0));
    const P qb_c = kxx::pack_load<N>(qb.ptr(k, j, i0));
    if (act.none()) {
      kxx::pack_store<N>(qa_td.ptr(k, j, i0), qa_c);
      kxx::pack_store<N>(qb_td.ptr(k, j, i0), qb_c);
      return;
    }
    // Donor-cell flux through a face as a select: both candidate products
    // are upwind_flux's own expressions, the mask keeps the one its branch
    // takes. The mask comes from the face flux sign, not the activity mask,
    // so dead lanes just compute values that the final select discards.
    auto upw = [](const P& vol, const P& q_from, const P& q_to) __attribute__((always_inline)) {
      return kxx::select(vol > 0.0, vol * q_from, vol * q_to);
    };
    const P fe_c = kxx::pack_load<N>(fe.ptr(k, j, i0));
    const P fe_w = kxx::pack_load<N>(fe.ptr(k, j, i0 - 1));
    const P fn_c = kxx::pack_load<N>(fn.ptr(k, j, i0));
    const P fn_s = kxx::pack_load<N>(fn.ptr(k, j - 1, i0));
    P div_a = upw(fe_c, qa_c, kxx::pack_load<N>(qa.ptr(k, j, i0 + 1))) -
              upw(fe_w, kxx::pack_load<N>(qa.ptr(k, j, i0 - 1)), qa_c) +
              upw(fn_c, qa_c, kxx::pack_load<N>(qa.ptr(k, j + 1, i0))) -
              upw(fn_s, kxx::pack_load<N>(qa.ptr(k, j - 1, i0)), qa_c);
    P div_b = upw(fe_c, qb_c, kxx::pack_load<N>(qb.ptr(k, j, i0 + 1))) -
              upw(fe_w, kxx::pack_load<N>(qb.ptr(k, j, i0 - 1)), qb_c) +
              upw(fn_c, qb_c, kxx::pack_load<N>(qb.ptr(k, j + 1, i0))) -
              upw(fn_s, kxx::pack_load<N>(qb.ptr(k, j - 1, i0)), qb_c);
    // Vertical faces, LowOrder's lo_t(k) - lo_t(k + 1): the surface face and
    // the faces at or below a lane's bottom contribute 0.0.
    const P zero(0.0);
    P ta = zero, tb = zero;
    if (k > 0) {
      const P w_k = kxx::pack_load<N>(w.ptr(k, j, i0));
      ta = kxx::select(act, upw(w_k, qa_c, kxx::pack_load<N>(qa.ptr(k - 1, j, i0))), zero);
      tb = kxx::select(act, upw(w_k, qb_c, kxx::pack_load<N>(qb.ptr(k - 1, j, i0))), zero);
    }
    P ba = zero, bb = zero;
    if (k + 1 < g.nz) {
      const P w_d = kxx::pack_load<N>(w.ptr(k + 1, j, i0));
      ba = kxx::select(bot, upw(w_d, kxx::pack_load<N>(qa.ptr(k + 1, j, i0)), qa_c), zero);
      bb = kxx::select(bot, upw(w_d, kxx::pack_load<N>(qb.ptr(k + 1, j, i0)), qb_c), zero);
    }
    div_a = div_a + ta - ba;
    div_b = div_b + tb - bb;
    if (k == 0) {
      const P w0 = kxx::pack_load<N>(w.ptr(0, j, i0));
      div_a += qa_c * w0;
      div_b += qb_c * w0;
    }
    const P vol_p = kxx::pack_load<N>(g.area.ptr(j, i0)) * g.dz[k];
    kxx::pack_store<N>(qa_td.ptr(k, j, i0), kxx::select(act, qa_c - dt * div_a / vol_p, qa_c));
    kxx::pack_store<N>(qb_td.ptr(k, j, i0), kxx::select(act, qb_c - dt * div_b / vol_p, qb_c));
  }
};

/// Stage 2b: anti-diffusive fluxes A = F_centered - F_upwind, per face
/// family. Faces touching land carry zero volume flux, so A vanishes there
/// without extra masking.
struct AntiDiffEast {
  Geo g;
  CF3 q, fe;
  F3 ae;
  void operator()(long long k, long long j, long long i) const {
    double vol = fe(k, j, i);
    ae(k, j, i) = vol * 0.5 * (q(k, j, i) + q(k, j, i + 1)) -
                  upwind_flux(vol, q(k, j, i), q(k, j, i + 1));
  }
};

struct AntiDiffNorth {
  Geo g;
  CF3 q, fn;
  F3 an;
  void operator()(long long k, long long j, long long i) const {
    double vol = fn(k, j, i);
    an(k, j, i) = vol * 0.5 * (q(k, j, i) + q(k, j + 1, i)) -
                  upwind_flux(vol, q(k, j, i), q(k, j + 1, i));
  }
};

struct AntiDiffTop {
  Geo g;
  CF3 q, w;
  F3 at;
  void operator()(long long k, long long j, long long i) const {
    if (k <= 0 || k >= g.kmt(j, i)) {
      at(k, j, i) = 0.0;
      return;
    }
    double vol = w(k, j, i);
    at(k, j, i) = vol * 0.5 * (q(k, j, i) + q(k - 1, j, i)) -
                  upwind_flux(vol, q(k, j, i), q(k - 1, j, i));
  }
};

/// Stage 3 (after the q_td halo update): Zalesak limiter factors per cell.
///
/// Packed across i. Lane masks are Mask<N> (64-bit lanes) and every
/// select/min/max is a kxx::select/min/max lane loop in straight-line code:
/// the same chain through outlined lambdas lowers to scalar vminsd per lane
/// and runs slower than the scalar kernel (DESIGN.md §12.1). kxx::min/
/// max follow std::min/std::max exactly, and std::max({a, b, c}) folds left
/// as max(max(a, b), c), so each lane is bit-identical to the scalar std::
/// expressions. The scalar body is pack_op<1> (AthreadSim, pack width 1,
/// partial i-tails).
struct RFactors {
  Geo g;
  CF3 q, qtd, ae, an, at;
  F3 rp, rm;
  double dt;

  void operator()(long long k, long long j, long long i) const {
    pack_op<1>(k, j, i, kxx::Mask<1>::all_true());
  }

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
    // Activity of the cell and of each neighbor the extrema consider. The
    // planes above the surface and below the last level are plane-uniform
    // (k is the same in every lane) and skipped outright.
    kxx::Mask<N> act, m_w, m_e, m_s, m_n, m_up, m_dn;
    for (int l = 0; l < N; ++l) {
      const long long i = i0 + l;
      const int kc = g.kmt(j, i);
      act.set(l, k < kc);
      m_w.set(l, k < g.kmt(j, i - 1));
      m_e.set(l, k < g.kmt(j, i + 1));
      m_s.set(l, k < g.kmt(j - 1, i));
      m_n.set(l, k < g.kmt(j + 1, i));
      m_up.set(l, k - 1 < kc);
      m_dn.set(l, k + 1 < kc);
    }
    const P zero(0.0);
    if (act.none()) {
      kxx::pack_store<N>(rp.ptr(k, j, i0), zero);
      kxx::pack_store<N>(rm.ptr(k, j, i0), zero);
      return;
    }
    const P q_c = kxx::pack_load<N>(q.ptr(k, j, i0));
    const P t_c = kxx::pack_load<N>(qtd.ptr(k, j, i0));
    P qmax = kxx::max(q_c, t_c);
    P qmin = kxx::min(q_c, t_c);
    // Straight-line calls, forced inline: left to itself GCC outlines a
    // lambda this size (or keeps a loop over a neighbor table rolled) and
    // then lowers the packs to scalar lanes spilled through memory.
    auto consider = [&](const kxx::Mask<N>& m, const double* qp, const double* tp)
                        __attribute__((always_inline)) {
      const P qn = kxx::pack_load<N>(qp);
      const P tn = kxx::pack_load<N>(tp);
      qmax = kxx::select(m, kxx::max(kxx::max(qmax, qn), tn), qmax);
      qmin = kxx::select(m, kxx::min(kxx::min(qmin, qn), tn), qmin);
    };
    consider(m_w, q.ptr(k, j, i0 - 1), qtd.ptr(k, j, i0 - 1));
    consider(m_e, q.ptr(k, j, i0 + 1), qtd.ptr(k, j, i0 + 1));
    consider(m_s, q.ptr(k, j - 1, i0), qtd.ptr(k, j - 1, i0));
    consider(m_n, q.ptr(k, j + 1, i0), qtd.ptr(k, j + 1, i0));
    if (k > 0) consider(m_up, q.ptr(k - 1, j, i0), qtd.ptr(k - 1, j, i0));
    if (k + 1 < g.nz) consider(m_dn, q.ptr(k + 1, j, i0), qtd.ptr(k + 1, j, i0));

    // Incoming (P+) and outgoing (P-) anti-diffusive mass for this cell.
    const P a_e = kxx::pack_load<N>(ae.ptr(k, j, i0));      // out east (if > 0)
    const P a_w = kxx::pack_load<N>(ae.ptr(k, j, i0 - 1));  // in from west (if > 0)
    const P a_n = kxx::pack_load<N>(an.ptr(k, j, i0));      // out north
    const P a_s = kxx::pack_load<N>(an.ptr(k, j - 1, i0));  // in from south
    const P a_t = kxx::pack_load<N>(at.ptr(k, j, i0));      // out the top (if > 0)
    const P a_b = k + 1 < g.nz ? kxx::pack_load<N>(at.ptr(k + 1, j, i0)) : zero;  // in from below
    const P p_plus = dt * (kxx::max(a_w, zero) - kxx::min(a_e, zero) + kxx::max(a_s, zero) -
                           kxx::min(a_n, zero) + kxx::max(a_b, zero) - kxx::min(a_t, zero));
    const P p_minus = dt * (kxx::max(a_e, zero) - kxx::min(a_w, zero) + kxx::max(a_n, zero) -
                            kxx::min(a_s, zero) + kxx::max(a_t, zero) - kxx::min(a_b, zero));
    const P vol = kxx::pack_load<N>(g.area.ptr(j, i0)) * g.dz[k];
    const P q_plus = (qmax - t_c) * vol;
    const P q_minus = (t_c - qmin) * vol;
    const P one(1.0);
    const P r_p = kxx::select(p_plus > 0.0, kxx::min(one, q_plus / p_plus), zero);
    const P r_m = kxx::select(p_minus > 0.0, kxx::min(one, q_minus / p_minus), zero);
    kxx::pack_store<N>(rp.ptr(k, j, i0), kxx::select(act, r_p, zero));
    kxx::pack_store<N>(rm.ptr(k, j, i0), kxx::select(act, r_m, zero));
  }
};

/// Stage 4: apply limited anti-diffusive fluxes. Packed across i like
/// RFactors; the face coefficient min(r+, r-) is picked per lane by the sign
/// of the face flux, and the vertical faces by each lane's own kmt.
struct Correct {
  Geo g;
  CF3 q, qtd, ae, an, at, rp, rm;
  F3 qout;
  double dt;

  void operator()(long long k, long long j, long long i) const {
    pack_op<1>(k, j, i, kxx::Mask<1>::all_true());
  }

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
    kxx::Mask<N> act, top, bot;
    for (int l = 0; l < N; ++l) {
      const int kc = g.kmt(j, i0 + l);
      act.set(l, k < kc);
      top.set(l, k > 0 && k < kc);  // limited_t(k) guard
      bot.set(l, k + 1 < kc);       // limited_t(k + 1) guard
    }
    const P q_c = kxx::pack_load<N>(q.ptr(k, j, i0));
    if (act.none()) {
      kxx::pack_store<N>(qout.ptr(k, j, i0), q_c);
      return;
    }
    const P zero(0.0);
    // The limited flux c * a through one face: c = min(r+ downstream,
    // r- upstream) for a >= 0, else min(r+ upstream, r- downstream).
    auto limited = [](const P& a, const P& rp_to, const P& rm_from, const P& rp_from,
                      const P& rm_to) __attribute__((always_inline)) {
      return kxx::select(a >= 0.0, kxx::min(rp_to, rm_from), kxx::min(rp_from, rm_to)) * a;
    };
    const P rp_c = kxx::pack_load<N>(rp.ptr(k, j, i0));
    const P rm_c = kxx::pack_load<N>(rm.ptr(k, j, i0));
    const P rp_e = kxx::pack_load<N>(rp.ptr(k, j, i0 + 1));
    const P rm_e = kxx::pack_load<N>(rm.ptr(k, j, i0 + 1));
    const P rp_w = kxx::pack_load<N>(rp.ptr(k, j, i0 - 1));
    const P rm_w = kxx::pack_load<N>(rm.ptr(k, j, i0 - 1));
    const P rp_n = kxx::pack_load<N>(rp.ptr(k, j + 1, i0));
    const P rm_n = kxx::pack_load<N>(rm.ptr(k, j + 1, i0));
    const P rp_s = kxx::pack_load<N>(rp.ptr(k, j - 1, i0));
    const P rm_s = kxx::pack_load<N>(rm.ptr(k, j - 1, i0));
    const P f_e = limited(kxx::pack_load<N>(ae.ptr(k, j, i0)), rp_e, rm_c, rp_c, rm_e);
    const P f_w = limited(kxx::pack_load<N>(ae.ptr(k, j, i0 - 1)), rp_c, rm_w, rp_w, rm_c);
    const P f_n = limited(kxx::pack_load<N>(an.ptr(k, j, i0)), rp_n, rm_c, rp_c, rm_n);
    const P f_s = limited(kxx::pack_load<N>(an.ptr(k, j - 1, i0)), rp_c, rm_s, rp_s, rm_c);
    // Vertical faces: a > 0 is upward, into the cell above.
    P f_t = zero;
    if (k > 0) {
      const P rp_u = kxx::pack_load<N>(rp.ptr(k - 1, j, i0));
      const P rm_u = kxx::pack_load<N>(rm.ptr(k - 1, j, i0));
      f_t = kxx::select(top, limited(kxx::pack_load<N>(at.ptr(k, j, i0)), rp_u, rm_c, rp_c, rm_u),
                        zero);
    }
    P f_b = zero;
    if (k + 1 < g.nz) {
      const P rp_d = kxx::pack_load<N>(rp.ptr(k + 1, j, i0));
      const P rm_d = kxx::pack_load<N>(rm.ptr(k + 1, j, i0));
      f_b = kxx::select(
          bot, limited(kxx::pack_load<N>(at.ptr(k + 1, j, i0)), rp_c, rm_d, rp_d, rm_c), zero);
    }
    const P vol = kxx::pack_load<N>(g.area.ptr(j, i0)) * g.dz[k];
    const P div = f_e - f_w + f_n - f_s + f_t - f_b;
    const P t_c = kxx::pack_load<N>(qtd.ptr(k, j, i0));
    kxx::pack_store<N>(qout.ptr(k, j, i0), kxx::select(act, t_c - dt * div / vol, q_c));
  }
};

}  // namespace adv
}  // namespace licomk::core

KXX_REGISTER_FOR_3D(adv_flux_east, licomk::core::adv::FluxEast);
KXX_REGISTER_FOR_3D(adv_flux_north, licomk::core::adv::FluxNorth);
KXX_REGISTER_FOR_2D(adv_w_continuity, licomk::core::adv::WContinuity);
KXX_REGISTER_FOR_2D(adv_gm_bolus, licomk::core::adv::GmBolus);
KXX_REGISTER_FOR_3D(adv_low_order, licomk::core::adv::LowOrder);
KXX_REGISTER_FOR_3D(adv_low_order_pair, licomk::core::adv::FusedLowOrderPair);
KXX_REGISTER_FOR_3D(adv_anti_east, licomk::core::adv::AntiDiffEast);
KXX_REGISTER_FOR_3D(adv_anti_north, licomk::core::adv::AntiDiffNorth);
KXX_REGISTER_FOR_3D(adv_anti_top, licomk::core::adv::AntiDiffTop);
KXX_REGISTER_FOR_3D(adv_r_factors, licomk::core::adv::RFactors);
KXX_REGISTER_FOR_3D(adv_correct, licomk::core::adv::Correct);

namespace licomk::core {

namespace {

adv::Geo make_geo(const LocalGrid& g) {
  adv::Geo geo;
  geo.kmt = cref(g.kmt_view());
  geo.area = cref(g.area_view());
  geo.dyu = cref(g.dyu_view());
  geo.dxu = cref(g.dxu_view());
  geo.dz = g.vertical().thicknesses().data();
  geo.nz = g.nz();
  geo.seam_j = g.seam_row() >= 0 ? g.seam_row() : -2;
  return geo;
}

kxx::MDRangePolicy3 cells3(const LocalGrid& g, int margin) {
  // Cells [margin, n_total - margin) in both horizontal directions, all k.
  return kxx::MDRangePolicy3({0, margin, margin},
                             {g.nz(), g.ny_total() - margin, g.nx_total() - margin});
}

/// Stage 2b for one tracer, shared by both advection entry points: the
/// anti-diffusive fluxes over the full face-valid regions (the limiter reads
/// them one ring out).
void anti_diffusive_fluxes(const LocalGrid& g, const adv::Geo& geo, const halo::BlockField3D& q,
                           const AdvectionWorkspace& ws, halo::BlockField3D& a_e,
                           halo::BlockField3D& a_n, halo::BlockField3D& a_t) {
  const int nyt = g.ny_total();
  const int nxt = g.nx_total();
  adv::AntiDiffEast ade{geo, cref(q), cref(ws.flux_e), mref(a_e)};
  kxx::parallel_for("adv_anti_east", kxx::MDRangePolicy3({0, 1, 0}, {g.nz(), nyt, nxt - 1}),
                    ade);
  adv::AntiDiffNorth adn{geo, cref(q), cref(ws.flux_n), mref(a_n)};
  kxx::parallel_for("adv_anti_north", kxx::MDRangePolicy3({0, 0, 1}, {g.nz(), nyt - 1, nxt}),
                    adn);
  adv::AntiDiffTop adt{geo, cref(q), cref(ws.w_top), mref(a_t)};
  kxx::parallel_for("adv_anti_top", cells3(g, 1), adt);
}

/// Stages 3-4 for one tracer, shared by both advection entry points: the
/// limiter factors on interior + 1 ring, then the corrected update on the
/// interior, both packed across i.
void limit_and_correct(const LocalGrid& g, const adv::Geo& geo, double dt,
                       const halo::BlockField3D& q, const halo::BlockField3D& q_td,
                       const halo::BlockField3D& a_e, const halo::BlockField3D& a_n,
                       const halo::BlockField3D& a_t, halo::BlockField3D& r_plus,
                       halo::BlockField3D& r_minus, halo::BlockField3D& q_out) {
  const int h = decomp::kHaloWidth;
  adv::RFactors rf{geo,       cref(q),      cref(q_td),    cref(a_e),     cref(a_n),
                   cref(a_t), mref(r_plus), mref(r_minus), dt};
  kxx::parallel_for_packed("adv_r_factors", cells3(g, 1), rf);
  adv::Correct cr{geo,          cref(q),       cref(q_td), cref(a_e),    cref(a_n),
                  cref(a_t),    cref(r_plus),  cref(r_minus), mref(q_out), dt};
  kxx::parallel_for_packed(
      "adv_correct",
      kxx::MDRangePolicy3({0, h, h}, {g.nz(), g.ny_total() - h, g.nx_total() - h}), cr);
  q_out.mark_dirty();
}

}  // namespace

AdvectionWorkspace::AdvectionWorkspace(const LocalGrid& g)
    : flux_e("adv_flux_e", g.extent(), g.nz()),
      flux_n("adv_flux_n", g.extent(), g.nz()),
      w_top("adv_w_top", g.extent(), g.nz()),
      a_e("adv_a_e", g.extent(), g.nz()),
      a_n("adv_a_n", g.extent(), g.nz()),
      a_t("adv_a_t", g.extent(), g.nz()),
      q_td("adv_q_td", g.extent(), g.nz()),
      r_plus("adv_r_plus", g.extent(), g.nz()),
      r_minus("adv_r_minus", g.extent(), g.nz()) {}

void compute_volume_fluxes(const LocalGrid& g, const halo::BlockField3D& u,
                           const halo::BlockField3D& v, AdvectionWorkspace& ws,
                           double gm_kappa, const halo::BlockField3D* rho) {
  adv::Geo geo = make_geo(g);
  const int nyt = g.ny_total();
  const int nxt = g.nx_total();

  adv::FluxEast fe{geo, cref(u), mref(ws.flux_e)};
  // Single-plane tiles: small LDM slabs and > 64 tiles even on test grids,
  // so the AthreadSim double-buffered prefetch has a next tile to fetch.
  kxx::parallel_for("adv_flux_east",
                    kxx::MDRangePolicy3({0, 1, 0}, {g.nz(), nyt, nxt - 1}, {1, 4, 64}), fe);
  adv::FluxNorth fn{geo, cref(v), mref(ws.flux_n)};
  kxx::parallel_for("adv_flux_north",
                    kxx::MDRangePolicy3({0, 0, 1}, {g.nz(), nyt - 1, nxt}, {1, 4, 64}), fn);

  if (gm_kappa > 0.0 && rho != nullptr) {
    adv::GmBolus ge{geo, cref(*rho), mref(ws.flux_e), cref(g.dyu_view()),
                    g.vertical().centers().data(), gm_kappa, 0, geo.seam_j};
    kxx::parallel_for("adv_gm_bolus_e", kxx::MDRangePolicy2({1, 0}, {nyt, nxt - 1}), ge);
    adv::GmBolus gn{geo, cref(*rho), mref(ws.flux_n), cref(g.dxu_view()),
                    g.vertical().centers().data(), gm_kappa, 1, geo.seam_j};
    kxx::parallel_for("adv_gm_bolus_n", kxx::MDRangePolicy2({0, 1}, {nyt - 1, nxt}), gn);
  }

  adv::WContinuity wc{geo, cref(ws.flux_e), cref(ws.flux_n), mref(ws.w_top)};
  kxx::parallel_for("adv_w_continuity", kxx::MDRangePolicy2({1, 1}, {nyt - 1, nxt - 1}), wc);
  ws.flux_e.mark_dirty();
  ws.flux_n.mark_dirty();
  ws.w_top.mark_dirty();
}

void advect_tracer_fct(const LocalGrid& g, double dt, const halo::BlockField3D& q,
                       AdvectionWorkspace& ws, halo::HaloExchanger& exchanger,
                       halo::BlockField3D& q_out) {
  adv::Geo geo = make_geo(g);

  // Stage 2: monotone predictor on interior + 1 ring, then the
  // anti-diffusive fluxes.
  adv::LowOrder lo{geo, cref(q), cref(ws.flux_e), cref(ws.flux_n), cref(ws.w_top),
                   mref(ws.q_td), dt};
  kxx::parallel_for("adv_low_order", cells3(g, 1), lo);
  ws.q_td.mark_dirty();

  // The limiter needs q_td at the neighbors of ring-1 cells: one halo update
  // (this mid-kernel exchange is why advection dominates the halo budget).
  // Split-phase (§V-D overlap): the anti-diffusive fluxes do not read q_td,
  // so they compute while the q_td boundary messages are in flight.
  auto pending = exchanger.begin_update(ws.q_td);

  anti_diffusive_fluxes(g, geo, q, ws, ws.a_e, ws.a_n, ws.a_t);

  exchanger.finish_update(pending);

  limit_and_correct(g, geo, dt, q, ws.q_td, ws.a_e, ws.a_n, ws.a_t, ws.r_plus, ws.r_minus,
                    q_out);
}

TracerAdvScratch::TracerAdvScratch(const LocalGrid& g)
    : q_td("adv_q_td_b", g.extent(), g.nz()),
      a_e("adv_a_e_b", g.extent(), g.nz()),
      a_n("adv_a_n_b", g.extent(), g.nz()),
      a_t("adv_a_t_b", g.extent(), g.nz()),
      r_plus("adv_r_plus_b", g.extent(), g.nz()),
      r_minus("adv_r_minus_b", g.extent(), g.nz()) {}

void advect_tracer_pair(const LocalGrid& g, double dt, const halo::BlockField3D& qa,
                        const halo::BlockField3D& qb, AdvectionWorkspace& ws,
                        TracerAdvScratch& scratch, halo::PersistentGroup& qtd_group,
                        halo::BlockField3D& qa_out, halo::BlockField3D& qb_out) {
  adv::Geo geo = make_geo(g);

  // Monotone predictors for both tracers before any communication, so the
  // whole aggregated q_td exchange overlaps both tracers' flux kernels. One
  // fused, packed sweep shares the fe/fn/w loads between both tracers'
  // donor-cell updates (bit-identical to two LowOrder passes).
  adv::FusedLowOrderPair lo{geo,             cref(qa),        cref(qb),
                            cref(ws.flux_e), cref(ws.flux_n), cref(ws.w_top),
                            mref(ws.q_td),   mref(scratch.q_td), dt};
  kxx::parallel_for_packed("adv_low_order_pair", cells3(g, 1), lo);
  // Elided: the second predictor's re-reads of the three flux fields.
  kxx::note_fusion_views_elided(3LL * g.nz() * (g.ny_total() - 2) * (g.nx_total() - 2) *
                                static_cast<long long>(sizeof(double)));
  ws.q_td.mark_dirty();
  scratch.q_td.mark_dirty();

  // One fused exchange for both provisional fields — the busiest per-field
  // traffic of the step collapses to one message per peer per phase.
  qtd_group.begin();

  anti_diffusive_fluxes(g, geo, qa, ws, ws.a_e, ws.a_n, ws.a_t);
  anti_diffusive_fluxes(g, geo, qb, ws, scratch.a_e, scratch.a_n, scratch.a_t);

  qtd_group.finish();

  limit_and_correct(g, geo, dt, qa, ws.q_td, ws.a_e, ws.a_n, ws.a_t, ws.r_plus, ws.r_minus,
                    qa_out);
  limit_and_correct(g, geo, dt, qb, scratch.q_td, scratch.a_e, scratch.a_n, scratch.a_t,
                    scratch.r_plus, scratch.r_minus, qb_out);
}

}  // namespace licomk::core
