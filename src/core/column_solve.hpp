// column_solve.hpp — the implicit vertical-mixing tridiagonal solve, packed
// across independent columns.
//
// SCREAM packs over columns, not levels: a Thomas sweep is sequential in k,
// but N neighboring columns are independent, so lane l of a pack carries
// column i0 + l through its own sweep. Column scratch is level-major and
// lane-minor — value (k, lane l) sits at [k * N + l] — so every level of the
// sweep is one contiguous N-wide lane loop. Lanes end at their own depth
// (per-lane nlev); levels below a lane's bottom are never touched.
//
// Several right-hand sides that share a diffusivity profile (t and s against
// kappa_t, u and v against kappa_m) share one factorization: the elimination
// multipliers and pivots are computed once and applied to every RHS. Each
// RHS sees exactly the FP ops of a separate scalar solve, in the same order,
// so the result is bit-identical to one scalar call per column per RHS.
#pragma once

#include "kxx/pack.hpp"

namespace licomk::core {

/// Columns never exceed this (Table III tops out at 244 levels); column
/// functors use fixed-size stack scratch so they stay trivially copyable and
/// fit the CPE LDM model.
inline constexpr int kMaxLevels = 256;

/// Solve (I - dt * d/dz kappa d/dz) x = rhs with zero-flux boundaries for N
/// columns and R right-hand sides at once. `kappa_face[k * N + l]` sits below
/// cell k of lane l; `dz`/`zc` are the (shared) layer thicknesses and cell
/// centers; `x[r][k * N + l]` is the r-th RHS on input and its solution on
/// output. A lane with nlev < 2 is left untouched (the single-cell system is
/// the identity), as is every level at or below a lane's nlev. Every lane's
/// kappa_face must be readable down to the deepest lane's last face above
/// its bottom (levels < max(nlev) - 1); the values below a lane's own
/// bottom are read but never used. Requires max(nlev) <= kMaxLevels.
template <int N, int R>
inline void implicit_vertical_solve_packed(const int (&nlev)[N], double dt,
                                           const double* kappa_face, const double* dz,
                                           const double* zc, double* const (&x)[R]) {
  int n[N];
  int nmax = 0;
  for (int l = 0; l < N; ++l) {
    n[l] = nlev[l] >= 2 ? nlev[l] : 0;
    nmax = n[l] > nmax ? n[l] : nmax;
  }
  if (nmax == 0) return;
  using P = kxx::Pack<double, N>;
  const P zero(0.0);
  double b[kMaxLevels * N];  // pivots after elimination
  double c[kMaxLevels * N];  // super-diagonal

  // Build row k and eliminate it against row k-1 in one pass. The level
  // spacings are shared by every lane; each lane's coefficient expressions
  // are the scalar ones, so lam_up/lam_dn/b/c/m match bit for bit. Lane
  // conditions are int masks applied by kxx::select after the arithmetic
  // (DESIGN.md §12.1), and the previous row's pivot, super-diagonal and
  // solutions ride along as packs, so each level stays a handful of N-wide
  // operations. Row 0 has no coupling above (nmax >= 2, so it always has
  // one below); the bottom row reads no face below it.
  int below[N];  // lane has a face below row k
  for (int l = 0; l < N; ++l) below[l] = 0 < n[l] - 1;
  const P lam_dn0 =
      kxx::select(below, dt * kxx::pack_load<N>(kappa_face) / (dz[0] * (zc[1] - zc[0])), zero);
  P b_prev = 1.0 + zero + lam_dn0;
  P c_prev = -lam_dn0;
  kxx::pack_store<N>(b, b_prev);
  kxx::pack_store<N>(c, c_prev);
  P x_prev[R];
  for (int r = 0; r < R; ++r) x_prev[r] = kxx::pack_load<N>(x[r]);
  for (int k = 1; k < nmax; ++k) {
    int live[N];
    for (int l = 0; l < N; ++l) {
      live[l] = k < n[l];
      below[l] = k < n[l] - 1;
    }
    const P lam_up = kxx::select(
        live, dt * kxx::pack_load<N>(kappa_face + (k - 1) * N) / (dz[k] * (zc[k] - zc[k - 1])),
        zero);
    const P lam_dn =
        k + 1 < nmax
            ? kxx::select(below,
                          dt * kxx::pack_load<N>(kappa_face + k * N) /
                              (dz[k] * (zc[k + 1] - zc[k])),
                          zero)
            : zero;
    const P a = -lam_up;
    const P m = a / b_prev;
    b_prev = 1.0 + lam_up + lam_dn - m * c_prev;
    c_prev = -lam_dn;
    kxx::pack_store<N>(b + k * N, b_prev);
    kxx::pack_store<N>(c + k * N, c_prev);
    for (int r = 0; r < R; ++r) {
      double* xk = x[r] + k * N;
      const P xv = kxx::pack_load<N>(xk);
      x_prev[r] = kxx::select(live, xv - m * x_prev[r], xv);
      kxx::pack_store<N>(xk, x_prev[r]);
    }
  }

  // Back substitution: a lane's bottom row divides by its pivot, the rows
  // above it subtract the coupling to the row below first.
  for (int k = nmax - 1; k >= 0; --k) {
    int live[N], last[N];
    for (int l = 0; l < N; ++l) {
      live[l] = k < n[l];
      last[l] = k == n[l] - 1;
    }
    const P bk = kxx::pack_load<N>(b + k * N);
    const P ck = kxx::pack_load<N>(c + k * N);
    for (int r = 0; r < R; ++r) {
      double* xk = x[r] + k * N;
      const P xv = kxx::pack_load<N>(xk);
      const P num = k + 1 < nmax
                        ? kxx::select(last, xv, xv - ck * kxx::pack_load<N>(xk + N))
                        : xv;
      kxx::pack_store<N>(xk, kxx::select(live, num / bk, xv));
    }
  }
}

}  // namespace licomk::core
