// dynamics.hpp — the dynamical-core kernels of LICOMK++.
//
// The per-step structure mirrors LICOM (readyt → readyc → barotr → bclinc;
// §V-A): density and hydrostatic pressure, explicit momentum tendencies,
// the split-explicit barotropic sub-cycle (leapfrog + Robert–Asselin), and
// the baroclinic velocity update with semi-implicit Coriolis and implicit
// vertical viscosity, re-anchored to the barotropic depth mean.
#pragma once

#include "core/model_config.hpp"
#include "core/polar_filter.hpp"
#include "core/state.hpp"
#include "halo/halo_exchange.hpp"

namespace licomk::core {

/// readyt 1: density anomaly from the EOS (masked land untouched).
void compute_density(const LocalGrid& g, bool linear_eos, const halo::BlockField3D& t,
                     const halo::BlockField3D& s, halo::BlockField3D& rho);

/// readyt 2: hydrostatic pressure / rho0 (m^2/s^2) including the free-surface
/// contribution g*eta.
void compute_pressure(const LocalGrid& g, const halo::BlockField3D& rho,
                      const halo::BlockField2D& eta, halo::BlockField3D& pressure);

/// readyc: explicit momentum tendencies at U corners — baroclinic pressure
/// gradient, centered horizontal advection, Laplacian viscosity, wind stress
/// in the top layer, linear bottom drag in the deepest active layer.
/// Coriolis is NOT included (handled semi-implicitly in the updates).
void compute_momentum_tendencies(const LocalGrid& g, const ModelConfig& cfg,
                                 const OceanState& state, double day_of_year,
                                 halo::BlockField3D& fu, halo::BlockField3D& fv);

/// Vertical mean of a U-corner field weighted by layer thickness (2-D out).
void vertical_mean(const LocalGrid& g, const halo::BlockField3D& x3, halo::BlockField2D& out);

/// Fused readyt: density and the hydrostatic pressure integral in ONE column
/// sweep — ρ(k) stays in registers while the integral accumulates, eliding
/// the pressure kernel's full re-read of the rho View. Packed (SIMD) over i
/// when the pack width allows. Bit-identical to compute_density +
/// compute_pressure (DESIGN.md §12).
void compute_density_pressure_fused(const LocalGrid& g, bool linear_eos,
                                    const halo::BlockField3D& t, const halo::BlockField3D& s,
                                    halo::BlockField3D& rho, const halo::BlockField2D& eta,
                                    halo::BlockField3D& pressure);

/// Fused readyc: momentum tendencies and BOTH dz-weighted vertical means in
/// one column sweep — gu/gv accumulate into the means from registers, eliding
/// the two vertical_mean re-reads of fu/fv. Packed over i. Bit-identical to
/// compute_momentum_tendencies + 2× vertical_mean.
void compute_tendency_means_fused(const LocalGrid& g, const ModelConfig& cfg,
                                  const OceanState& state, double day_of_year,
                                  halo::BlockField3D& fu, halo::BlockField3D& fv,
                                  halo::BlockField2D& gu_bar, halo::BlockField2D& gv_bar);

/// barotr: run the barotropic sub-cycle for one baroclinic step. Uses the
/// depth-mean of (fu, fv) as steady forcing, leapfrogs (eta, ubar, vbar) with
/// Asselin filtering, per-substep 2-D halo updates, and the polar zonal
/// filter (external gravity waves at the fold rows exceed the explicit CFL
/// limit without it), and returns the sub-cycle-averaged barotropic velocity
/// in (ubar_avg, vbar_avg).
///
/// When `subcycle_group` is non-null it must be a PersistentGroup enrolling
/// exactly (eta_cur, ubar_cur, vbar_cur) with the signs used here; the
/// substep exchanges then run through the cached persistent plan instead of
/// a per-call ExchangeGroup, and — when the filter is active — the main
/// per-substep exchange is zonal-only (the filter's closing full exchange
/// rebuilds every ghost before anything reads meridional/fold halos).
/// Bit-identical either way.
void run_barotropic(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                    halo::HaloExchanger& exchanger, const PolarFilter& filter,
                    const halo::BlockField2D& gu_bar, const halo::BlockField2D& gv_bar,
                    halo::BlockField2D& ubar_avg, halo::BlockField2D& vbar_avg,
                    halo::PersistentGroup* subcycle_group = nullptr);

/// bclinc: leapfrog the baroclinic velocity with semi-implicit Coriolis,
/// implicit vertical viscosity, barotropic re-anchoring to (ubar_avg,
/// vbar_avg), and the Asselin filter on the central level. Writes u_new/v_new
/// and filters u_cur/v_cur in place. Halos of the new fields are NOT updated.
void baroclinic_update(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                       const halo::BlockField2D& ubar_avg, const halo::BlockField2D& vbar_avg);

/// Tridiagonal (Thomas) solve of the implicit vertical mixing system for one
/// column: (I - dt * d/dz kappa d/dz) x = rhs, zero-flux boundaries.
/// `kappa_face[k]` sits below cell k; `dz[k]` are thicknesses; `zc[k]` cell
/// centers. x is rhs on input, solution on output. The one-lane, one-RHS
/// instance of implicit_vertical_solve_packed (column_solve.hpp), the only
/// body of the algorithm. Exposed for unit tests.
void implicit_vertical_solve(int nlev, double dt, const double* kappa_face, const double* dz,
                             const double* zc, double* x);

}  // namespace licomk::core
