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
#include "halo/persistent_group.hpp"

namespace licomk::core {

/// Density anomaly from the EOS (masked land untouched). The per-kernel
/// reference for compute_density_pressure_fused.
void compute_density(const LocalGrid& g, bool linear_eos, const halo::BlockField3D& t,
                     const halo::BlockField3D& s, halo::BlockField3D& rho);

/// Hydrostatic pressure / rho0 (m^2/s^2) of the density alone: no g*eta
/// term, because barotr owns the surface slope force -g*grad(eta) and adding
/// it here would count it twice. The per-kernel reference for
/// compute_density_pressure_fused.
void compute_pressure(const LocalGrid& g, const halo::BlockField3D& rho,
                      halo::BlockField3D& pressure);

/// Explicit momentum tendencies at U corners — baroclinic pressure
/// gradient, centered horizontal advection, Laplacian viscosity, wind stress
/// in the top layer, linear bottom drag in the deepest active layer.
/// Coriolis is NOT included (handled semi-implicitly in the updates).
void compute_momentum_tendencies(const LocalGrid& g, const ModelConfig& cfg,
                                 const OceanState& state, double day_of_year,
                                 halo::BlockField3D& fu, halo::BlockField3D& fv);

/// Vertical mean of a U-corner field weighted by layer thickness (2-D out).
void vertical_mean(const LocalGrid& g, const halo::BlockField3D& x3, halo::BlockField2D& out);

/// readyt: density and the hydrostatic pressure integral in ONE column
/// sweep — ρ(k) stays in registers while the integral accumulates, eliding
/// the pressure kernel's full re-read of the rho View. Packed (SIMD) over i
/// when the pack width allows; the same fused kernel runs on every backend.
/// Bit-identical to compute_density + compute_pressure (DESIGN.md §12).
void compute_density_pressure_fused(const LocalGrid& g, bool linear_eos,
                                    const halo::BlockField3D& t, const halo::BlockField3D& s,
                                    halo::BlockField3D& rho, halo::BlockField3D& pressure);

/// readyc: momentum tendencies and BOTH dz-weighted vertical means in one
/// fused column sweep packed over i (eliding vertical_mean's re-reads of
/// fu/fv), or, where kxx::stages_through_ldm(), the LDM-staged per-kernel
/// compute_momentum_tendencies + 2× vertical_mean. Bit-identical either way.
void compute_tendency_means(const LocalGrid& g, const ModelConfig& cfg,
                            const OceanState& state, double day_of_year, halo::BlockField3D& fu,
                            halo::BlockField3D& fv, halo::BlockField2D& gu_bar,
                            halo::BlockField2D& gv_bar);

/// barotr: run the barotropic sub-cycle for one baroclinic step. Uses the
/// depth-mean of (fu, fv) as steady forcing, leapfrogs (eta, ubar, vbar) with
/// Asselin filtering, per-substep 2-D halo updates, and the polar zonal
/// filter (external gravity waves at the fold rows exceed the explicit CFL
/// limit without it), and returns the sub-cycle-averaged barotropic velocity
/// in (ubar_avg, vbar_avg).
///
/// `subcycle_group` must enroll exactly (eta_cur, ubar_cur, vbar_cur) with
/// the signs used here (Symmetric, Antisymmetric, Antisymmetric); when the
/// filter is active the main per-substep exchange is zonal-only (the
/// filter's closing full exchange rebuilds every ghost before anything reads
/// meridional/fold halos).
void run_barotropic(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                    const PolarFilter& filter, const halo::BlockField2D& gu_bar,
                    const halo::BlockField2D& gv_bar, halo::BlockField2D& ubar_avg,
                    halo::BlockField2D& vbar_avg, halo::PersistentGroup& subcycle_group);

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
