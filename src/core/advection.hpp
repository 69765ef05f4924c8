// advection.hpp — two-step shape-preserving tracer advection.
//
// LICOM's tracer transport uses the two-step shape-preserving scheme of
// Yu (1994) (paper §V-A): a monotone low-order (donor-cell) predictor
// followed by a limited anti-diffusive corrector — the flux-corrected
// transport structure, here with the Zalesak limiter. The guarantee tests
// rely on: the corrected field never develops extrema outside the local
// range of the predictor and the previous field, and with no-flux
// boundaries the tracer volume integral is conserved to round-off.
//
// This is the paper's `advection_tracer` hotspot (§V-C2): 3-D stencils over
// many arrays with low arithmetic intensity. All stages are registered kxx
// functors, so the kernel runs on every backend including AthreadSim.
#pragma once

#include "core/field_ref.hpp"
#include "core/local_grid.hpp"
#include "halo/halo_exchange.hpp"
#include "halo/persistent_group.hpp"

namespace licomk::core {

/// Scratch fields reused across tracers and steps (allocate once).
struct AdvectionWorkspace {
  halo::BlockField3D flux_e, flux_n;   ///< face volume fluxes, m^3/s
  halo::BlockField3D w_top;            ///< top-face volume flux (up positive)
  halo::BlockField3D a_e, a_n, a_t;    ///< anti-diffusive tracer fluxes
  halo::BlockField3D q_td;             ///< low-order provisional field
  halo::BlockField3D r_plus, r_minus;  ///< Zalesak limiter factors
  /// Biharmonic first-pass Laplacians of t and s (allocated on first use).
  halo::BlockField3D hmix_lap, hmix_lap_s;

  explicit AdvectionWorkspace(const LocalGrid& g);
};

/// Compute face volume fluxes from B-grid corner velocities and the vertical
/// flux from discrete continuity (zero at the bottom; the residual at the
/// surface is absorbed by the free surface, so w_top(0) is excluded from
/// tracer transport). Fluxes at faces touching land are zero.
///
/// When `gm_kappa > 0` (with `rho` supplied), Gent–McWilliams bolus volume
/// fluxes are added to the horizontal fluxes before the continuity pass: the
/// eddy-induced streamfunction is psi = kappa * S (S = tapered isopycnal
/// slope), the bolus velocity u* = -d(psi)/dz integrates to zero over each
/// face column (psi vanishes at surface and bottom), and the bolus w*
/// emerges from the same discrete continuity as the resolved flow — so the
/// FCT transport stays exactly conservative and shape-preserving.
void compute_volume_fluxes(const LocalGrid& g, const halo::BlockField3D& u,
                           const halo::BlockField3D& v, AdvectionWorkspace& ws,
                           double gm_kappa = 0.0, const halo::BlockField3D* rho = nullptr);

/// Advect tracer `q` (valid halo) through the fluxes in `ws` over `dt`
/// seconds, writing `q_out` on the interior. Performs one halo update of the
/// provisional field (through `exchanger`), as the original does inside its
/// advection routine. `q_out` interior is complete; its halo is NOT updated.
void advect_tracer_fct(const LocalGrid& g, double dt, const halo::BlockField3D& q,
                       AdvectionWorkspace& ws, halo::HaloExchanger& exchanger,
                       halo::BlockField3D& q_out);

/// Second set of per-tracer scratch fields so advect_tracer_pair can carry
/// two tracers through the FCT stages at once (the volume fluxes in
/// AdvectionWorkspace are shared read-only). Allocate once per rank.
struct TracerAdvScratch {
  halo::BlockField3D q_td, a_e, a_n, a_t, r_plus, r_minus;

  explicit TracerAdvScratch(const LocalGrid& g);
};

/// Advect two tracers through the same fluxes, exchanging the two provisional
/// q_td fields through ONE fused group exchange that overlaps both tracers'
/// anti-diffusive flux kernels. `qtd_group` must enroll exactly
/// (ws.q_td, scratch.q_td); its cached plan is reused every call.
/// Bit-identical to two sequential advect_tracer_fct calls (asserted in
/// test_advection); tracer `qa` uses the workspace scratch, `qb` the
/// TracerAdvScratch. Both tracers' monotone predictors run as one fused,
/// packed sweep (FusedLowOrderPair, on every backend): the volume-flux loads
/// fe/fn/w are shared instead of re-read per tracer.
void advect_tracer_pair(const LocalGrid& g, double dt, const halo::BlockField3D& qa,
                        const halo::BlockField3D& qb, AdvectionWorkspace& ws,
                        TracerAdvScratch& scratch, halo::PersistentGroup& qtd_group,
                        halo::BlockField3D& qa_out, halo::BlockField3D& qb_out);

}  // namespace licomk::core
