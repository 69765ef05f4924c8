// state.hpp — the prognostic and diagnostic state of one rank's block.
//
// Leapfrog time stepping keeps two time levels (old/cur) of the prognostic
// variables; step kernels produce the new level into scratch and the model
// rotates. 3-D fields are (nz, ny+2h, nx+2h) horizontal-major; 2-D barotropic
// fields are (ny+2h, nx+2h).
#pragma once

#include <string>
#include <vector>

#include "core/local_grid.hpp"
#include "halo/block_field.hpp"

namespace licomk::core {

struct OceanState {
  /// Baroclinic velocity at B-grid corners (m/s), two time levels + scratch.
  halo::BlockField3D u_old, u_cur, u_new;
  halo::BlockField3D v_old, v_cur, v_new;

  /// Tracers at T points: potential temperature (degC), salinity (psu).
  halo::BlockField3D t_old, t_cur, t_new;
  halo::BlockField3D s_old, s_cur, s_new;

  /// Barotropic system: free surface (m) at T points, depth-mean velocity
  /// (m/s) at U points; two leapfrog levels each.
  halo::BlockField2D eta_old, eta_cur, eta_new;
  halo::BlockField2D ubar_old, ubar_cur, ubar_new;
  halo::BlockField2D vbar_old, vbar_cur, vbar_new;

  /// Diagnostics recomputed every step.
  halo::BlockField3D rho;       ///< density anomaly (kg/m^3)
  halo::BlockField3D pressure;  ///< hydrostatic pressure anomaly / rho0 (m^2/s^2)
  halo::BlockField3D kappa_m;   ///< vertical viscosity at cell BOTTOM faces
  halo::BlockField3D kappa_t;   ///< vertical diffusivity at cell BOTTOM faces
  halo::BlockField3D fu_tend;   ///< momentum tendency, zonal
  halo::BlockField3D fv_tend;   ///< momentum tendency, meridional

  OceanState() = default;

  /// Allocate all fields for `grid` and install the analytic initial
  /// stratification (forcing.hpp) with land cells zeroed/masked.
  explicit OceanState(const LocalGrid& grid);

  /// Rotate leapfrog levels after a completed step: old <- cur <- new.
  void rotate_velocity();
  void rotate_tracers();
  void rotate_barotropic();
};

/// --- the canonical checkpointed field set -----------------------------------
/// One ordering shared by the restart writer/reader, the checkpoint
/// redistributor, and the per-field CRC table of the .lrs v3 format: both
/// leapfrog levels of every prognostic variable, 3-D fields first.
/// Scratch (*_new) and diagnostic fields are recomputed, never checkpointed.

std::vector<const halo::BlockField3D*> prognostic_fields3(const OceanState& s);
std::vector<halo::BlockField3D*> prognostic_fields3(OceanState& s);
std::vector<const halo::BlockField2D*> prognostic_fields2(const OceanState& s);
std::vector<halo::BlockField2D*> prognostic_fields2(OceanState& s);

/// Field names in checkpoint order (8 3-D then 6 2-D entries).
const std::vector<std::string>& prognostic_field_names();

}  // namespace licomk::core
