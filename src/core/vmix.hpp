// vmix.hpp — vertical mixing parameterizations.
//
// LICOMK++ introduces the Canuto second-order turbulence closure (Canuto et
// al. 2010; Huang et al. 2014) for kilometer-scale vertical mixing (§V-A);
// the Richardson-number (Pacanowski–Philander) scheme is kept as the
// baseline. Both reduce to stability functions of the gradient Richardson
// number Ri = N²/S². This file provides the pure point functions —
// unit-testable without a model — and the VerticalMixer, which evaluates
// them over a block as one packed kxx kernel (`vmix_coeffs`) with the
// optional Fig. 4 sea-point load balancing: ranks census their ocean columns
// once, compute the deterministic transfer plan, and every step ship the
// surplus columns' N²/S² to under-loaded ranks and collect coefficients back.
#pragma once

#include <vector>

#include "comm/communicator.hpp"
#include "core/local_grid.hpp"
#include "core/model_config.hpp"
#include "core/state.hpp"

namespace licomk::core {

/// Canuto-style stability functions of Ri (reduced rational fits with the
/// closure's qualitative structure: monotone decay for stable Ri, enhanced
/// mixing for unstable Ri, turbulent Prandtl number rising with Ri).
double canuto_sm(double ri);
double canuto_sh(double ri);

/// Blackadar master length scale at distance z below the surface (m).
double mixing_length(double z_below_surface);

struct MixingCoeffs {
  double km = 0.0;  ///< vertical viscosity, m^2/s
  double kt = 0.0;  ///< vertical diffusivity, m^2/s
};

/// Canuto closure at one interface. `shear2` = (du/dz)^2 + (dv/dz)^2.
/// Static convective adjustment (N² < 0 → kConvectiveKappa) included.
MixingCoeffs canuto_mixing(double n2, double shear2, double z_below_surface);

/// Pacanowski–Philander (1981) baseline.
MixingCoeffs richardson_mixing(double n2, double shear2);

/// Per-block vertical mixing driver.
class VerticalMixer {
 public:
  VerticalMixer(const LocalGrid& grid, comm::Communicator comm, VMixScheme scheme,
                bool load_balance);

  /// Fill state.kappa_m / state.kappa_t at the interior cell-bottom faces
  /// k < nz - 1 from the current density and velocity fields (0 at and below
  /// each column's bottom face). Halo cells and the plane nz - 1 are never
  /// written: they keep their zeros from construction, and the kappa halo
  /// exchange owns the ghosts. With load balancing on, the first call is
  /// collective (census + plan) and every call exchanges the shipped columns.
  void compute(OceanState& state);

  /// Work census of every compute() (columns evaluated on this rank, shipped
  /// out, and evaluated here for another rank). Fixed once the plan exists.
  long long columns_computed_locally() const { return local_columns_; }
  long long columns_shipped_out() const { return shipped_out_; }
  long long columns_received() const { return received_; }

 private:
  /// Surplus columns this rank ships to one peer.
  struct Outbound {
    int to = 0;
    long long columns = 0;
    std::vector<int> j, i;  ///< shipped columns, census order
  };
  /// Columns evaluated here for one peer.
  struct Inbound {
    int from = 0;
    long long columns = 0;
  };

  void build_plan();

  const LocalGrid& grid_;
  comm::Communicator comm_;
  VMixScheme scheme_;
  bool load_balance_;
  std::vector<double> dzc_;  ///< depth(k + 1) - depth(k) per interface
  std::vector<double> lm_;   ///< mixing length at interface k's depth
  /// kmt with the columns this rank ships set to 0, the levels the kernel
  /// evaluates here; allocated only when the plan ships columns (load
  /// balancing only moves columns out of this view). Unallocated, the
  /// kernel reads kmt itself.
  kxx::View<int, 2> retained_;
  bool planned_ = false;
  std::vector<Outbound> out_;
  std::vector<Inbound> in_;
  /// One message buffer for every shipment, sized for the largest: a request
  /// is levels[c], then the N² and S² planes (value (k, c) at k * columns +
  /// c); its response, the km and kt planes, is computed in place over the
  /// N² and S² planes. Sends are buffered, so the phases reuse it in turn.
  std::vector<double> msg_;
  long long local_columns_ = 0;
  long long shipped_out_ = 0;
  long long received_ = 0;
};

}  // namespace licomk::core
