// forcing.hpp — analytic surface forcing.
//
// The paper forces LICOMK++ with realistic reanalysis climatology; this
// reproduction substitutes a smooth analytic climatology (DESIGN.md §1) with
// the same structure: zonal wind stress with trade/westerly bands, surface
// restoring of temperature toward a warm-pool-bearing target SST, and weak
// salinity restoring. All functions are pure in (lon, lat, day-of-year).
#pragma once

#include <vector>

namespace licomk::core {

struct SurfaceForcing {
  double tau_x = 0.0;        ///< zonal wind stress, N/m^2
  double tau_y = 0.0;        ///< meridional wind stress, N/m^2
  double sst_target = 0.0;   ///< restoring target temperature, degC
  double sss_target = 35.0;  ///< restoring target salinity, psu
  double shortwave = 0.0;    ///< downward solar flux at the surface, W/m^2
};

/// Fraction of the surface shortwave flux remaining at depth z (meters):
/// the Jerlov type-I double-exponential water clarity profile,
/// R e^{-z/z1} + (1-R) e^{-z/z2} with R = 0.58, z1 = 0.35 m, z2 = 23 m.
double shortwave_fraction(double depth_m);

/// shortwave_fraction at each of `depths_m` — the per-level table the tracer
/// column reads. It depends only on the vertical grid, so a model builds it
/// once (from the nz + 1 interface depths) instead of every column
/// re-evaluating the exponentials each step.
std::vector<double> shortwave_fraction_table(const std::vector<double>& depths_m);

/// Climatological forcing at a point. `day_of_year` in [0, 365) introduces a
/// mild seasonal cycle (hemispheric SST swing and wind-band migration).
SurfaceForcing climatological_forcing(double lon_deg, double lat_deg, double day_of_year);

/// Initial stratification: temperature (degC) at depth (m), latitude (deg).
double initial_temperature(double lat_deg, double depth_m);

/// Initial salinity (psu) at depth (m), latitude (deg).
double initial_salinity(double lat_deg, double depth_m);

}  // namespace licomk::core
