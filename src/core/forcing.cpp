#include "core/forcing.hpp"

#include <cmath>

namespace licomk::core {

namespace {
constexpr double kPi = 3.14159265358979323846;
double deg2rad(double d) { return d * kPi / 180.0; }
}  // namespace

SurfaceForcing climatological_forcing(double lon_deg, double lat_deg, double day_of_year) {
  SurfaceForcing f;
  double phi = deg2rad(lat_deg);
  double season = std::cos(2.0 * kPi * (day_of_year - 15.0) / 365.0);  // +1 ≈ mid-January

  // Zonal wind stress: easterly trades, mid-latitude westerlies, polar
  // easterlies — the classic -cos(3φ) band structure, damped poleward.
  double band_shift = deg2rad(4.0) * season;  // seasonal migration of the bands
  f.tau_x = -0.08 * std::cos(3.0 * (phi + band_shift)) * std::exp(-(lat_deg * lat_deg) / (70.0 * 70.0));
  // Weak meridional component from band convergence.
  f.tau_y = 0.015 * std::sin(2.0 * phi);

  // Target SST: warm tropics, cold poles, a west-Pacific warm pool, and a
  // hemispherically antisymmetric seasonal swing.
  double coslat = std::cos(phi);
  double warm_pool =
      2.5 * std::exp(-std::pow((std::remainder(lon_deg - 150.0, 360.0)) / 40.0, 2.0)) *
      coslat * coslat;
  double hemisphere = lat_deg >= 0.0 ? 1.0 : -1.0;
  f.sst_target = -1.5 + 28.0 * coslat * coslat + warm_pool - 2.0 * season * hemisphere *
                                                               std::sin(std::fabs(phi));
  if (f.sst_target < -1.8) f.sst_target = -1.8;  // freezing limit

  // Target SSS: subtropical salinity maxima, fresher tropics and poles.
  f.sss_target = 34.6 + 1.2 * std::pow(std::sin(2.0 * phi), 2.0) - 0.4 * coslat * 0.5;

  // Daily-mean surface shortwave: solar declination cycle, zero in polar
  // night, peaking ~260 W/m^2 under the subsolar latitude.
  double declination = deg2rad(23.5) * std::cos(2.0 * kPi * (day_of_year - 172.0) / 365.0);
  double solar_angle = std::cos(phi - declination);
  f.shortwave = solar_angle > 0.0 ? 260.0 * solar_angle * solar_angle : 0.0;
  return f;
}

double shortwave_fraction(double depth_m) {
  constexpr double kR = 0.58;
  constexpr double kZ1 = 0.35;
  constexpr double kZ2 = 23.0;
  if (depth_m <= 0.0) return 1.0;
  return kR * std::exp(-depth_m / kZ1) + (1.0 - kR) * std::exp(-depth_m / kZ2);
}

std::vector<double> shortwave_fraction_table(const std::vector<double>& depths_m) {
  std::vector<double> table;
  table.reserve(depths_m.size());
  for (double z : depths_m) table.push_back(shortwave_fraction(z));
  return table;
}

double initial_temperature(double lat_deg, double depth_m) {
  double phi = deg2rad(lat_deg);
  double surface = -1.0 + 26.0 * std::cos(phi) * std::cos(phi);
  double deep = 1.5;
  // Exponential thermocline with an 800 m e-folding scale.
  return deep + (surface - deep) * std::exp(-depth_m / 800.0);
}

double initial_salinity(double lat_deg, double depth_m) {
  double phi = deg2rad(lat_deg);
  double surface = 34.6 + 1.0 * std::pow(std::sin(2.0 * phi), 2.0);
  double deep = 34.7;
  return deep + (surface - deep) * std::exp(-depth_m / 500.0);
}

}  // namespace licomk::core
