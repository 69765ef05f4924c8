// Tests for the analytic surface forcing and initial stratification.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/forcing.hpp"
#include "core/model_config.hpp"
#include "util/config.hpp"

namespace lc = licomk::core;

TEST(Forcing, WindStressHasTradeAndWesterlyBands) {
  // Easterly trades near 10N, westerlies near 45N (annual mean, day 91 ~
  // equinox so the seasonal shift is near zero).
  auto trades = lc::climatological_forcing(180.0, 10.0, 91.0);
  auto westerlies = lc::climatological_forcing(180.0, 45.0, 91.0);
  EXPECT_LT(trades.tau_x, 0.0);
  EXPECT_GT(westerlies.tau_x, 0.0);
  // Magnitudes are ocean-like (0.01 .. 0.3 N/m^2).
  EXPECT_LT(std::fabs(trades.tau_x), 0.3);
  EXPECT_GT(std::fabs(trades.tau_x), 0.005);
}

TEST(Forcing, SstTargetWarmTropicsColdPoles) {
  auto tropics = lc::climatological_forcing(180.0, 0.0, 0.0);
  auto midlat = lc::climatological_forcing(180.0, 45.0, 0.0);
  auto polar = lc::climatological_forcing(180.0, 64.0, 0.0);
  EXPECT_GT(tropics.sst_target, midlat.sst_target);
  EXPECT_GT(midlat.sst_target, polar.sst_target);
  EXPECT_LT(tropics.sst_target, 35.0);
  EXPECT_GE(polar.sst_target, -1.8);  // freezing floor
}

TEST(Forcing, WestPacificWarmPool) {
  auto warm_pool = lc::climatological_forcing(150.0, 0.0, 0.0);
  auto east_pacific = lc::climatological_forcing(250.0, 0.0, 0.0);
  EXPECT_GT(warm_pool.sst_target, east_pacific.sst_target + 1.0);
}

TEST(Forcing, SeasonalCycleIsAntisymmetricAcrossHemispheres) {
  // January: northern winter, southern summer.
  auto north_jan = lc::climatological_forcing(180.0, 40.0, 15.0);
  auto north_jul = lc::climatological_forcing(180.0, 40.0, 197.0);
  auto south_jan = lc::climatological_forcing(180.0, -40.0, 15.0);
  auto south_jul = lc::climatological_forcing(180.0, -40.0, 197.0);
  EXPECT_LT(north_jan.sst_target, north_jul.sst_target);
  EXPECT_GT(south_jan.sst_target, south_jul.sst_target);
}

TEST(Forcing, SalinityTargetsSubtropicalMaxima) {
  auto subtropics = lc::climatological_forcing(180.0, 25.0, 0.0);
  auto equator = lc::climatological_forcing(180.0, 0.0, 0.0);
  EXPECT_GT(subtropics.sss_target, equator.sss_target);
  EXPECT_GT(subtropics.sss_target, 33.0);
  EXPECT_LT(subtropics.sss_target, 38.0);
}

TEST(Forcing, InitialTemperatureStratifiedAndBounded) {
  for (double lat : {-60.0, -30.0, 0.0, 30.0, 60.0}) {
    double prev = 1e9;
    for (double z : {0.0, 100.0, 500.0, 1000.0, 4000.0, 10000.0}) {
      double t = lc::initial_temperature(lat, z);
      EXPECT_LE(t, prev) << lat << " " << z;  // monotone cooling with depth
      EXPECT_GT(t, -2.5);
      EXPECT_LT(t, 32.0);
      prev = t;
    }
    // Deep ocean converges to a common abyssal temperature.
    EXPECT_NEAR(lc::initial_temperature(lat, 8000.0), 1.5, 0.2);
  }
  // Tropics warmer than poles at the surface.
  EXPECT_GT(lc::initial_temperature(0.0, 0.0), lc::initial_temperature(60.0, 0.0) + 10.0);
}

TEST(Forcing, InitialSalinityOceanLike) {
  for (double lat : {-50.0, 0.0, 25.0, 50.0}) {
    for (double z : {0.0, 500.0, 3000.0}) {
      double s = lc::initial_salinity(lat, z);
      EXPECT_GT(s, 32.0);
      EXPECT_LT(s, 38.0);
    }
  }
}

TEST(ModelConfig, FromConfigParsesEveryKnob) {
  auto cfg = licomk::util::Config::from_string(R"(
[model]
grid = eddy10km
shrink = 20
nz = 14
vmix = richardson
canuto_load_balance = false
linear_eos = true
horizontal_viscosity = 123.0
asselin_coeff = 0.07
restore_days = 10
halo3d = horizontal
eliminate_redundant_halo = false
fp32_barotropic = true
seed = 99
)");
  auto mc = lc::ModelConfig::from_config(cfg);
  EXPECT_EQ(mc.grid.nx, 3600 / 20);
  EXPECT_EQ(mc.grid.nz, 14);
  EXPECT_EQ(mc.vmix, lc::VMixScheme::Richardson);
  EXPECT_FALSE(mc.canuto_load_balance);
  EXPECT_TRUE(mc.linear_eos);
  EXPECT_DOUBLE_EQ(mc.horizontal_viscosity, 123.0);
  EXPECT_DOUBLE_EQ(mc.asselin_coeff, 0.07);
  EXPECT_DOUBLE_EQ(mc.restore_timescale_days, 10.0);
  EXPECT_EQ(mc.halo_strategy, lc::HaloStrategy::HorizontalMajor);
  EXPECT_FALSE(mc.eliminate_redundant_halo);
  EXPECT_TRUE(mc.fp32_barotropic);
  EXPECT_EQ(mc.bathymetry_seed, 99u);
}

TEST(ModelConfig, FromConfigRejectsUnknownEnums) {
  namespace lu = licomk::util;
  EXPECT_THROW(lc::ModelConfig::from_config(lu::Config::from_string("model.grid = mars")),
               licomk::ConfigError);
  EXPECT_THROW(lc::ModelConfig::from_config(lu::Config::from_string("model.vmix = magic")),
               licomk::ConfigError);
  EXPECT_THROW(lc::ModelConfig::from_config(lu::Config::from_string("model.halo3d = diagonal")),
               licomk::ConfigError);
}

TEST(ModelConfig, FromConfigRejectsNonPhysicalValues) {
  namespace lu = licomk::util;
  // Each bad value must fail at parse time with a ConfigError naming its key.
  const std::pair<const char*, const char*> bad[] = {
      {"model.restore_days = 0", "model.restore_days"},
      {"model.restore_days = -5", "model.restore_days"},
      {"model.shrink = 0", "model.shrink"},
      {"model.shrink = -3", "model.shrink"},
      {"model.nz = 0", "model.nz"},
      {"model.nz = 257", "model.nz"},
      {"model.nz = -1", "model.nz"},
  };
  for (const auto& [text, key] : bad) {
    SCOPED_TRACE(text);
    try {
      lc::ModelConfig::from_config(lu::Config::from_string(text));
      ADD_FAILURE() << "accepted";
    } catch (const licomk::ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(key), std::string::npos) << e.what();
    }
  }
  // The boundaries themselves are valid.
  EXPECT_EQ(lc::ModelConfig::from_config(lu::Config::from_string("model.nz = 1")).grid.nz, 1);
  EXPECT_EQ(lc::ModelConfig::from_config(lu::Config::from_string("model.nz = 256")).grid.nz, 256);
  EXPECT_EQ(lc::ModelConfig::from_config(lu::Config::from_string("model.shrink = 1")).grid.nx,
            lc::ModelConfig::coarse100km().grid.nx);
  EXPECT_DOUBLE_EQ(lc::ModelConfig::from_config(lu::Config::from_string("model.restore_days = 0.5"))
                       .restore_timescale_days,
                   0.5);
}

TEST(ModelConfig, EffectiveCoefficientsScaleWithResolution) {
  lc::ModelConfig c;
  EXPECT_GT(c.effective_viscosity(100e3), c.effective_viscosity(1e3));
  EXPECT_GT(c.effective_diffusivity(100e3), c.effective_diffusivity(1e3));
  c.horizontal_viscosity = 42.0;
  EXPECT_DOUBLE_EQ(c.effective_viscosity(100e3), 42.0);
}

TEST(Forcing, ShortwaveProfileAndSeasonality) {
  // Jerlov fraction: 1 at the surface, monotone decay, ~1e-3 by 150 m.
  EXPECT_DOUBLE_EQ(lc::shortwave_fraction(0.0), 1.0);
  double prev = 1.0;
  for (double z : {0.5, 2.0, 10.0, 25.0, 60.0, 150.0}) {
    double f = lc::shortwave_fraction(z);
    EXPECT_LT(f, prev);
    EXPECT_GT(f, 0.0);
    prev = f;
  }
  EXPECT_LT(lc::shortwave_fraction(150.0), 2e-3);
  // Insolation: equator strong year-round; polar winter is dark.
  EXPECT_GT(lc::climatological_forcing(0.0, 0.0, 80.0).shortwave, 150.0);
  EXPECT_NEAR(lc::climatological_forcing(0.0, 75.0, 355.0).shortwave, 0.0, 5.0);
  // Subsolar latitude follows the season.
  EXPECT_GT(lc::climatological_forcing(0.0, 20.0, 172.0).shortwave,
            lc::climatological_forcing(0.0, -20.0, 172.0).shortwave);
}
