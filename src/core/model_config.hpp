// model_config.hpp — everything needed to instantiate a LICOMK++ run.
#pragma once

#include <string>

#include "grid/grid.hpp"
#include "util/config.hpp"

namespace licomk::core {

/// Vertical mixing scheme (§V-A: LICOMK++ introduces the Canuto scheme on top
/// of LICOM3-Kokkos; the Richardson-number scheme is the predecessor).
enum class VMixScheme { Richardson, Canuto };

/// Horizontal tracer mixing operator. LICOM's coarse configurations use
/// Laplacian diffusion; the eddy-resolving and kilometer-scale runs use the
/// scale-selective biharmonic form so resolved eddies survive while
/// grid-scale noise is removed.
enum class HMixScheme { Laplacian, Biharmonic };

/// 3-D halo update strategy (paper Fig. 5); exposed for ablation benches.
enum class HaloStrategy { HorizontalMajor, TransposeVerticalMajor };

struct ModelConfig {
  grid::GridSpec grid = grid::spec_coarse100km();
  unsigned bathymetry_seed = 42;

  // --- physics ---
  VMixScheme vmix = VMixScheme::Canuto;
  HMixScheme hmix = HMixScheme::Laplacian;
  bool canuto_load_balance = true;   ///< Fig. 4 sea-point redistribution
  bool linear_eos = false;           ///< linear vs UNESCO-style EOS
  double horizontal_viscosity = 0.0;   ///< m^2/s; 0 = resolution-scaled default
  double horizontal_diffusivity = 0.0; ///< m^2/s; 0 = resolution-scaled default
  double biharmonic_coeff = 0.0;     ///< m^4/s; 0 = resolution-scaled default
  double asselin_coeff = 0.1;        ///< Robert–Asselin filter strength
  double restore_timescale_days = 30.0;  ///< surface T/S restoring
  bool solar_penetration = true;     ///< Jerlov-profile shortwave absorption
  /// Gent–McWilliams eddy-transport coefficient (m^2/s); 0 disables. The
  /// parameterized counterpart of the mesoscale eddies the paper's km-scale
  /// runs resolve explicitly (§III: eddy effects "sometimes need to be
  /// treated by physical parameterization schemes"). Implemented as bolus
  /// velocities added to the advective volume fluxes, so the FCT transport's
  /// conservation and shape preservation carry over unchanged.
  double gm_kappa = 0.0;

  // --- numerics/engineering ---
  HaloStrategy halo_strategy = HaloStrategy::TransposeVerticalMajor;
  /// Skip exchanges of fields unchanged since their last exchange (the
  /// paper's redundant pack/unpack elimination). Multi-field exchanges have
  /// one engine, halo::PersistentGroup (fused per-peer messages from a
  /// cached plan, §V-D); there is no engine selector.
  bool eliminate_redundant_halo = true;
  /// Append a CRC-64 to every halo message and verify it on unpack, so
  /// in-flight corruption (bit flips on the network) surfaces as a CommError
  /// the run supervisor can recover from, instead of silently polluting the
  /// state. Off by default: one extra word per message plus two CRC passes.
  bool verify_halo_crc = false;
  /// Ocean-aware weighted domain decomposition (the partitioning face of the
  /// paper's Fig. 4 sea-point load balancing): plan_decomposition splits each
  /// axis at weighted quantiles of the bathymetry's sea-point census instead
  /// of uniformly, so land-heavy blocks are down-weighted and open-ocean
  /// blocks shrink to match. The decomposition stays a tensor product, so
  /// halo exchange, restart and checkpoint redistribution work unchanged; on
  /// an all-sea grid the weighted split is bit-identical to the uniform one.
  /// Off = the uniform ablation baseline.
  bool weighted_decomposition = false;
  /// Run the barotropic sub-cycle's arithmetic in single precision (the
  /// paper's §VIII outlook: "mixed precision ... to improve the speed").
  /// State and communication stay double; only the substep kernels' math
  /// rounds. Accuracy impact is quantified in test_dynamics/bench_ablations.
  bool fp32_barotropic = false;

  // --- scenario perturbations (forecast-farm ensemble workload) ---
  /// Wind-stress multiplier applied to the climatological τx/τy before they
  /// enter the top-layer momentum tendency. 1 = unperturbed physics.
  double wind_stress_scale = 1.0;
  /// Additive offset (°C) on the SST restoring target — the heat-flux
  /// perturbation knob: the restoring term is the surface heat flux here, and
  /// the shortwave profile is purely redistributive over the column.
  double sst_target_offset_c = 0.0;
  /// Constant offset (°C) added to the initial temperature at every active
  /// point (both time levels, before the initial halo exchange), for
  /// initial-state ensemble members. Constant so halos stay consistent.
  double initial_t_perturb_c = 0.0;

  // --- multi-tenant isolation (set by the farm; standalone runs keep 0/"") ---
  /// Base added to every halo group tag_block of this instance, so concurrent
  /// model instances own disjoint tag ranges (see HaloExchanger::set_tag_base;
  /// an instance uses LicomModel::kHaloTagBlocks blocks from this base).
  int halo_tag_base = 0;
  /// Prefix for the gauges run_days() publishes ("model.sypd" →
  /// "<ns>model.sypd"); the farm sets "farm.tenant.<id>." so per-tenant
  /// streams survive side by side in one telemetry registry.
  std::string telemetry_namespace;

  /// Laplacian viscosity scaled to grid size when not set explicitly
  /// (A ~ 0.01 * dx * U with U ≈ 1 m/s, a standard eddy-viscosity scaling).
  double effective_viscosity(double dx_meters) const {
    return horizontal_viscosity > 0.0 ? horizontal_viscosity : 0.01 * dx_meters * 1.0 + 50.0;
  }
  double effective_diffusivity(double dx_meters) const {
    return horizontal_diffusivity > 0.0 ? horizontal_diffusivity
                                        : 0.005 * dx_meters * 1.0 + 25.0;
  }

  /// Biharmonic coefficient scaled ~ dx^3 * U (Griffies–Hallberg-style
  /// velocity scaling with U ~ 0.1 m/s) when not set explicitly.
  double effective_biharmonic(double dx_meters) const {
    return biharmonic_coeff > 0.0 ? biharmonic_coeff
                                  : 0.1 * dx_meters * dx_meters * dx_meters * 0.1;
  }

  /// Table III configurations at full paper size.
  static ModelConfig coarse100km();
  static ModelConfig eddy10km();
  static ModelConfig km2_fulldepth();
  static ModelConfig km1();

  /// A small, fast configuration for unit/integration tests: the coarse
  /// grid shrunk by `factor` with identical numerics.
  static ModelConfig testing(int factor = 5);

  /// Parse overrides from a util::Config ("model.vmix = canuto", ...).
  static ModelConfig from_config(const util::Config& cfg);

  std::string describe() const;
};

}  // namespace licomk::core
