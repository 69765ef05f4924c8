// tracer.hpp — the tracer sub-step (temperature and salinity).
//
// Per baroclinic step: face volume fluxes from the updated velocity, the
// two-step shape-preserving advection (advection.hpp), explicit flux-form
// horizontal diffusion, implicit vertical diffusion with the Canuto (or
// Richardson) diffusivity, and surface restoring toward the analytic
// climatology. Tracers march forward in time (the FCT monotonicity guarantee
// is a single-step property), while the dynamics leapfrogs — a standard
// split also used by LICOM's predecessors.
#pragma once

#include <vector>

#include "core/advection.hpp"
#include "core/model_config.hpp"
#include "core/state.hpp"
#include "halo/persistent_group.hpp"

namespace licomk::core {

/// Advance t_new/s_new from t_cur/s_cur over cfg.grid.dt_tracer. Performs the
/// in-advection halo updates — temperature and salinity advect together
/// through advect_tracer_pair, so their provisional-field exchanges travel
/// through `qtd_group` as one fused message per peer; the new fields' halos
/// are NOT updated (the model driver exchanges after rotation). `sw_frac` is the
/// model's shortwave table (shortwave_fraction_table of the interfaces).
void tracer_step(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                 AdvectionWorkspace& ws, TracerAdvScratch& scratch,
                 halo::PersistentGroup& qtd_group, const std::vector<double>& sw_frac,
                 double day_of_year);

/// The tracer step's horizontal diffusion: increments t_new and s_new on the
/// interior by the flux-form diffusion (cfg.hmix) of t_cur and s_cur. The
/// Laplacian runs as one fused, packed t+s dispatch ("trc_hdiff_pair"), or
/// as the LDM-staged per-tracer "trc_hdiff" where kxx::stages_through_ldm();
/// the biharmonic runs per tracer through ws.hmix_lap. Same bits every way.
void tracer_hdiff(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                  AdvectionWorkspace& ws);

/// The tracer step's column finisher on the interior: penetrating shortwave
/// (temperature, when cfg.solar_penetration), surface restoring toward the
/// climatology relative to t_cur/s_cur, and implicit vertical diffusion of
/// t_new and s_new in place with state.kappa_t — both tracers through one
/// packed dispatch ("trc_column") sharing one factorization per column.
/// `sw_frac` holds shortwave_fraction at the nz + 1 interfaces.
void tracer_columns(const LocalGrid& g, const ModelConfig& cfg, OceanState& state,
                    const std::vector<double>& sw_frac, double day_of_year);

}  // namespace licomk::core
