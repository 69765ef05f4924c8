#include "core/model.hpp"

#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>

#include "core/dynamics.hpp"
#include "core/forcing.hpp"
#include "core/restart.hpp"
#include "core/tracer.hpp"
#include "decomp/load_balance.hpp"
#include "kxx/kxx.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/sypd.hpp"

namespace licomk::core {

namespace {

/// One model phase: a telemetry span (category "phase") so phases nest
/// around the kernel spans dispatched inside. Cheap no-op when telemetry is
/// disabled; step wall time for sypd() is accumulated separately in step().
using PhaseScope = telemetry::ScopedSpan;

/// Sea-point census of one bathymetry, in the Fig. 4 convention (a work item
/// is a horizontal cell with kmt > 1): per-axis marginals feed the weighted
/// quantile split, the 2-D prefix sum prices any block in O(1) for the
/// imbalance gauges. Cached per bathymetry identity — plan_decomposition is
/// called once per rank per attempt, and the census only depends on the grid
/// spec and seed, never on the rank count.
struct SeaCensus {
  int nx = 0, ny = 0;
  std::vector<long long> col_weight;  ///< per global i: sea cells in that x-slice
  std::vector<long long> row_weight;  ///< per global j: sea cells in that y-slice
  std::vector<long long> prefix;      ///< (ny+1) x (nx+1) 2-D prefix sum

  long long block_count(const decomp::BlockExtent& e) const {
    auto P = [&](int j, int i) {
      return prefix[static_cast<size_t>(j) * static_cast<size_t>(nx + 1) +
                    static_cast<size_t>(i)];
    };
    return P(e.j1, e.i1) - P(e.j0, e.i1) - P(e.j1, e.i0) + P(e.j0, e.i0);
  }
};

const SeaCensus& sea_census_for(const ModelConfig& cfg) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<SeaCensus>> cache;
  std::ostringstream key;
  key << cfg.grid.name << '|' << cfg.grid.nx << 'x' << cfg.grid.ny << 'x' << cfg.grid.nz << '|'
      << cfg.bathymetry_seed << '|' << cfg.grid.idealized_channel;
  std::lock_guard<std::mutex> lock(mu);
  auto& slot = cache[key.str()];
  if (slot == nullptr) {
    slot = std::make_unique<SeaCensus>();
    grid::GlobalGrid g(cfg.grid, cfg.bathymetry_seed);
    SeaCensus& c = *slot;
    c.nx = g.nx();
    c.ny = g.ny();
    c.col_weight.assign(static_cast<size_t>(c.nx), 0);
    c.row_weight.assign(static_cast<size_t>(c.ny), 0);
    c.prefix.assign(static_cast<size_t>(c.ny + 1) * static_cast<size_t>(c.nx + 1), 0);
    for (int j = 0; j < c.ny; ++j) {
      for (int i = 0; i < c.nx; ++i) {
        const long long sea = g.bathymetry().kmt(j, i) > 1 ? 1 : 0;
        c.col_weight[static_cast<size_t>(i)] += sea;
        c.row_weight[static_cast<size_t>(j)] += sea;
        const size_t row0 = static_cast<size_t>(j) * static_cast<size_t>(c.nx + 1);
        const size_t row1 = static_cast<size_t>(j + 1) * static_cast<size_t>(c.nx + 1);
        c.prefix[row1 + static_cast<size_t>(i) + 1] =
            c.prefix[row0 + static_cast<size_t>(i) + 1] + c.prefix[row1 + static_cast<size_t>(i)] -
            c.prefix[row0 + static_cast<size_t>(i)] + sea;
      }
    }
  }
  return *slot;
}

}  // namespace

LicomModel::LicomModel(const ModelConfig& cfg)
    : LicomModel(cfg, std::make_unique<comm::World>(1)) {}

LicomModel::LicomModel(const ModelConfig& cfg, std::unique_ptr<comm::World> owned_world)
    : LicomModel(cfg, std::make_shared<grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed),
                 owned_world->communicator(0)) {
  // Adopt AFTER delegation: the world outlived construction via the caller's
  // unique_ptr, and from here on via the first-declared member slot. A world
  // per instance, never a shared static — even 1-rank models exchange
  // self-messages (fold/wrap), which would cross-match between concurrent
  // instances sharing a mailbox.
  owned_world_ = std::move(owned_world);
}

decomp::Decomposition LicomModel::plan_decomposition(const ModelConfig& cfg, int nranks) {
  auto [px, py] = decomp::choose_layout(nranks, cfg.grid.nx, cfg.grid.ny);
  const bool tripolar = !cfg.grid.idealized_channel;
  if (!cfg.weighted_decomposition) {
    return decomp::Decomposition(cfg.grid.nx, cfg.grid.ny, px, py,
                                 /*periodic_x=*/true, tripolar);
  }
  // Ocean-aware split: minimize the maximum per-block sea-point count in the
  // Fig. 4 convention (alternating exact 1-D min-max splits seeded from the
  // weighted marginal quantiles). When the refinement cannot strictly beat
  // the uniform split — all-sea grids, degenerate censuses — weighted_layout
  // hands back the exact uniform boundaries, so the decomposition is
  // bit-identical to the uniform planner's.
  const SeaCensus& census = sea_census_for(cfg);
  auto layout = decomp::weighted_layout(
      cfg.grid.nx, cfg.grid.ny, px, py, decomp::kHaloWidth,
      [&census](int j0, int j1, int i0, int i1) {
        return census.block_count(decomp::BlockExtent{i0, i1, j0, j1});
      });
  decomp::Decomposition weighted(cfg.grid.nx, cfg.grid.ny, std::move(layout.x_bounds),
                                 std::move(layout.y_bounds),
                                 /*periodic_x=*/true, tripolar);
  if (telemetry::enabled()) {
    const decomp::Decomposition uniform(cfg.grid.nx, cfg.grid.ny, px, py,
                                        /*periodic_x=*/true, tripolar);
    auto load = [&](const decomp::Decomposition& d) {
      std::vector<long long> v;
      for (int r = 0; r < d.nranks(); ++r) v.push_back(census.block_count(d.block(r)));
      return v;
    };
    telemetry::set_gauge("decomp.weighted.px", static_cast<double>(px));
    telemetry::set_gauge("decomp.weighted.py", static_cast<double>(py));
    telemetry::set_gauge("decomp.weighted.imbalance_uniform",
                         decomp::LoadBalancePlan::imbalance(load(uniform)));
    telemetry::set_gauge("decomp.weighted.imbalance_weighted",
                         decomp::LoadBalancePlan::imbalance(load(weighted)));
  }
  return weighted;
}

LicomModel::LicomModel(const ModelConfig& cfg, std::shared_ptr<const grid::GlobalGrid> global,
                       comm::Communicator comm)
    : cfg_(cfg), global_(std::move(global)), comm_(comm) {
  LICOMK_REQUIRE(global_ != nullptr, "null global grid");
  decomp_ = std::make_unique<decomp::Decomposition>(plan_decomposition(cfg_, comm_.size()));
  lgrid_ = std::make_unique<LocalGrid>(*global_, *decomp_, comm_.rank());
  exchanger_ = std::make_unique<halo::HaloExchanger>(*decomp_, comm_, comm_.rank(),
                                                     cfg_.verify_halo_crc);
  exchanger_->set_eliminate_redundant(cfg_.eliminate_redundant_halo);
  exchanger_->set_tag_base(cfg_.halo_tag_base);
  state_ = std::make_unique<OceanState>(*lgrid_);
  if (cfg_.initial_t_perturb_c != 0.0) {
    // Initial-state ensemble member: shift both temperature time levels by a
    // constant at every wet cell (halo rows included — the same physical
    // point gets the same value on every rank, so ghost consistency holds).
    const auto& kmt = lgrid_->kmt_view();
    for (int k = 0; k < lgrid_->nz(); ++k) {
      for (int j = 0; j < lgrid_->ny_total(); ++j) {
        for (int i = 0; i < lgrid_->nx_total(); ++i) {
          if (k < kmt(j, i)) {
            state_->t_cur.at(k, j, i) += cfg_.initial_t_perturb_c;
            state_->t_old.at(k, j, i) += cfg_.initial_t_perturb_c;
          }
        }
      }
    }
    state_->t_cur.mark_dirty();
    state_->t_old.mark_dirty();
  }
  mixer_ = std::make_unique<VerticalMixer>(*lgrid_, comm_, cfg_.vmix, cfg_.canuto_load_balance);
  polar_ = std::make_unique<PolarFilter>(*lgrid_);
  adv_ws_ = std::make_unique<AdvectionWorkspace>(*lgrid_);
  adv_scratch_ = std::make_unique<TracerAdvScratch>(*lgrid_);
  shortwave_frac_ = shortwave_fraction_table(lgrid_->vertical().interfaces());
  // Enroll every per-step exchange once: each group's plan (neighbor
  // geometry, fused packing boxes, registered buffers) is built on first use
  // and reused by every later round. Groups re-resolve field base pointers
  // at each exchange, so the leapfrog and tracer buffer rotations are
  // transparent to them.
  const halo::Halo3DMethod method = halo_method();
  auto make_group = [this](HaloTagBlock block) {
    return std::make_unique<halo::PersistentGroup>(*exchanger_, block);
  };
  subcycle_group_ = make_group(kSubcycleTagBlock);
  subcycle_group_->add(state_->eta_cur, halo::FoldSign::Symmetric);
  subcycle_group_->add(state_->ubar_cur, halo::FoldSign::Antisymmetric);
  subcycle_group_->add(state_->vbar_cur, halo::FoldSign::Antisymmetric);
  kappa_group_ = make_group(kKappaTagBlock);
  kappa_group_->add(state_->kappa_m, halo::FoldSign::Symmetric, method);
  kappa_group_->add(state_->kappa_t, halo::FoldSign::Symmetric, method);
  bclinc_group_ = make_group(kBclincTagBlock);
  bclinc_group_->add(state_->u_cur, halo::FoldSign::Antisymmetric, method);
  bclinc_group_->add(state_->v_cur, halo::FoldSign::Antisymmetric, method);
  tracer_group_ = make_group(kTracerTagBlock);
  tracer_group_->add(state_->t_cur, halo::FoldSign::Symmetric, method);
  tracer_group_->add(state_->s_cur, halo::FoldSign::Symmetric, method);
  qtd_group_ = make_group(kAdvectionTagBlock);
  qtd_group_->add(adv_ws_->q_td);
  qtd_group_->add(adv_scratch_->q_td);
  ubar_avg_ = halo::BlockField2D("ubar_avg", lgrid_->extent());
  vbar_avg_ = halo::BlockField2D("vbar_avg", lgrid_->extent());
  gu_bar_ = halo::BlockField2D("gu_bar", lgrid_->extent());
  gv_bar_ = halo::BlockField2D("gv_bar", lgrid_->extent());
  initial_exchange();
}

halo::Halo3DMethod LicomModel::halo_method() const {
  return cfg_.halo_strategy == HaloStrategy::TransposeVerticalMajor
             ? halo::Halo3DMethod::TransposeVerticalMajor
             : halo::Halo3DMethod::HorizontalMajor;
}

void LicomModel::initial_exchange() {
  const halo::Halo3DMethod method = halo_method();
  halo::PersistentGroup group(*exchanger_, kScopedTagBlock);
  group.add(state_->t_cur, halo::FoldSign::Symmetric, method);
  group.add(state_->s_cur, halo::FoldSign::Symmetric, method);
  group.add(state_->t_old, halo::FoldSign::Symmetric, method);
  group.add(state_->s_old, halo::FoldSign::Symmetric, method);
  group.exchange();
}

double LicomModel::day_of_year() const { return std::fmod(sim_seconds_ / 86400.0, 365.0); }

void LicomModel::set_checkpoint_cadence(long long every_steps, StepHook hook) {
  LICOMK_REQUIRE(every_steps >= 0, "checkpoint cadence must be >= 0");
  checkpoint_every_steps_ = every_steps;
  checkpoint_hook_ = std::move(hook);
}

void LicomModel::step() {
  const double day = day_of_year();
  const auto wall_start = std::chrono::steady_clock::now();
  PhaseScope step_span("step", "phase");

  {
    PhaseScope t("halo_in", "phase");
    // With redundant-exchange elimination these are no-ops except on the
    // first step (the end-of-step exchanges keep versions current), so the
    // group stays scoped: an all-skipped round builds no plan. One fused
    // message per peer covers every dirty prognostic field.
    const halo::Halo3DMethod method = halo_method();
    halo::PersistentGroup group(*exchanger_, kScopedTagBlock);
    group.add(state_->t_cur, halo::FoldSign::Symmetric, method);
    group.add(state_->s_cur, halo::FoldSign::Symmetric, method);
    group.add(state_->u_cur, halo::FoldSign::Antisymmetric, method);
    group.add(state_->v_cur, halo::FoldSign::Antisymmetric, method);
    group.add(state_->eta_cur, halo::FoldSign::Symmetric);
    group.exchange();
  }

  {
    PhaseScope t("readyt", "phase");
    compute_density_pressure_fused(*lgrid_, cfg_.linear_eos, state_->t_cur, state_->s_cur,
                                   state_->rho, state_->pressure);
  }

  // The diffusivity exchange overlaps the readyc tendency kernels: the
  // kappa group is posted right after the mixer fills the fields and only
  // drained once the tendencies (which never read kappa ghosts) are done.
  {
    PhaseScope t("vmix", "phase");
    mixer_->compute(*state_);
    kappa_group_->begin();
  }

  {
    PhaseScope t("readyc", "phase");
    compute_tendency_means(*lgrid_, cfg_, *state_, day, state_->fu_tend, state_->fv_tend,
                           gu_bar_, gv_bar_);
    kappa_group_->finish();
  }

  {
    PhaseScope t("barotr", "phase");
    const std::uint64_t msgs0 = exchanger_->stats().messages;
    const std::uint64_t equiv0 = exchanger_->stats().equiv_messages;
    run_barotropic(*lgrid_, cfg_, *state_, *polar_, gu_bar_, gv_bar_, ubar_avg_, vbar_avg_,
                   *subcycle_group_);
    subcycle_msgs_ += exchanger_->stats().messages - msgs0;
    subcycle_equiv_ += exchanger_->stats().equiv_messages - equiv0;
  }

  {
    PhaseScope t("bclinc", "phase");
    baroclinic_update(*lgrid_, cfg_, *state_, ubar_avg_, vbar_avg_);
    state_->rotate_velocity();
    bclinc_group_->exchange();
    polar_->apply({FilteredField(state_->u_cur, false), FilteredField(state_->v_cur, false)},
                  *bclinc_group_);
  }

  {
    PhaseScope t("tracer", "phase");
    tracer_step(*lgrid_, cfg_, *state_, *adv_ws_, *adv_scratch_, *qtd_group_, shortwave_frac_,
                day);
    state_->rotate_tracers();
    tracer_group_->exchange();
    polar_->apply({FilteredField(state_->t_cur, /*conservative=*/true),
                   FilteredField(state_->s_cur, /*conservative=*/true)},
                  *tracer_group_);
  }

  double prev_day = std::floor(sim_seconds_ / 86400.0);
  sim_seconds_ += cfg_.grid.dt_baroclinic;
  steps_ += 1;

  if (std::floor(sim_seconds_ / 86400.0) > prev_day) {
    // Daily device-to-host staging of output fields — the paper's timing
    // includes "the simulation and daily memory copies in heterogeneous
    // systems" (§VI-C). On the simulated unified-memory backends this is a
    // genuine copy into host staging buffers.
    PhaseScope t("daily_copy", "phase");
    const int h = decomp::kHaloWidth;
    daily_sst_.resize(static_cast<size_t>(lgrid_->ny()) * lgrid_->nx());
    daily_eta_.resize(daily_sst_.size());
    for (int j = 0; j < lgrid_->ny(); ++j) {
      for (int i = 0; i < lgrid_->nx(); ++i) {
        size_t n = static_cast<size_t>(j) * lgrid_->nx() + static_cast<size_t>(i);
        daily_sst_[n] = state_->t_cur.at(0, j + h, i + h);
        daily_eta_[n] = state_->eta_cur.at(j + h, i + h);
      }
    }
  }

  step_wall_s_ +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();

  // Checkpoint cadence, outside the timed step path: checkpoint I/O is
  // resilience overhead, not simulation throughput.
  if (checkpoint_every_steps_ > 0 && checkpoint_hook_ &&
      steps_ % checkpoint_every_steps_ == 0) {
    checkpoint_hook_(*this);
  }
}

void LicomModel::run_days(double days) {
  long long nsteps = static_cast<long long>(std::llround(days * 86400.0 / cfg_.grid.dt_baroclinic));
  for (long long n = 0; n < nsteps; ++n) step();
  if (telemetry::enabled()) {
    // Every gauge goes out under the instance's namespace ("" standalone;
    // "farm.tenant.<id>." inside the farm), so N concurrent instances keep
    // distinct streams instead of clobbering one process-global name.
    const std::string& ns = cfg_.telemetry_namespace;
    auto gauge = [&ns](const char* name, double value) {
      telemetry::set_gauge(ns.empty() ? std::string(name) : ns + name, value);
    };
    gauge("model.sypd", sypd());
    gauge("model.simulated_seconds", sim_seconds_);
    gauge("model.steps", static_cast<double>(steps_));
    gauge("model.step_wall_s", step_wall_s_);
    const auto& hs = exchanger_->stats();
    gauge("halo.msgs", static_cast<double>(hs.messages));
    if (hs.messages > 0) {
      gauge("halo.bytes_per_msg",
            static_cast<double>(hs.bytes) / static_cast<double>(hs.messages));
      gauge("halo.msg_reduction",
            static_cast<double>(hs.equiv_messages) / static_cast<double>(hs.messages));
    }
    gauge("halo.subcycle.msgs", static_cast<double>(subcycle_msgs_));
    if (subcycle_msgs_ > 0) {
      gauge("halo.subcycle.msg_reduction",
            static_cast<double>(subcycle_equiv_) / static_cast<double>(subcycle_msgs_));
    }
    // Pack/fusion telemetry (process-wide kxx counters; one model per process
    // outside the farm, and farm tenants share a backend anyway).
    gauge("kxx.pack.lanes_active", static_cast<double>(kxx::pack_lanes_active()));
    gauge("kxx.pack.lanes_masked", static_cast<double>(kxx::pack_lanes_masked()));
    gauge("kxx.fusion.views_elided_bytes",
          static_cast<double>(kxx::fusion_views_elided_bytes()));
    gauge("halo.persistent.plan_builds", static_cast<double>(subcycle_group_->plan_builds()));
    gauge("halo.persistent.plan_hits", static_cast<double>(subcycle_group_->plan_hits()));
    gauge("halo.persistent.self_copies", static_cast<double>(subcycle_group_->self_copies()));
    gauge("halo.persistent.partial_exchanges",
          static_cast<double>(subcycle_group_->partial_exchanges()));
  }
}

double LicomModel::sypd() const {
  if (step_wall_s_ <= 0.0 || sim_seconds_ <= 0.0) return 0.0;
  return util::sypd(sim_seconds_, step_wall_s_);
}

double LicomModel::sypd_global() const {
  double wall = comm_.allreduce_scalar(step_wall_s_, comm::ReduceOp::Max);
  if (wall <= 0.0 || sim_seconds_ <= 0.0) return 0.0;
  return util::sypd(sim_seconds_, wall);
}

GlobalDiagnostics LicomModel::diagnostics() {
  PhaseScope t("diagnostics", "phase");
  return compute_diagnostics(*lgrid_, *state_, comm_);
}

void LicomModel::write_restart(const std::string& prefix, std::uint64_t write_op) const {
  core::write_restart(restart_rank_path(prefix, comm_.rank()), *lgrid_, *state_,
                      RestartInfo{sim_seconds_, steps_, step_wall_s_}, comm_.rank(), write_op);
}

void LicomModel::read_restart(const std::string& prefix) {
  RestartInfo info =
      core::read_restart(restart_rank_path(prefix, comm_.rank()), *lgrid_, *state_);
  sim_seconds_ = info.sim_seconds;
  steps_ = info.steps;
  // Roll accumulated step wall time back to the snapshot too, so a restored
  // run's sypd() numerator and denominator stay consistent: supervisor
  // backoff sleeps and the attempts lost between checkpoints never count,
  // the same way checkpoint hooks are excluded from the live accumulation.
  step_wall_s_ = info.step_wall_s;
  // Restored fields are marked dirty; refresh every halo before stepping.
  // EVERY prognostic field is exchanged, both time levels: a redistributed
  // checkpoint (resilience/redistribute) stores exact interiors but zeroed
  // halos, so nothing may rely on file-carried ghost values. For a same-shape
  // restore this is value-neutral — the stored halos were themselves
  // exchange-consistent at checkpoint time.
  initial_exchange();
  halo::PersistentGroup group(*exchanger_, kScopedTagBlock);
  group.add(state_->u_cur, halo::FoldSign::Antisymmetric);
  group.add(state_->v_cur, halo::FoldSign::Antisymmetric);
  group.add(state_->u_old, halo::FoldSign::Antisymmetric);
  group.add(state_->v_old, halo::FoldSign::Antisymmetric);
  group.add(state_->eta_cur, halo::FoldSign::Symmetric);
  group.add(state_->eta_old, halo::FoldSign::Symmetric);
  group.add(state_->ubar_cur, halo::FoldSign::Antisymmetric);
  group.add(state_->vbar_cur, halo::FoldSign::Antisymmetric);
  group.add(state_->ubar_old, halo::FoldSign::Antisymmetric);
  group.add(state_->vbar_old, halo::FoldSign::Antisymmetric);
  group.exchange();
}

}  // namespace licomk::core
