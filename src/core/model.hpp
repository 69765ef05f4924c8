// model.hpp — LicomModel, the top-level LICOMK++ driver.
//
// One LicomModel instance per rank; construct inside comm::Runtime::run for
// multi-rank execution or with a default single-rank communicator for serial
// use. Each step() executes the LICOM sequence (readyt → vmix → readyc →
// barotr → bclinc → tracer) with a telemetry span around every phase — the
// measurement mechanism behind the paper's SYPD numbers (§VI-C); step wall
// time itself is accumulated rank-locally so sypd() works with telemetry off.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/advection.hpp"
#include "core/diagnostics.hpp"
#include "core/model_config.hpp"
#include "core/polar_filter.hpp"
#include "core/state.hpp"
#include "core/vmix.hpp"
#include "halo/halo_exchange.hpp"
#include "halo/persistent_group.hpp"

namespace licomk::core {

class LicomModel {
 public:
  /// Build everything (grid included) for a single-rank run.
  explicit LicomModel(const ModelConfig& cfg);

  /// Multi-rank: the global grid is shared (construct it once outside
  /// Runtime::run and pass the same pointer to every rank's model).
  LicomModel(const ModelConfig& cfg, std::shared_ptr<const grid::GlobalGrid> global,
             comm::Communicator comm);

  /// The decomposition a model built for `cfg` on `nranks` ranks uses —
  /// the single source of truth shared with the resilience layer, which must
  /// re-plan the identical layout when it shrinks a run onto fewer ranks.
  static decomp::Decomposition plan_decomposition(const ModelConfig& cfg, int nranks);

  /// Advance one baroclinic time step.
  void step();

  /// Advance `days` of simulated time (rounded to whole steps).
  void run_days(double days);

  /// Wall seconds this rank has spent inside step() (checkpoint hooks
  /// excluded) — the denominator of sypd().
  double step_wall_seconds() const { return step_wall_s_; }

  /// Simulated-years-per-day from accumulated step wall time (excludes
  /// initialization, like the paper's metric).
  double sypd() const;

  /// The paper's exact measurement (§VI-C): elapsed wall time is the MAXIMUM
  /// across ranks of the step-loop wall time, including the daily memory
  /// copies. Collective.
  double sypd_global() const;

  /// Surface snapshot staged by the daily device-to-host copy (the paper's
  /// timed "daily memory copies in heterogeneous systems"): interior SST,
  /// row-major (j, i); empty before the first simulated day completes.
  const std::vector<double>& daily_sst() const { return daily_sst_; }

  double simulated_seconds() const { return sim_seconds_; }
  long long steps_taken() const { return steps_; }
  double day_of_year() const;

  GlobalDiagnostics diagnostics();

  /// Checkpoint this rank's prognostic state ("<prefix>.rank<r>.lrs").
  /// `write_op` is only meaningful under fault injection: it is forwarded to
  /// the restart.write hook so schedules can target a specific generation.
  void write_restart(const std::string& prefix, std::uint64_t write_op = 0) const;

  /// Resume from a checkpoint written with the same configuration and
  /// decomposition; restores simulated time and step count.
  void read_restart(const std::string& prefix);

  /// Invoke `hook(*this)` after every `every_steps` completed steps (the
  /// checkpoint cadence — resilience::CheckpointManager installs itself
  /// here). Pass 0 to disable. Hook time is excluded from step_wall_seconds.
  using StepHook = std::function<void(LicomModel&)>;
  void set_checkpoint_cadence(long long every_steps, StepHook hook);

  /// Halo messages attributed to the barotropic subcycle (the barotr phase),
  /// measured by snapshotting the exchanger's counters around run_barotropic,
  /// and the messages a per-field update() of the same work would have sent.
  /// Their ratio is the subcycle message reduction ci/check_halo_batching.py
  /// gates on.
  std::uint64_t subcycle_messages() const { return subcycle_msgs_; }
  std::uint64_t subcycle_equiv_messages() const { return subcycle_equiv_; }

  /// The barotropic subcycle's halo group (η/ū/v̄).
  const halo::PersistentGroup& subcycle_group() const { return *subcycle_group_; }

  /// Halo tag blocks (PersistentGroup tag_block) of the model's groups. A
  /// plan holds its tag claim for its whole lifetime, so every group that
  /// exchanges each step owns a distinct block; the scoped groups (halo_in,
  /// the initial and the restart refresh) are never alive at the same time
  /// and share the last one. The forecast farm spaces tenants' tag bases by
  /// kHaloTagBlocks.
  enum HaloTagBlock : int {
    kSubcycleTagBlock,   ///< η/ū/v̄ every barotropic substep
    kKappaTagBlock,      ///< κ_m/κ_t, overlapped with readyc
    kBclincTagBlock,     ///< u/v after bclinc, then the polar filter
    kTracerTagBlock,     ///< t/s after the tracer step, then the polar filter
    kAdvectionTagBlock,  ///< the FCT provisional q_td pair
    kScopedTagBlock,     ///< halo_in, initial_exchange, read_restart
    kHaloTagBlocks
  };

  const ModelConfig& config() const { return cfg_; }
  const LocalGrid& local_grid() const { return *lgrid_; }
  const grid::GlobalGrid& global_grid() const { return *global_; }
  const decomp::Decomposition& decomposition() const { return *decomp_; }
  OceanState& state() { return *state_; }
  const OceanState& state() const { return *state_; }
  halo::HaloExchanger& exchanger() { return *exchanger_; }
  VerticalMixer& mixer() { return *mixer_; }
  comm::Communicator communicator() const { return comm_; }

 private:
  LicomModel(const ModelConfig& cfg, std::unique_ptr<comm::World> owned_world);

  void initial_exchange();
  halo::Halo3DMethod halo_method() const;

  /// World owned by the single-rank convenience constructor. Declared FIRST
  /// so it outlives comm_ and every comm-holding subsystem below. Each model
  /// instance gets its OWN world: a per-field update() on a 1-rank
  /// decomposition sends self-messages (tripolar fold, periodic wrap), so a
  /// world shared between concurrent instances could FIFO-match one model's
  /// payloads into another. Null for models handed an external communicator.
  std::unique_ptr<comm::World> owned_world_;
  ModelConfig cfg_;
  std::shared_ptr<const grid::GlobalGrid> global_;
  comm::Communicator comm_;
  std::unique_ptr<decomp::Decomposition> decomp_;
  std::unique_ptr<LocalGrid> lgrid_;
  std::unique_ptr<halo::HaloExchanger> exchanger_;
  std::unique_ptr<OceanState> state_;
  std::unique_ptr<VerticalMixer> mixer_;
  std::unique_ptr<PolarFilter> polar_;
  std::unique_ptr<AdvectionWorkspace> adv_ws_;
  std::unique_ptr<TracerAdvScratch> adv_scratch_;
  /// The halo groups that exchange every step, one tag block each (declared
  /// after exchanger_ and the fields they enroll, so they are destroyed
  /// first). Their plans are built at first use and reused for the run.
  std::unique_ptr<halo::PersistentGroup> subcycle_group_;
  std::unique_ptr<halo::PersistentGroup> kappa_group_;
  std::unique_ptr<halo::PersistentGroup> bclinc_group_;
  std::unique_ptr<halo::PersistentGroup> tracer_group_;
  std::unique_ptr<halo::PersistentGroup> qtd_group_;
  /// shortwave_fraction at the nz + 1 interfaces, built once (tracer_step).
  std::vector<double> shortwave_frac_;
  halo::BlockField2D ubar_avg_, vbar_avg_, gu_bar_, gv_bar_;
  std::vector<double> daily_sst_;
  std::vector<double> daily_eta_;
  std::uint64_t subcycle_msgs_ = 0;
  std::uint64_t subcycle_equiv_ = 0;
  double sim_seconds_ = 0.0;
  long long steps_ = 0;
  double step_wall_s_ = 0.0;
  long long checkpoint_every_steps_ = 0;
  StepHook checkpoint_hook_;
};

}  // namespace licomk::core
