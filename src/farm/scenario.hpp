// scenario.hpp — the forecast farm's request/status vocabulary.
//
// A ScenarioRequest is one ensemble member: a model configuration (usually a
// shared base configuration plus perturbation knobs — wind_stress_scale,
// sst_target_offset_c, initial_t_perturb_c), a simulated horizon, a rank
// count, a resilience policy, an optional fault-injection schedule scoped to
// this tenant only, and a fair-share quota. TenantStatus is the externally
// visible lifecycle record the farm keeps per request.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/model_config.hpp"
#include "resilience/fault_injector.hpp"

namespace licomk::farm {

/// One scenario (ensemble member) submitted to the farm.
struct ScenarioRequest {
  /// Tenant id; must be unique within the farm and filesystem-safe (it names
  /// the checkpoint subdirectory and the telemetry namespace).
  std::string name;
  /// Full model configuration including perturbation knobs. The farm
  /// overwrites the multi-tenant isolation fields (telemetry_namespace,
  /// halo_tag_base) — callers set the physics, the farm sets the plumbing.
  core::ModelConfig config;
  double days = 1.0;  ///< simulated horizon
  int nranks = 1;     ///< ranks (threads) this tenant's world runs on

  // --- resilience policy (per-tenant Supervisor lease) ---------------------
  /// Checkpoint cadence in steps; 0 disables checkpoints — and with them
  /// warm starts AND preemption (tenants are only preempted at checkpoint
  /// boundaries, so an uncheckpointed tenant runs to completion once admitted).
  long long checkpoint_every_steps = 0;
  int keep_generations = 3;
  int max_retries = 3;
  int max_shrinks = 0;
  int min_ranks = 1;
  /// Elastic resize: when the tenant's lease has shrunk below `nranks` and
  /// `capacity_probe` reports the capacity back, the supervisor re-expands to
  /// the largest feasible layout ≤ nranks (redistributing the newest verified
  /// generation, per-field CRC-proved — see resilience::Supervisor). The
  /// probe is called by rank 0 at checkpoint boundaries and by the lease
  /// thread between attempts; it must be thread-safe.
  bool grow_back = false;
  std::function<int()> capacity_probe;

  /// Fault schedule armed in THIS tenant's fault domain at first admission
  /// (resilience::arm_scoped) and disarmed when the tenant leaves the farm.
  /// Other tenants' ranks can never match it.
  resilience::FaultSchedule faults;

  /// Fair-share slice: steps × global grid cells a single admission may
  /// consume while other tenants wait. When the slice is exhausted at a
  /// checkpoint boundary AND the queue is non-empty, the tenant is preempted
  /// (checkpoint already on disk; re-admission warm-starts from it). 0 =
  /// unlimited — the tenant runs to completion once admitted.
  std::uint64_t quota_step_cells = 0;
};

enum class TenantState { Queued, Running, Preempted, Completed, Failed };

const char* to_string(TenantState s);

/// Lifecycle record of one tenant, safe to snapshot while the farm runs.
struct TenantStatus {
  std::string name;
  int index = -1;  ///< submission order; also selects tag base + fault domain
  TenantState state = TenantState::Queued;

  int admissions = 0;   ///< times granted a lease (first + re-admissions)
  int preemptions = 0;  ///< leases ended early for fair share
  long long steps = 0;  ///< model steps completed so far
  long long target_steps = 0;
  std::uint64_t step_cells = 0;  ///< Σ steps × grid cells, the fair-share unit

  double queue_wait_s = 0.0;  ///< wall time spent Queued/Preempted
  double run_wall_s = 0.0;    ///< wall time spent holding a lease
  double sypd = 0.0;          ///< global (slowest-rank) SYPD of the last lease

  // Accumulated Supervisor history across all leases — recorded from the
  // supervisor's report on success AND (via Supervisor::last_report) on
  // permanent failure, so a Failed tenant keeps its escalation forensics.
  int attempts = 0;
  int recoveries = 0;
  int shrinks = 0;
  int growbacks = 0;
  int redistributions = 0;      ///< CRC-proved checkpoint re-slices (shrink+grow)
  double backoff_wall_s = 0.0;  ///< wall seconds the leases spent in backoff sleeps

  std::string error;  ///< what() of the fatal failure (state == Failed)

  /// Per-field global CRC-64 of the completed scenario's final prognostic
  /// state (core::prognostic_field_names() order), assembled from the
  /// "<checkpoint dir>/final" restart the lease writes on completion. Empty
  /// until state == Completed. This is the farm's bit-identity contract: the
  /// same scenario run standalone yields the same CRCs.
  std::vector<std::uint64_t> final_crcs;
};

struct FarmOptions {
  /// Concurrent leases; queued tenants beyond this wait for a slot.
  int max_concurrent = 2;
  /// Root directory for per-tenant checkpoint subdirectories
  /// ("<root>/<tenant name>/"). Required.
  std::string checkpoint_root;
  /// Tenant i's fault domain = base + i. Offset from 0 so tenant domains are
  /// recognizable in fired-event logs next to the global domain (-1).
  int fault_domain_base = 100;
};

}  // namespace licomk::farm
