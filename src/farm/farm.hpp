// farm.hpp — multi-tenant forecast farm: N concurrent scenario instances over
// shared immutable base state.
//
// Operational forecasting runs ensembles: the same model, many perturbed
// members, on one allocation. ForecastFarm is that service in-process:
//
//   submit() ────► FIFO admission queue ────► worker slots (max_concurrent)
//                                                  │ one lease at a time
//                                                  ▼
//                                      resilience::Supervisor (per tenant)
//                                        · own comm::World per attempt →
//                                          one tenant's rank failure can
//                                          never poison another tenant
//                                        · own checkpoint directory; warm
//                                          starts are free on re-admission
//                                        · own fault domain (arm_scoped)
//                                        · retry → shrink escalation
//                                                  │
//                                                  ▼
//                                      LicomModel instances built over
//                                      SharedBaseState (one GlobalGrid per
//                                      distinct spec — copy-on-write: tenants
//                                      own only prognostic fields + overrides)
//
// Isolation plumbing per tenant i: halo tag_base = i × the model's tag-block
// count, LicomModel::kHaloTagBlocks (disjoint message tag ranges; collisions
// are a hard CommError), fault domain = fault_domain_base + i (schedules
// can't cross tenants), telemetry namespace "farm.tenant.<name>." (gauges
// don't clobber each other).
//
// Fair share: each admission may consume quota_step_cells (steps × global
// cells) before it must yield. The check runs at checkpoint boundaries only —
// the state is already safely on disk — and every rank agrees via an
// allreduce before stopping, so a lease never tears. Preempted tenants
// re-enter the queue tail and warm-start from their newest verified
// generation when re-admitted.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "farm/scenario.hpp"
#include "farm/shared_state.hpp"

namespace licomk::farm {

class ForecastFarm {
 public:
  explicit ForecastFarm(FarmOptions options);

  /// Enqueue a scenario; returns its tenant index. Rejects duplicate names
  /// and submissions while run() is draining.
  int submit(ScenarioRequest request);

  /// Drain the queue: run every submitted tenant to Completed or Failed,
  /// max_concurrent at a time, honoring fair-share preemption. Tenant
  /// failures are recorded in their status (state == Failed), never thrown —
  /// one scenario's permanent failure must not take down the farm. Blocks
  /// until the queue is empty and every lease has ended.
  void run();

  /// Snapshot of one tenant's status (by submission index) / of all tenants.
  TenantStatus status(int index) const;
  std::vector<TenantStatus> statuses() const;

  SharedBaseState& base_state() { return base_; }
  const FarmOptions& options() const { return options_; }

 private:
  struct Tenant {
    ScenarioRequest request;
    TenantStatus status;
    double enqueued_at_s = 0.0;  ///< telemetry::now_seconds at (re-)enqueue
    bool faults_armed = false;
  };

  void worker_loop();
  /// Run one lease; returns true when the tenant was preempted (re-enqueue).
  bool run_lease(Tenant& t);
  bool has_waiters() const;
  void publish_tenant_gauges(const Tenant& t) const;
  void set_queue_depth_gauge() const;

  FarmOptions options_;
  SharedBaseState base_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  std::deque<int> queue_;
  int active_leases_ = 0;
  bool draining_ = false;
};

}  // namespace licomk::farm
