#include "farm/farm.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <thread>
#include <utility>

#include "comm/communicator.hpp"
#include "resilience/redistribute.hpp"
#include "resilience/supervisor.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace licomk::farm {

namespace {

void bump(const std::string& name) {
  if (telemetry::enabled()) telemetry::counter(name).add(1);
}

/// Tenant names become checkpoint subdirectories and telemetry-gauge name
/// segments, so keep them to a conservative portable character set.
bool name_is_safe(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const char* to_string(TenantState s) {
  switch (s) {
    case TenantState::Queued:
      return "queued";
    case TenantState::Running:
      return "running";
    case TenantState::Preempted:
      return "preempted";
    case TenantState::Completed:
      return "completed";
    case TenantState::Failed:
      return "failed";
  }
  return "unknown";
}

ForecastFarm::ForecastFarm(FarmOptions options) : options_(std::move(options)) {
  LICOMK_REQUIRE(options_.max_concurrent >= 1, "farm needs at least one worker slot");
  LICOMK_REQUIRE(!options_.checkpoint_root.empty(), "farm needs a checkpoint_root");
  LICOMK_REQUIRE(options_.fault_domain_base >= 0, "fault_domain_base must be >= 0");
  std::filesystem::create_directories(options_.checkpoint_root);
}

int ForecastFarm::submit(ScenarioRequest request) {
  LICOMK_REQUIRE(name_is_safe(request.name),
                 "tenant name must be non-empty [A-Za-z0-9_-] (it names the checkpoint "
                 "subdirectory and the telemetry namespace)");
  LICOMK_REQUIRE(request.nranks >= 1, "tenant needs at least one rank");
  LICOMK_REQUIRE(request.days >= 0.0, "tenant horizon must be >= 0 days");
  if (request.quota_step_cells > 0) {
    // Preemption only happens at checkpoint boundaries (the state must be on
    // disk before a lease lets go); a quota without a cadence would silently
    // never preempt, which is always a configuration mistake.
    LICOMK_REQUIRE(request.checkpoint_every_steps > 0,
                   "a fair-share quota needs checkpoint_every_steps > 0 (tenants are only "
                   "preempted at checkpoint boundaries)");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  LICOMK_REQUIRE(!draining_, "cannot submit while the farm is draining");
  for (const auto& t : tenants_) {
    LICOMK_REQUIRE(t->request.name != request.name,
                   "duplicate tenant name '" + request.name + "'");
  }
  const int index = static_cast<int>(tenants_.size());
  auto t = std::make_unique<Tenant>();
  t->status.name = request.name;
  t->status.index = index;
  t->status.state = TenantState::Queued;
  t->status.target_steps = static_cast<long long>(
      std::llround(request.days * 86400.0 / request.config.grid.dt_baroclinic));
  t->enqueued_at_s = telemetry::now_seconds();
  t->request = std::move(request);
  tenants_.push_back(std::move(t));
  queue_.push_back(index);
  set_queue_depth_gauge();
  bump("farm.submitted");
  return index;
}

void ForecastFarm::run() {
  int nworkers = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    LICOMK_REQUIRE(!draining_, "ForecastFarm::run is not reentrant");
    draining_ = true;
    nworkers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(options_.max_concurrent), queue_.size()));
  }
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(nworkers));
  for (int w = 0; w < nworkers; ++w) {
    workers.emplace_back([this] { worker_loop(); });
  }
  for (auto& w : workers) w.join();
  std::lock_guard<std::mutex> lock(mutex_);
  draining_ = false;
  set_queue_depth_gauge();
}

bool ForecastFarm::has_waiters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !queue_.empty();
}

void ForecastFarm::set_queue_depth_gauge() const {
  if (telemetry::enabled()) {
    telemetry::set_gauge("farm.queue.depth", static_cast<double>(queue_.size()));
  }
}

void ForecastFarm::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    // A worker may stop only when no lease is active anywhere: an active
    // lease can still be preempted and re-enter the queue.
    cv_.wait(lock, [this] { return !queue_.empty() || active_leases_ == 0; });
    if (queue_.empty()) return;
    const int index = queue_.front();
    queue_.pop_front();
    active_leases_ += 1;
    set_queue_depth_gauge();
    Tenant& t = *tenants_[static_cast<std::size_t>(index)];
    lock.unlock();

    const bool requeue = run_lease(t);

    lock.lock();
    active_leases_ -= 1;
    if (requeue) {
      t.enqueued_at_s = telemetry::now_seconds();
      queue_.push_back(index);
      set_queue_depth_gauge();
    }
    cv_.notify_all();
  }
}

bool ForecastFarm::run_lease(Tenant& t) {
  namespace fs = std::filesystem;
  const ScenarioRequest& req = t.request;
  const double lease_start_s = telemetry::now_seconds();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    t.status.state = TenantState::Running;
    t.status.admissions += 1;
    t.status.queue_wait_s += lease_start_s - t.enqueued_at_s;
  }
  bump("farm.admissions");

  // Callers set the physics; the farm sets the multi-tenant plumbing.
  core::ModelConfig cfg = req.config;
  const std::string ns = "farm.tenant." + req.name + ".";
  cfg.telemetry_namespace = ns;
  // Spaced by the model's own tag-block count: tenants' live group plans can
  // never overlap — the silent cross-talk the tag-claim registry forbids.
  cfg.halo_tag_base = t.status.index * core::LicomModel::kHaloTagBlocks;
  const int domain = options_.fault_domain_base + t.status.index;
  if (!t.faults_armed && !req.faults.empty()) {
    resilience::arm_scoped(domain, req.faults);
    t.faults_armed = true;
  }

  resilience::SupervisorOptions sup;
  sup.nranks = req.nranks;
  sup.checkpoint_dir = (fs::path(options_.checkpoint_root) / req.name).string();
  sup.checkpoint_every_steps = req.checkpoint_every_steps;
  sup.keep_generations = req.keep_generations;
  sup.max_retries = req.max_retries;
  sup.max_shrinks = req.max_shrinks;
  sup.min_ranks = req.min_ranks;
  sup.grow_back = req.grow_back;
  sup.capacity_probe = req.capacity_probe;
  sup.shared_grid = base_.acquire(cfg.grid, cfg.bathymetry_seed);
  sup.telemetry_prefix = ns;
  sup.fault_domain = domain;
  const std::string final_prefix = sup.checkpoint_dir + "/final";

  const long long target = t.status.target_steps;
  const std::uint64_t cells = static_cast<std::uint64_t>(cfg.grid.nx) *
                              static_cast<std::uint64_t>(cfg.grid.ny) *
                              static_cast<std::uint64_t>(cfg.grid.nz);

  // Written only by rank 0 of the last attempt; reads happen after
  // Runtime::run's join, so plain variables are race-free here.
  bool preempted = false;
  long long end_steps = 0;
  double lease_sypd = 0.0;
  std::uint64_t lease_step_cells = 0;

  const auto body = [&](core::LicomModel& model) {
    const long long start_steps = model.steps_taken();
    while (model.steps_taken() < target) {
      model.step();
      // Fair share, checked only at checkpoint boundaries — the generation
      // the hook just wrote is the warm-start point of the next admission.
      // Every rank evaluates its own view (the queue may change between
      // ranks) and the decision is allreduced, so the lease never tears:
      // either all ranks stop here or none do.
      if (req.quota_step_cells > 0 && req.checkpoint_every_steps > 0 &&
          model.steps_taken() % req.checkpoint_every_steps == 0 &&
          model.steps_taken() < target) {
        const std::uint64_t consumed =
            static_cast<std::uint64_t>(model.steps_taken() - start_steps) * cells;
        const double want_stop =
            (consumed >= req.quota_step_cells && has_waiters()) ? 1.0 : 0.0;
        if (model.communicator().allreduce_scalar(want_stop, comm::ReduceOp::Max) > 0.0) {
          break;
        }
      }
    }
    const bool complete = model.steps_taken() >= target;
    if (complete) model.write_restart(final_prefix);
    model.run_days(0.0);  // publish this instance's namespaced model gauges
    const double sg = model.sypd_global();  // collective — every rank calls
    if (model.communicator().rank() == 0) {
      preempted = !complete;
      end_steps = model.steps_taken();
      lease_sypd = sg;
      lease_step_cells = static_cast<std::uint64_t>(model.steps_taken() - start_steps) * cells;
    }
  };

  // Constructed OUTSIDE the try so the catch can read last_report(): a lease
  // that gives up permanently still surrenders its escalation forensics.
  resilience::Supervisor supervisor(sup);
  const auto record_report = [&](const resilience::SupervisorReport& report) {
    // Caller holds mutex_.
    t.status.attempts += report.attempts;
    t.status.recoveries += report.recoveries;
    t.status.shrinks += report.shrinks;
    t.status.growbacks += report.growbacks;
    t.status.redistributions += static_cast<int>(report.redistributions.size());
    t.status.backoff_wall_s += report.backoff_wall_s;
  };

  bool requeue = false;
  try {
    const resilience::SupervisorReport report = supervisor.run(cfg, body);
    std::vector<std::uint64_t> final_crcs;
    if (!preempted) {
      // Prove the end state rather than assume it: assemble the global
      // prognostic fields from the final restart and record their CRCs.
      const auto final_dec = core::LicomModel::plan_decomposition(cfg, report.final_nranks);
      final_crcs = resilience::assemble_global_state(final_prefix, final_dec).field_crcs;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    record_report(report);
    t.status.steps = end_steps;
    t.status.sypd = lease_sypd;
    t.status.step_cells += lease_step_cells;
    t.status.run_wall_s += telemetry::now_seconds() - lease_start_s;
    if (preempted) {
      t.status.state = TenantState::Preempted;
      t.status.preemptions += 1;
      requeue = true;
    } else {
      t.status.state = TenantState::Completed;
      t.status.final_crcs = std::move(final_crcs);
    }
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (supervisor.last_report()) record_report(*supervisor.last_report());
    t.status.state = TenantState::Failed;
    t.status.error = e.what();
    t.status.run_wall_s += telemetry::now_seconds() - lease_start_s;
  }

  const TenantState state = [&] {
    std::lock_guard<std::mutex> lock(mutex_);
    return t.status.state;
  }();
  if (state == TenantState::Preempted) {
    bump("farm.preemptions");
    LICOMK_LOG_INFO("farm") << "tenant '" << req.name << "' preempted at step "
                            << end_steps << "/" << target << " (fair share)";
  } else if (state == TenantState::Completed) {
    bump("farm.completions");
  } else {
    bump("farm.failures");
    LICOMK_LOG_WARN("farm") << "tenant '" << req.name << "' failed permanently";
  }
  // A tenant that leaves the farm takes its fault schedule with it; a
  // preempted one keeps it armed — its op counters must keep advancing from
  // where the lease left off, exactly like a standalone run would.
  if (!requeue && t.faults_armed) {
    resilience::disarm_domain(domain);
    t.faults_armed = false;
  }
  publish_tenant_gauges(t);
  return requeue;
}

void ForecastFarm::publish_tenant_gauges(const Tenant& t) const {
  if (!telemetry::enabled()) return;
  TenantStatus s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s = t.status;
  }
  const std::string ns = "farm.tenant." + s.name + ".";
  telemetry::set_gauge(ns + "state", static_cast<double>(s.state));
  telemetry::set_gauge(ns + "sypd", s.sypd);
  telemetry::set_gauge(ns + "steps", static_cast<double>(s.steps));
  telemetry::set_gauge(ns + "step_cells", static_cast<double>(s.step_cells));
  telemetry::set_gauge(ns + "queue_wait_s", s.queue_wait_s);
  telemetry::set_gauge(ns + "run_wall_s", s.run_wall_s);
  telemetry::set_gauge(ns + "admissions", static_cast<double>(s.admissions));
  telemetry::set_gauge(ns + "preemptions", static_cast<double>(s.preemptions));
  telemetry::set_gauge(ns + "attempts", static_cast<double>(s.attempts));
  telemetry::set_gauge(ns + "recoveries", static_cast<double>(s.recoveries));
  telemetry::set_gauge(ns + "shrinks", static_cast<double>(s.shrinks));
  telemetry::set_gauge(ns + "growbacks", static_cast<double>(s.growbacks));
  telemetry::set_gauge(ns + "redistributions", static_cast<double>(s.redistributions));
  telemetry::set_gauge(ns + "backoff_wall_s", s.backoff_wall_s);
  telemetry::set_label(ns + "state_name", to_string(s.state));
}

TenantStatus ForecastFarm::status(int index) const {
  std::lock_guard<std::mutex> lock(mutex_);
  LICOMK_REQUIRE(index >= 0 && index < static_cast<int>(tenants_.size()),
                 "no tenant with index " + std::to_string(index));
  return tenants_[static_cast<std::size_t>(index)]->status;
}

std::vector<TenantStatus> ForecastFarm::statuses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStatus> out;
  out.reserve(tenants_.size());
  for (const auto& t : tenants_) out.push_back(t->status);
  return out;
}

}  // namespace licomk::farm
