// stepbench — the LICOMK++ step benchmark program.
//
// Runs one named workload as a closed loop of repetitions ("reps"). A rep is
// one whole solution: build the grid and the model(s) from the configuration,
// advance a fixed number of steps (for the farm: drain a ForecastFarm of
// perturbed members), read the final state back and verify it. The next rep
// starts only when the previous one has finished, and reps repeat until
// --seconds have elapsed. Every rep of one seed computes the same final state,
// so its fingerprint must repeat exactly.
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1) spend half the time untraced, then switch telemetry on, record
// the benchmark's own spans around grid build, model build, every rank's
// step(), ForecastFarm::run and the verification read-back, harvest the
// program's phase/kernel/halo/resilience aggregates into per-layer metrics,
// and write a Chrome trace that holds both.
//
// References (the Serial run threads_1r must match bit for bit, the 1-rank
// run ranks_4r must match in its diagnostics, the standalone twin of a farm
// member) are computed after the timed reps and never timed.
//
// Usage: stepbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//                  [--tiny] [--corrupt-ref]
// --tiny shrinks every workload to a seconds-long smoke size; --corrupt-ref
// flips the reference fingerprint so every verification must fail. The last
// stdout line is {"correct", "attempted", "failed", "metrics"}; the line
// before it is a "record" object describing the run.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "core/state.hpp"
#include "farm/farm.hpp"
#include "kxx/kxx.hpp"
#include "resilience/checkpoint.hpp"
#include "resilience/redistribute.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"
#include "util/json.hpp"
#include "util/stats.hpp"
#include "util/sypd.hpp"

namespace fs = std::filesystem;
namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace lf = licomk::farm;
namespace lg = licomk::grid;
namespace lr = licomk::resilience;
namespace lu = licomk::util;
namespace kxx = licomk::kxx;
namespace tel = licomk::telemetry;

namespace {

double now_s() { return tel::now_seconds(); }

// ---------------------------------------------------------------------------
// Workloads

struct Workload {
  std::string name;
  int shrink = 2;
  int nz = 30;
  int ranks = 1;
  kxx::Backend backend = kxx::Backend::Serial;
  int threads = 1;
  long long steps = 0;  ///< steps per rep; for the farm, each member's horizon
  int members = 0;      ///< farm only: ensemble size
  int slots = 0;        ///< farm only: concurrent leases
  long long checkpoint_every = 0;
  bool farm() const { return members > 0; }
};

// Why each workload exists is written down in README.md next to this file.
Workload workload_by_name(const std::string& name, bool tiny) {
  Workload w;
  w.name = name;
  // Reps are kept near 1-4 s so a run holds enough replays of every step
  // for the fastest-replay statistics in end_to_end().
  if (name == "serial_1r") {
    w.shrink = 2;
    w.steps = 6;
  } else if (name == "threads_1r") {
    w.shrink = 4;
    w.backend = kxx::Backend::Threads;
    w.threads = 4;
    w.steps = 24;
  } else if (name == "ranks_4r") {
    w.shrink = 2;
    w.ranks = 4;
    w.steps = 12;
  } else if (name == "ensemble_farm") {
    w.shrink = 6;
    w.steps = 30;  // half a simulated day per member
    w.members = 6;
    w.slots = 2;
    w.checkpoint_every = 5;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (serial_1r, threads_1r, ranks_4r, ensemble_farm)");
  }
  if (tiny) {
    w.shrink = 12;
    w.nz = 8;
    w.steps = w.farm() ? 6 : 3;
    if (w.farm()) {
      w.members = 3;
      w.checkpoint_every = 2;
    }
  }
  return w;
}

lc::ModelConfig model_config(const Workload& w, unsigned seed) {
  lc::ModelConfig cfg;
  cfg.grid = lg::shrink(lg::spec_coarse100km(), w.shrink);
  cfg.grid.nz = w.nz;
  cfg.bathymetry_seed = seed;
  return cfg;
}

/// Farm members: the base configuration with seeded wind-stress and initial
/// temperature perturbations, small enough that every member stays stable.
std::vector<lc::ModelConfig> member_configs(const Workload& w, unsigned seed) {
  std::mt19937_64 rng(0x9E3779B97F4A7C15ull ^ seed);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<lc::ModelConfig> out;
  for (int i = 0; i < w.members; ++i) {
    lc::ModelConfig cfg = model_config(w, seed);
    cfg.wind_stress_scale = 1.0 + 0.05 * u(rng);
    cfg.initial_t_perturb_c = 0.01 * u(rng);
    out.push_back(cfg);
  }
  return out;
}

void init_backend(kxx::Backend backend, int threads) {
  kxx::InitConfig kc;
  kc.backend = backend;
  kc.num_threads = threads;
  kxx::initialize(kc);
}

// ---------------------------------------------------------------------------
// The benchmark's own spans (recorded only in the traced phase)

class SpanLog {
 public:
  struct Record {
    int id = 0, parent = 0, rank = -1;
    std::string name;
    double t0 = 0.0, t1 = 0.0;
  };

  std::atomic<bool> on{false};

  int next_id() { return ++ids_; }
  void add(Record r) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(r));
  }
  /// Chrome trace events (pid 1, one lane per rank; -1 = the main thread).
  std::string chrome_events(const std::string& workload) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    for (std::size_t n = 0; n < records_.size(); ++n) {
      const Record& r = records_[n];
      if (n > 0) os << ",\n";
      os << "{\"name\": \"" << lu::json_escape(r.name) << "\", \"cat\": \"bench\", \"ph\": \"X\""
         << ", \"ts\": " << lu::json_number(r.t0 * 1e6)
         << ", \"dur\": " << lu::json_number((r.t1 - r.t0) * 1e6) << ", \"pid\": 1, \"tid\": "
         << (r.rank + 1) << ", \"args\": {\"workload\": \"" << lu::json_escape(workload)
         << "\", \"rank\": " << r.rank << ", \"id\": " << r.id << ", \"parent\": " << r.parent
         << "}}";
    }
    return os.str();
  }

 private:
  std::atomic<int> ids_{0};
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

class Span {
 public:
  Span(SpanLog& log, const char* name, int parent, int rank) : log_(log) {
    if (log.on.load(std::memory_order_relaxed)) {
      rec_.id = log.next_id();
      rec_.parent = parent;
      rec_.rank = rank;
      rec_.name = name;
      rec_.t0 = now_s();
    }
  }
  ~Span() {
    if (rec_.id > 0) {
      rec_.t1 = now_s();
      log_.add(std::move(rec_));
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int id() const { return rec_.id; }

 private:
  SpanLog& log_;
  SpanLog::Record rec_;
};

// ---------------------------------------------------------------------------
// Reps

/// Per-field CRC-64 of one rank's prognostic state, halo-inclusive.
std::vector<std::uint64_t> field_crcs(const lc::OceanState& s) {
  std::vector<std::uint64_t> out;
  for (const auto* f : lc::prognostic_fields3(s)) {
    out.push_back(lu::crc64(f->view().data(), static_cast<std::size_t>(f->nz()) *
                                                  f->ny_total() * f->nx_total() * sizeof(double)));
  }
  for (const auto* f : lc::prognostic_fields2(s)) {
    out.push_back(lu::crc64(f->view().data(),
                            static_cast<std::size_t>(f->ny_total()) * f->nx_total() * sizeof(double)));
  }
  return out;
}

std::uint64_t fingerprint(const std::vector<std::uint64_t>& crcs) {
  return lu::crc64(crcs.data(), crcs.size() * sizeof(std::uint64_t));
}

struct Rep {
  bool ok = false;
  std::string error;
  double setup_s = 0.0, solve_s = 0.0;
  double grid_s = 0.0, model_s = 0.0;
  double loop_wall_s = 0.0;  ///< slowest rank's step-loop wall time
  double sim_s = 0.0;        ///< simulated seconds (summed over farm members)
  double mean_rank_wall_s = 0.0;
  std::vector<double> step_s;  ///< slowest rank per step; farm: member mean step
  std::vector<std::uint64_t> crcs;  ///< rank-major per-field CRCs (model workloads)
  std::uint64_t print = 0;          ///< fingerprint of crcs
  lc::GlobalDiagnostics diag;
  // Halo deltas over the step loop, summed over ranks.
  std::uint64_t halo_msgs = 0, halo_bytes = 0, halo_equiv = 0, halo_exch = 0, halo_skip = 0;
  std::uint64_t subcycle_msgs = 0;
  std::uint64_t comm_msgs = 0, comm_bytes = 0;
  // Farm.
  std::vector<std::vector<std::uint64_t>> member_crcs;
  std::vector<bool> member_ok;
  int admissions = 0, preemptions = 0;
  double queue_wait_s = 0.0, lease_wall_s = 0.0;
  double ckpt_mb_per_write = 0.0;
};

Rep run_model_rep(const Workload& w, const lc::ModelConfig& cfg, int nranks, SpanLog& log) {
  Rep r;
  Span rep(log, "bench.rep", 0, -1);
  const bool traced = tel::enabled();
  const double t0 = now_s();
  std::shared_ptr<const lg::GlobalGrid> global;
  {
    Span s(log, "bench.grid_build", rep.id(), -1);
    global = std::make_shared<lg::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  }
  r.grid_s = now_s() - t0;
  const auto n = static_cast<std::size_t>(nranks);
  const auto steps = static_cast<std::size_t>(w.steps);
  std::vector<double> built(n), done(n), wall(n), step_s(n * steps);
  std::vector<std::vector<std::uint64_t>> crcs(n);
  std::vector<licomk::halo::HaloStats> h0(n), h1(n);
  std::vector<std::uint64_t> sub(n);
  std::uint64_t comm_m0 = 0, comm_b0 = 0;
  lco::Runtime::run(nranks, [&](lco::Communicator& c) {
    const auto rank = static_cast<std::size_t>(c.rank());
    std::unique_ptr<lc::LicomModel> m;
    {
      Span s(log, "bench.model_build", rep.id(), c.rank());
      m = std::make_unique<lc::LicomModel>(cfg, global, c);
    }
    built[rank] = now_s();
    // The step loop starts once every rank is built, so no rank's first step
    // waits for a slower rank's construction.
    c.barrier();
    if (traced) {
      // Bracket the step loop so the process-wide comm counters see only it.
      if (rank == 0) {
        comm_m0 = tel::counter_value("comm.messages");
        comm_b0 = tel::counter_value("comm.bytes");
      }
      c.barrier();
    }
    h0[rank] = m->exchanger().stats();
    for (std::size_t s = 0; s < steps; ++s) {
      Span sp(log, "bench.step", rep.id(), c.rank());
      const double a = now_s();
      m->step();
      step_s[rank * steps + s] = now_s() - a;
    }
    wall[rank] = m->step_wall_seconds();
    h1[rank] = m->exchanger().stats();
    sub[rank] = m->subcycle_messages();
    if (traced) {
      c.barrier();
      if (rank == 0) {
        r.comm_msgs = tel::counter_value("comm.messages") - comm_m0;
        r.comm_bytes = tel::counter_value("comm.bytes") - comm_b0;
      }
    }
    {
      Span s(log, "bench.verify", rep.id(), c.rank());
      const lc::GlobalDiagnostics d = m->diagnostics();  // collective
      if (rank == 0) r.diag = d;
      crcs[rank] = field_crcs(m->state());
    }
    done[rank] = now_s();
  });
  r.setup_s = *std::max_element(built.begin(), built.end()) - t0;
  r.model_s = r.setup_s - r.grid_s;
  r.solve_s = *std::max_element(done.begin(), done.end()) - t0;
  r.loop_wall_s = *std::max_element(wall.begin(), wall.end());
  double wsum = 0.0;
  for (double x : wall) wsum += x;
  r.mean_rank_wall_s = wsum / static_cast<double>(n);
  r.sim_s = static_cast<double>(w.steps) * cfg.grid.dt_baroclinic;
  for (std::size_t s = 0; s < steps; ++s) {
    double slowest = 0.0;
    for (std::size_t k = 0; k < n; ++k) slowest = std::max(slowest, step_s[k * steps + s]);
    r.step_s.push_back(slowest);
  }
  for (std::size_t k = 0; k < n; ++k) {
    r.crcs.insert(r.crcs.end(), crcs[k].begin(), crcs[k].end());
    r.halo_msgs += h1[k].messages - h0[k].messages;
    r.halo_bytes += h1[k].bytes - h0[k].bytes;
    r.halo_equiv += h1[k].equiv_messages - h0[k].equiv_messages;
    r.halo_exch += h1[k].exchanges - h0[k].exchanges;
    r.halo_skip += h1[k].skipped - h0[k].skipped;
    r.subcycle_msgs += sub[k];
  }
  r.print = fingerprint(r.crcs);
  r.ok = true;
  return r;
}

/// Mean size in MB of the checkpoint generation files left under `root`.
double checkpoint_mb_per_file(const fs::path& root) {
  double bytes = 0.0;
  int files = 0;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    const std::string name = e.path().filename().string();
    if (e.is_regular_file() && name.rfind("ckpt.gen", 0) == 0) {
      bytes += static_cast<double>(e.file_size());
      files += 1;
    }
  }
  return files > 0 ? bytes / files / 1e6 : 0.0;
}

bool all_finite(const lr::GlobalAssembly& g) {
  for (const auto* set : {&g.fields3, &g.fields2})
    for (const auto& f : *set)
      for (double v : f)
        if (!std::isfinite(v)) return false;
  return true;
}

Rep run_farm_rep(const Workload& w, const std::vector<lc::ModelConfig>& members,
                 const fs::path& root, SpanLog& log) {
  Rep r;
  fs::remove_all(root);
  fs::create_directories(root);
  Span rep(log, "bench.rep", 0, -1);
  const double t0 = now_s();
  lf::FarmOptions opts;
  opts.max_concurrent = w.slots;
  opts.checkpoint_root = root.string();
  lf::ForecastFarm farm(opts);
  const lc::ModelConfig& base = members.front();
  std::shared_ptr<const lg::GlobalGrid> global;
  {
    Span s(log, "bench.grid_build", rep.id(), -1);
    global = farm.base_state().acquire(base.grid, base.bathymetry_seed);
  }
  r.grid_s = now_s() - t0;
  {
    // What every lease pays on admission: one member model over the shared grid.
    Span s(log, "bench.model_build", rep.id(), 0);
    lco::World world(1);
    lc::LicomModel probe(base, global, world.communicator(0));
  }
  r.setup_s = now_s() - t0;
  r.model_s = r.setup_s - r.grid_s;

  const std::uint64_t cells = static_cast<std::uint64_t>(base.grid.nx) *
                              static_cast<std::uint64_t>(base.grid.ny) *
                              static_cast<std::uint64_t>(base.grid.nz);
  for (std::size_t i = 0; i < members.size(); ++i) {
    lf::ScenarioRequest req;
    req.name = "m" + std::to_string(i);
    req.config = members[i];
    req.days = static_cast<double>(w.steps) * base.grid.dt_baroclinic / 86400.0;
    req.checkpoint_every_steps = w.checkpoint_every;
    // One checkpoint interval per admission: a member yields at every
    // checkpoint boundary while others wait, so each one is preempted and
    // warm-starts from its checkpoint at least once.
    req.quota_step_cells = static_cast<std::uint64_t>(w.checkpoint_every) * cells;
    farm.submit(req);
  }
  const double f0 = now_s();
  {
    Span s(log, "bench.farm_run", rep.id(), -1);
    farm.run();
  }
  r.loop_wall_s = now_s() - f0;
  r.mean_rank_wall_s = r.loop_wall_s;
  r.ckpt_mb_per_write = checkpoint_mb_per_file(root);

  {
    Span s(log, "bench.verify", rep.id(), -1);
    const double step_days = base.grid.dt_baroclinic / 86400.0;
    for (std::size_t i = 0; i < members.size(); ++i) {
      const lf::TenantStatus st = farm.status(static_cast<int>(i));
      r.admissions += st.admissions;
      r.preemptions += st.preemptions;
      r.queue_wait_s += st.queue_wait_s;
      r.lease_wall_s += st.run_wall_s;
      bool ok = st.state == lf::TenantState::Completed && st.steps == w.steps && st.sypd > 0.0;
      if (ok) {
        // The verification read-back: the member's final restart, assembled
        // into the global state, must be finite and match the farm's CRCs.
        const auto g = lr::assemble_global_state(
            (root / st.name / "final").string(), lc::LicomModel::plan_decomposition(members[i], 1));
        ok = all_finite(g) && g.field_crcs == st.final_crcs;
        r.sim_s += static_cast<double>(st.steps) * base.grid.dt_baroclinic;
        r.step_s.push_back(lu::wall_seconds_per_simulated_day(st.sypd) * step_days);
      } else if (r.error.empty()) {
        r.error = st.name + " ended " + lf::to_string(st.state) + ": " + st.error;
      }
      r.member_crcs.push_back(st.final_crcs);
      r.member_ok.push_back(ok);
    }
    r.ok = std::all_of(r.member_ok.begin(), r.member_ok.end(), [](bool ok) { return ok; });
    if (tel::enabled()) {
      // Warm starts read their checkpoint inside the supervisor, which has no
      // span of its own; time the same read once through CheckpointManager.
      lr::CheckpointManager manager((root / "m0").string());
      lco::World world(1);
      lc::LicomModel model(members[0], global, world.communicator(0));
      if (const auto gen = manager.newest_verified_generation(1)) manager.restore(model, *gen);
    }
  }
  std::vector<std::uint64_t> flat;
  for (const auto& c : r.member_crcs) flat.insert(flat.end(), c.begin(), c.end());
  r.print = fingerprint(flat);
  r.solve_s = now_s() - t0;
  fs::remove_all(root);
  return r;
}

// ---------------------------------------------------------------------------
// Verification against references computed by this binary, never timed.

struct Verdict {
  long long attempted = 0, failed = 0;
  std::vector<std::string> why;
  void count(bool ok, const std::string& what) {
    attempted += 1;
    if (!ok) {
      failed += 1;
      if (why.size() < 8) why.push_back(what);
    }
  }
};

bool diag_close(const lc::GlobalDiagnostics& a, const lc::GlobalDiagnostics& b) {
  for (auto [x, y] : {std::pair{a.mean_sst, b.mean_sst}, {a.kinetic_energy, b.kinetic_energy},
                      {a.max_abs_eta, b.max_abs_eta}, {a.mean_temp, b.mean_temp}}) {
    if (!(lu::rel_diff(x, y) <= 1e-9)) return false;
  }
  return true;
}

Verdict verify(const Workload& w, unsigned seed, const std::vector<Rep>& reps,
               const fs::path& out, bool corrupt) {
  Verdict v;
  const lc::ModelConfig cfg = model_config(w, seed);
  if (w.farm()) {
    // Farm contract: member 0 ends bit-identical to its standalone twin.
    const auto members = member_configs(w, seed);
    const std::string prefix = (out / "twin" / "final").string();
    fs::create_directories(out / "twin");
    lco::Runtime::run(1, [&](lco::Communicator& c) {
      auto global = std::make_shared<lg::GlobalGrid>(members[0].grid, members[0].bathymetry_seed);
      lc::LicomModel m(members[0], global, c);
      for (long long s = 0; s < w.steps; ++s) m.step();
      m.write_restart(prefix);
    });
    std::vector<std::uint64_t> twin =
        lr::assemble_global_state(prefix, lc::LicomModel::plan_decomposition(members[0], 1))
            .field_crcs;
    fs::remove_all(out / "twin");
    if (corrupt) twin[0] = ~twin[0];
    // Every member must also repeat the first complete rep's final state.
    std::vector<std::vector<std::uint64_t>> ref(members.size());
    for (const Rep& r : reps) {
      if (r.member_crcs.size() == members.size()) {
        ref = r.member_crcs;
        break;
      }
    }
    for (auto& crcs : ref)
      if (corrupt && !crcs.empty()) crcs[0] = ~crcs[0];
    for (std::size_t k = 0; k < reps.size(); ++k) {
      const Rep& r = reps[k];
      for (std::size_t i = 0; i < members.size(); ++i) {
        const std::string who = "rep " + std::to_string(k) + " member " + std::to_string(i);
        if (i >= r.member_ok.size()) {
          v.count(false, who + ": " + r.error);
          continue;
        }
        bool ok = r.member_ok[i] && r.member_crcs[i] == ref[i];
        if (i == 0) ok = ok && r.member_crcs[0] == twin;
        v.count(ok, who + (r.member_ok[i] ? ": CRC mismatch" : ": " + r.error));
      }
    }
    return v;
  }

  std::vector<std::uint64_t> ref_crcs;
  lc::GlobalDiagnostics ref_diag;
  if (w.backend != kxx::Backend::Serial || w.ranks > 1) {
    SpanLog quiet;
    init_backend(kxx::Backend::Serial, 1);
    const Rep ref = run_model_rep(w, cfg, 1, quiet);
    ref_crcs = ref.crcs;
    ref_diag = ref.diag;
  }
  std::uint64_t ref_print = 0;
  for (const Rep& r : reps) {
    if (r.ok) {
      ref_print = r.print;
      break;
    }
  }
  if (corrupt) ref_print = ~ref_print;
  if (corrupt && !ref_crcs.empty()) ref_crcs[0] = ~ref_crcs[0];
  for (std::size_t k = 0; k < reps.size(); ++k) {
    const Rep& r = reps[k];
    const std::string who = "rep " + std::to_string(k);
    if (!r.ok) {
      v.count(false, who + ": " + r.error);
      continue;
    }
    bool ok = r.diag.finite() && r.print == ref_print;
    std::string what = who + ": fingerprint differs from the first rep";
    if (ok && w.ranks == 1 && !ref_crcs.empty()) {
      ok = r.crcs == ref_crcs;
      what = who + ": per-field CRCs differ from the Serial 1-rank reference";
    }
    if (ok && w.ranks > 1) {
      ok = diag_close(r.diag, ref_diag);
      what = who + ": diagnostics differ from the 1-rank reference by more than 1e-9";
    }
    if (!r.diag.finite()) what = who + ": non-finite diagnostics";
    v.count(ok, what);
  }
  return v;
}

// ---------------------------------------------------------------------------
// Metrics

double median(std::vector<double> v) { return v.empty() ? 0.0 : lu::percentile(v, 50.0); }

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

struct Metric {
  double value;
  std::string unit;
};
using Metrics = std::vector<std::pair<std::string, Metric>>;

double total_sypd(const std::vector<Rep>& reps) {
  double sim = 0.0, wall = 0.0;
  for (const Rep& r : reps) {
    sim += r.sim_s;
    wall += r.loop_wall_s;
  }
  return lu::sypd(sim, wall);
}

// Host CPU speed on the reference machine swings by up to ±25 % over 5-20 s
// (README.md, "Noise"), and that noise only ever adds time. Every rep replays
// the identical sequence of steps, so step k's cost is taken as its fastest
// replay, and step percentiles and sypd come from those per-step minima. The
// farm's members overlap in time, so there the replay is the whole farm run
// and its fastest one gives sypd. Time to solution is the fastest rep: a
// slower program slows every replay, the fastest included. Set-up is the
// median over the run's reps.
Metrics end_to_end(const Workload& w, const std::vector<Rep>& reps, double rss_mb) {
  double sypd = 0.0, solve = 0.0, sim_s = 0.0;
  std::vector<double> best_s, setup;
  for (const Rep& r : reps) {
    if (!r.ok) continue;
    const bool first = setup.empty();
    if (first) best_s = r.step_s;
    for (std::size_t k = 0; k < best_s.size(); ++k) best_s[k] = std::min(best_s[k], r.step_s[k]);
    sypd = std::max(sypd, lu::sypd(r.sim_s, r.loop_wall_s));
    solve = first ? r.solve_s : std::min(solve, r.solve_s);
    sim_s = r.sim_s;
    setup.push_back(r.setup_s);
  }
  std::vector<double> best_ms;
  double best_loop_s = 0.0;
  for (double s : best_s) {
    best_ms.push_back(s * 1e3);
    best_loop_s += s;
  }
  if (!w.farm()) sypd = lu::sypd(sim_s, best_loop_s);
  return {{"sypd", {sypd, "yr/day"}},
          {"step_ms_p50", {median(best_ms), "ms"}},
          {"step_ms_p90", {best_ms.empty() ? 0.0 : lu::percentile(best_ms, 90.0), "ms"}},
          {"time_to_solution_s", {solve, "s"}},
          {"setup_s", {median(setup), "s"}},
          {"peak_rss_mb", {rss_mb, "MB"}}};
}

/// Sea points (kmt > 1, the Fig. 4 work unit) of the busiest block over the mean.
double sea_imbalance(const lc::ModelConfig& cfg, int nranks) {
  const lg::GlobalGrid g(cfg.grid, cfg.bathymetry_seed);
  const auto dec = lc::LicomModel::plan_decomposition(cfg, nranks);
  double mx = 0.0, sum = 0.0;
  for (int r = 0; r < dec.nranks(); ++r) {
    const auto e = dec.block(r);
    double sea = 0.0;
    for (int j = e.j0; j < e.j1; ++j)
      for (int i = e.i0; i < e.i1; ++i) sea += g.bathymetry().kmt(j, i) > 1 ? 1.0 : 0.0;
    mx = std::max(mx, sea);
    sum += sea;
  }
  return sum > 0.0 ? mx / (sum / dec.nranks()) : 0.0;
}

/// Durations (ms) of every trace event named `name`, read from the Chrome
/// trace string the telemetry layer exports.
std::vector<double> trace_durations_ms(const std::string& trace, const std::string& name) {
  std::vector<double> out;
  const std::string key = "\"name\": \"" + name + "\"";
  for (std::size_t at = trace.find(key); at != std::string::npos; at = trace.find(key, at + 1)) {
    const std::size_t d = trace.find("\"dur\": ", at);
    if (d == std::string::npos) break;
    out.push_back(std::strtod(trace.c_str() + d + 7, nullptr) / 1e3);
  }
  return out;
}

Metrics per_layer(const Workload& w, const lc::ModelConfig& cfg, const std::vector<Rep>& traced,
                  double untraced_sypd, const std::string& trace) {
  // Path aggregates with self time = total minus the direct children's totals.
  struct Path {
    double total = 0.0, self = 0.0;
    long long count = 0;
    std::string category;
  };
  std::map<std::string, Path> paths;
  for (const auto& a : tel::path_aggregates()) paths[a.name] = {a.total_s, a.total_s, a.count, a.category};
  for (const auto& [p, info] : paths) {
    const auto slash = p.rfind('/');
    if (slash == std::string::npos) continue;
    auto parent = paths.find(p.substr(0, slash));
    if (parent != paths.end()) parent->second.self -= info.total;
  }
  auto leaf = [](const std::string& p) { return p.substr(p.rfind('/') + 1); };
  auto in_step = [](const std::string& p) { return p.rfind("step/", 0) == 0; };

  const Path step = paths.count("step") ? paths.at("step") : Path{};
  const double rank_steps = std::max<double>(1.0, static_cast<double>(step.count));
  const double model_steps = rank_steps / w.ranks;
  auto per_rank_step_ms = [&](double s) { return s / rank_steps * 1e3; };

  Metrics m;
  auto put = [&m](const std::string& name, double value, const char* unit) {
    m.push_back({name, {value, unit}});
  };

  // core: phases are disjoint children of the step span, so their times
  // partition it; the step span's own remainder is the reported gap.
  double phase_sum = 0.0;
  for (const char* ph : {"halo_in", "readyt", "vmix", "readyc", "barotr", "bclinc", "tracer"}) {
    const std::string p = std::string("step/") + ph;
    const double t = paths.count(p) ? paths.at(p).total : 0.0;
    put(std::string("core.") + ph + "_ms", per_rank_step_ms(t), "ms");
  }
  for (const auto& [p, info] : paths)
    if (in_step(p) && p.find('/', 5) == std::string::npos) phase_sum += info.total;
  put("core.step_ms_mean", per_rank_step_ms(step.total), "ms");
  put("core.phase_gap_frac", step.total > 0.0 ? 1.0 - phase_sum / step.total : 0.0, "ratio");

  // kxx: kernel spans inside the step.
  long long dispatches = 0, box_n = 0;
  double box_t = 0.0;
  std::map<std::string, double> kernel_t;
  // halo: begin/finish self time, zonal wrap/fold copies.
  double begin_self = 0.0, wait_self = 0.0, zonal = 0.0;
  for (const auto& [p, info] : paths) {
    if (!in_step(p)) continue;
    const std::string l = leaf(p);
    if (info.category == "kernel") {
      dispatches += info.count;
      kernel_t[l] += info.total;
      if (l == "halo_box_copy") {
        box_n += info.count;
        box_t += info.total;
      }
    }
    if (l == "halo_begin" || l == "halo_batch_begin" || l == "halo_persistent_begin") begin_self += info.self;
    if (l == "halo_finish" || l == "halo_batch_finish" || l == "halo_persistent_finish") wait_self += info.self;
    if (l == "halo_batch_zonal" || l == "halo_persistent_zonal") zonal += info.total;
  }
  put("kxx.dispatches_per_step", dispatches / model_steps, "count");
  put("kxx.box_copy_dispatches_per_step", box_n / model_steps, "count");
  put("kxx.box_copy_us_mean", box_n > 0 ? box_t / box_n * 1e6 : 0.0, "us");
  put("kxx.box_copy_ms", per_rank_step_ms(box_t), "ms");
  for (const char* k : {"adv_r_factors", "adv_correct", "adv_low_order_pair", "trc_column",
                        "bclinc_column", "dyn_tend_mean"}) {
    put(std::string("kxx.") + k + "_ms", per_rank_step_ms(kernel_t[k]), "ms");
  }
  const double active = static_cast<double>(kxx::pack_lanes_active());
  const double masked = static_cast<double>(kxx::pack_lanes_masked());
  put("kxx.pack_lane_util", active + masked > 0.0 ? active / (active + masked) : 0.0, "ratio");
  put("kxx.fusion_elided_mb",
      static_cast<double>(kxx::fusion_views_elided_bytes()) / 1e6 / model_steps, "MB");

  // halo + comm: exact HaloStats deltas for the model workloads; the farm's
  // models live inside its leases, so there the process-wide telemetry
  // counters stand in (they include each lease's start-up exchanges).
  std::uint64_t hm = 0, hb = 0, he = 0, hx = 0, hs = 0, sub = 0, cm = 0, cb = 0;
  double imb_max = 0.0, imb_mean = 0.0;
  std::vector<double> grid_s, model_s;
  for (const Rep& r : traced) {
    hm += r.halo_msgs;
    hb += r.halo_bytes;
    he += r.halo_equiv;
    hx += r.halo_exch;
    hs += r.halo_skip;
    sub += r.subcycle_msgs;
    cm += r.comm_msgs;
    cb += r.comm_bytes;
    imb_max += r.loop_wall_s;
    imb_mean += r.mean_rank_wall_s;
    grid_s.push_back(r.grid_s);
    model_s.push_back(r.model_s);
  }
  if (w.farm()) {
    hm = tel::counter_value("halo.messages");
    hb = tel::counter_value("halo.bytes");
    cm = tel::counter_value("comm.messages");
    cb = tel::counter_value("comm.bytes");
  }
  put("halo.msgs_per_step", hm / model_steps, "count");
  put("halo.bytes_per_step", hb / model_steps, "B");
  put("halo.msg_reduction", hm > 0 && he > 0 ? static_cast<double>(he) / hm : 0.0, "ratio");
  put("halo.skipped_ratio", hx + hs > 0 ? static_cast<double>(hs) / (hx + hs) : 0.0, "ratio");
  put("halo.subcycle_msgs_per_step", sub / model_steps, "count");
  put("halo.begin_ms", per_rank_step_ms(begin_self), "ms");
  put("halo.wait_ms", per_rank_step_ms(wait_self), "ms");
  put("halo.zonal_ms", per_rank_step_ms(zonal), "ms");
  put("comm.msgs_per_step", cm / model_steps, "count");
  put("comm.bytes_per_step", cb / model_steps, "B");
  put("comm.rank_imbalance", imb_mean > 0.0 ? imb_max / imb_mean : 0.0, "ratio");
  put("decomp.sea_imbalance", sea_imbalance(cfg, w.ranks), "ratio");
  put("grid.build_s", median(grid_s), "s");
  put("model.build_s", median(model_s), "s");

  // resilience / io: checkpoint spans wherever they ran. A warm start is every
  // admission after a member's first; each admission scans for the newest
  // verified generation (the checkpoint_verify span).
  long long writes = 0, verifies = 0, restore_n = 0;
  double verify_t = 0.0, restore_t = 0.0;
  for (const auto& [p, info] : paths) {
    const std::string l = leaf(p);
    if (l == "checkpoint_write") writes += info.count;
    if (l == "checkpoint_verify") {
      verifies += info.count;
      verify_t += info.total;
    }
    if (l == "checkpoint_restore") {
      restore_n += info.count;
      restore_t += info.total;
    }
  }
  const double runs = static_cast<double>(std::max<std::size_t>(1, traced.size()));
  double ckpt_mb = 0.0, adm = 0.0, pre = 0.0, qw = 0.0, util = 0.0;
  for (const Rep& r : traced) {
    ckpt_mb += r.ckpt_mb_per_write / runs;
    adm += r.admissions / runs;
    pre += r.preemptions / runs;
    qw += r.queue_wait_s / runs;
    if (w.farm() && r.loop_wall_s > 0.0) util += r.lease_wall_s / (w.slots * r.loop_wall_s) / runs;
  }
  put("ckpt.writes", writes / runs, "count");
  put("ckpt.write_ms_p50", median(trace_durations_ms(trace, "checkpoint_write")), "ms");
  put("ckpt.verify_ms", verifies > 0 ? verify_t / verifies * 1e3 : 0.0, "ms");
  put("ckpt.restores", w.farm() ? adm - w.members : 0.0, "count");
  put("ckpt.restore_ms", restore_n > 0 ? restore_t / restore_n * 1e3 : 0.0, "ms");
  put("ckpt.mb_per_write", ckpt_mb, "MB");

  // farm: per farm run.
  put("farm.admissions", adm, "count");
  put("farm.preemptions", pre, "count");
  put("farm.queue_wait_s", qw, "s");
  put("farm.slot_util", util, "ratio");

  const double traced_sypd = total_sypd(traced);
  put("telemetry.overhead_frac", untraced_sypd > 0.0 ? 1.0 - traced_sypd / untraced_sypd : 0.0,
      "ratio");
  return m;
}

// ---------------------------------------------------------------------------
// Output

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned k = 0; k < 3; ++k)
      __get_cpuid(0x80000002u + k, &regs[4 * k], &regs[4 * k + 1], &regs[4 * k + 2], &regs[4 * k + 3]);
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string metrics_json(const Metrics& m) {
  std::ostringstream os;
  os << "{";
  for (std::size_t k = 0; k < m.size(); ++k) {
    os << (k ? ", " : "") << "\"" << m[k].first << "\": {\"value\": "
       << lu::json_number(m[k].second.value) << ", \"unit\": \"" << m[k].second.unit << "\"}";
  }
  os << "}";
  return os.str();
}

struct Options {
  std::string workload;
  unsigned seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out = ".bench_build/run";
  bool tiny = false;
  bool corrupt_ref = false;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int a = 1; a < argc; ++a) {
    const std::string k = argv[a];
    auto value = [&]() -> std::string {
      if (a + 1 >= argc) throw std::invalid_argument(k + " needs a value");
      return argv[++a];
    };
    if (k == "--workload") o.workload = value();
    else if (k == "--seed") o.seed = static_cast<unsigned>(std::stoul(value()));
    else if (k == "--seconds") o.seconds = std::stod(value());
    else if (k == "--trace") o.trace = std::stoi(value()) != 0;
    else if (k == "--out") o.out = value();
    else if (k == "--tiny") o.tiny = true;
    else if (k == "--corrupt-ref") o.corrupt_ref = true;
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");
  return o;
}

int run(const Options& o) {
#ifndef NDEBUG
  std::fprintf(stderr, "stepbench: refusing to time a debug build (configure with Release)\n");
  return 3;
#endif
  const Workload w = workload_by_name(o.workload, o.tiny);
  const lc::ModelConfig cfg = model_config(w, o.seed);
  const std::vector<lc::ModelConfig> members = member_configs(w, o.seed);
  const fs::path out = fs::path(o.out) / (w.name + "-s" + std::to_string(o.seed));
  fs::create_directories(out);
  init_backend(w.backend, w.threads);
  tel::set_enabled(false);

  SpanLog log;
  std::vector<Rep> untraced, traced;
  auto one_rep = [&](std::vector<Rep>& into) {
    try {
      into.push_back(w.farm() ? run_farm_rep(w, members, out / "farm", log)
                              : run_model_rep(w, cfg, w.ranks, log));
    } catch (const std::exception& e) {
      Rep failed;
      failed.error = e.what();
      into.push_back(failed);
    }
  };
  // Closed loop: the next rep starts when the previous one ends.
  const double t0 = now_s();
  const double untraced_budget = o.trace ? o.seconds / 2.0 : o.seconds;
  do one_rep(untraced);
  while (now_s() - t0 < untraced_budget);
  const double rss = peak_rss_mb();

  std::string trace;
  if (o.trace) {
    tel::reset();
    kxx::reset_pack_lane_counts();
    kxx::reset_fusion_views_elided();
    tel::set_trace_capacity(std::size_t{1} << 20);
    tel::set_enabled(true);
    log.on = true;
    do one_rep(traced);
    while (now_s() - t0 < o.seconds);
    log.on = false;
    tel::set_enabled(false);
    trace = tel::trace_json();
  }

  std::vector<Rep> all = untraced;
  all.insert(all.end(), traced.begin(), traced.end());
  const Verdict v = verify(w, o.seed, all, out, o.corrupt_ref);
  for (const std::string& why : v.why) std::fprintf(stderr, "stepbench: FAILED %s\n", why.c_str());

  const Metrics metrics = o.trace ? per_layer(w, cfg, traced, total_sypd(untraced), trace)
                                  : end_to_end(w, untraced, rss);
  if (o.trace) {
    // One Chrome trace: the benchmark's spans (pid 1) ahead of the program's (pid 0).
    const std::string key = "\"traceEvents\": [";
    const std::size_t at = trace.find(key);
    if (at != std::string::npos) {
      const std::string mine = log.chrome_events(w.name);
      const bool theirs = trace.compare(at + key.size(), 1, "]") != 0;
      trace.insert(at + key.size(), mine + (theirs && !mine.empty() ? ",\n" : ""));
    }
    const fs::path file = fs::path(o.out) / ("trace-" + w.name + "-s" + std::to_string(o.seed) + ".json");
    std::ofstream(file) << trace;
    std::fprintf(stderr, "stepbench: wrote %s\n", file.string().c_str());
  }
  fs::remove_all(out);

  const double l3 = static_cast<double>(sysconf(_SC_LEVEL3_CACHE_SIZE)) / (1024.0 * 1024.0);
  const Rep* any = untraced.empty() ? nullptr : &untraced.front();
  std::string rep_loop_s;
  for (const Rep& r : untraced) rep_loop_s += (rep_loop_s.empty() ? "" : ", ") + lu::json_number(r.loop_wall_s);
  std::printf(
      "{\"record\": {\"workload\": \"%s\", \"seed\": %u, \"build_type\": \"release\", "
      "\"nproc\": %u, \"cpu_model\": \"%s\", \"l3_mb\": %s, \"grid\": \"%dx%dx%d\", "
      "\"ranks\": %d, \"backend\": \"%s\", \"threads\": %d, \"steps_per_rep\": %lld, "
      "\"reps\": %zu, \"traced_reps\": %zu, \"peak_rss_mb\": %s, \"rss_over_l3\": %s, "
      "\"fail_ratio\": %s, \"fail_base\": %lld, \"fingerprint\": \"%016llx\", "
      "\"rep_loop_s\": [%s]}}\n",
      w.name.c_str(), o.seed, std::thread::hardware_concurrency(), lu::json_escape(cpu_model()).c_str(),
      lu::json_number(l3).c_str(), cfg.grid.nx, cfg.grid.ny, cfg.grid.nz, w.ranks,
      kxx::backend_name(w.backend).c_str(), w.threads, w.steps, untraced.size(), traced.size(),
      lu::json_number(rss).c_str(), lu::json_number(l3 > 0.0 ? rss / l3 : 0.0).c_str(),
      lu::json_number(v.attempted ? static_cast<double>(v.failed) / v.attempted : 0.0).c_str(),
      v.attempted, static_cast<unsigned long long>(any ? any->print : 0), rep_loop_s.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              v.failed == 0 ? "true" : "false", v.attempted, v.failed, metrics_json(metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "stepbench: %s\n", e.what());
    return 2;
  }
}
