#include "kxx/backend.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "kxx/thread_pool.hpp"
#include "swsim/athread.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace licomk::kxx {

namespace {
struct RuntimeState {
  bool initialized = false;
  Backend backend = Backend::Serial;
  bool strict = false;
  int threads = 1;
  LdmStagingMode ldm_staging = LdmStagingMode::DoubleBuffered;
  int pack = LICOMK_PACK_SIZE;
  std::atomic<long long> fallbacks{0};
  std::atomic<long long> pack_active{0};
  std::atomic<long long> pack_masked{0};
  std::atomic<long long> fusion_elided{0};
};

void require_valid_pack_size(int n) {
  if (n != 1 && n != 4 && n != 8) {
    throw InvalidArgument("invalid pack size " + std::to_string(n) +
                          " (instantiated widths: 1, 4, 8)");
  }
}

RuntimeState& state() {
  static RuntimeState s;
  return s;
}

/// Environment variable `name` parsed as one whole non-negative integer
/// token, or `fallback` when unset; anything else throws naming the variable.
int env_count_or(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  const char* end = v + std::strlen(v);
  int n = 0;
  auto [ptr, ec] = std::from_chars(v, end, n);
  if (ec != std::errc{} || ptr != end || n < 0) {
    throw InvalidArgument(std::string(name) + "='" + v + "' is not a non-negative integer");
  }
  return n;
}

/// LICOMK_PACK_SIZE if set (it must be an instantiated width), else `fallback`.
int env_pack_size_or(int fallback) {
  if (std::getenv("LICOMK_PACK_SIZE") == nullptr) return fallback;
  int pack = env_count_or("LICOMK_PACK_SIZE", fallback);
  if (pack != 1 && pack != 4 && pack != 8) {
    throw InvalidArgument("LICOMK_PACK_SIZE=" + std::to_string(pack) +
                          " is not an instantiated pack width (1, 4, 8)");
  }
  return pack;
}
}  // namespace

void initialize(const InitConfig& config) {
  RuntimeState& s = state();
  s.backend = config.backend;
  s.strict = config.athread_strict;
  s.ldm_staging = config.ldm_staging;
  // LICOMK_PACK_SIZE wins over InitConfig on every entry point, not just
  // config_from_env — the pack-width sweep (ci/halo_matrix.sh) and ad-hoc
  // runs must be able to override binaries that initialize with a literal
  // InitConfig (quickstart, benches). Invalid widths fail fast either way.
  int pack = env_pack_size_or(config.pack_size);
  require_valid_pack_size(pack);
  s.pack = pack;
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  s.threads = config.num_threads > 0 ? config.num_threads : (hw > 0 ? hw : 1);
  detail::global_thread_pool().resize(s.threads);
  swsim::athread_init();
  telemetry::initialize_from_env();
  if (telemetry::enabled()) {
    telemetry::set_label("kxx.backend", backend_name(s.backend));
    telemetry::set_label("kxx.num_threads", std::to_string(s.threads));
  }
  s.initialized = true;
}

void finalize() {
  RuntimeState& s = state();
  detail::global_thread_pool().shutdown();
  swsim::athread_halt();
  s.initialized = false;
}

bool is_initialized() { return state().initialized; }

Backend default_backend() { return state().backend; }

void set_default_backend(Backend backend) { state().backend = backend; }

bool athread_strict() { return state().strict; }

void set_athread_strict(bool strict) { state().strict = strict; }

int num_threads() { return state().threads; }

LdmStagingMode ldm_staging_mode() { return state().ldm_staging; }

void set_ldm_staging_mode(LdmStagingMode mode) { state().ldm_staging = mode; }

std::string ldm_staging_mode_name(LdmStagingMode mode) {
  switch (mode) {
    case LdmStagingMode::Direct: return "direct";
    case LdmStagingMode::Staged: return "staged";
    case LdmStagingMode::DoubleBuffered: return "double";
  }
  return "?";
}

LdmStagingMode ldm_staging_mode_from_name(const std::string& name) {
  std::string n = name;
  std::transform(n.begin(), n.end(), n.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (n == "direct") return LdmStagingMode::Direct;
  if (n == "staged") return LdmStagingMode::Staged;
  if (n == "double" || n == "doublebuffered" || n == "double_buffered")
    return LdmStagingMode::DoubleBuffered;
  throw InvalidArgument("unknown LDM staging mode '" + name +
                        "' (expected direct|staged|double)");
}

void fence() { swsim::default_core_group().drain_dma(); }

std::string backend_name(Backend backend) {
  switch (backend) {
    case Backend::Serial: return "Serial";
    case Backend::Threads: return "Threads";
    case Backend::AthreadSim: return "AthreadSim";
  }
  return "?";
}

Backend backend_from_name(const std::string& name) {
  std::string n = name;
  std::transform(n.begin(), n.end(), n.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (n == "serial") return Backend::Serial;
  if (n == "threads") return Backend::Threads;
  if (n == "athread" || n == "athreadsim") return Backend::AthreadSim;
  throw InvalidArgument("unknown kxx backend '" + name +
                        "' (expected serial|threads|athread)");
}

InitConfig config_from_env(InitConfig defaults) {
  if (const char* b = std::getenv("LICOMK_BACKEND")) defaults.backend = backend_from_name(b);
  defaults.num_threads = env_count_or("LICOMK_NUM_THREADS", defaults.num_threads);
  if (const char* s = std::getenv("LICOMK_ATHREAD_STRICT")) {
    const std::string v(s);
    if (v == "1" || v == "on" || v == "true") {
      defaults.athread_strict = true;
    } else if (v == "0" || v == "off" || v == "false") {
      defaults.athread_strict = false;
    } else {
      throw InvalidArgument("LICOMK_ATHREAD_STRICT='" + v +
                            "' is not a flag (0/1/on/off/true/false)");
    }
  }
  if (const char* m = std::getenv("LICOMK_LDM_STAGING")) {
    defaults.ldm_staging = ldm_staging_mode_from_name(m);
  }
  defaults.pack_size = env_pack_size_or(defaults.pack_size);
  return defaults;
}

int pack_size() { return state().pack; }

void set_pack_size(int n) {
  require_valid_pack_size(n);
  state().pack = n;
}

long long pack_lanes_active() { return state().pack_active.load(); }

long long pack_lanes_masked() { return state().pack_masked.load(); }

void reset_pack_lane_counts() {
  state().pack_active.store(0);
  state().pack_masked.store(0);
}

long long fusion_views_elided_bytes() { return state().fusion_elided.load(); }

void note_fusion_views_elided(long long bytes) {
  state().fusion_elided.fetch_add(bytes);
  if (telemetry::enabled()) {
    static telemetry::Counter& c = telemetry::counter("kxx.fusion.views_elided_bytes");
    c.add(static_cast<std::uint64_t>(bytes));
  }
}

void reset_fusion_views_elided() { state().fusion_elided.store(0); }

long long athread_fallback_count() { return state().fallbacks.load(); }

void reset_athread_fallback_count() { state().fallbacks.store(0); }

namespace detail {
void note_athread_fallback() {
  state().fallbacks.fetch_add(1);
  if (telemetry::enabled()) {
    static telemetry::Counter& c = telemetry::counter("kxx.athread_fallbacks");
    c.add(1);
  }
}

void note_pack_lanes(long long active, long long masked) {
  state().pack_active.fetch_add(active);
  state().pack_masked.fetch_add(masked);
  if (telemetry::enabled()) {
    static telemetry::Counter& ca = telemetry::counter("kxx.pack.lanes_active");
    static telemetry::Counter& cm = telemetry::counter("kxx.pack.lanes_masked");
    ca.add(static_cast<std::uint64_t>(active));
    cm.add(static_cast<std::uint64_t>(masked));
  }
}
}  // namespace detail

}  // namespace licomk::kxx
