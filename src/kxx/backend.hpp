// backend.hpp — execution backends and the kxx runtime lifecycle.
//
// A single functor source compiles against every backend; the backend is
// selected at runtime (Table I of the paper: OpenMP, CUDA, HIP, Athread all
// behind one programming model). In this reproduction:
//   Serial     — reference single-core execution (stands in for the plain
//                Fortran/MPE path);
//   Threads    — std::thread pool (stands in for OpenMP on ARM/x86 CPUs);
//   AthreadSim — the simulated Sunway core group; kernels must be registered
//                via the KXX_REGISTER_* macros or (in permissive mode) they
//                fall back to the MPE.
#pragma once

#include <string>

/// Compile-time default SIMD pack width for parallel_for_packed (overridable
/// per build: -DLICOMK_PACK_SIZE=4). Runtime selection among the instantiated
/// widths {1, 4, 8} goes through InitConfig::pack_size / set_pack_size / the
/// LICOMK_PACK_SIZE environment override, so the CI matrix sweeps widths
/// without recompiling.
#ifndef LICOMK_PACK_SIZE
#define LICOMK_PACK_SIZE 8
#endif

namespace licomk::kxx {

enum class Backend { Serial, Threads, AthreadSim };

/// How the AthreadSim backend moves functor data for kernels that declare an
/// LDM access footprint (kxx_access):
///   Direct         — dereference main memory element-by-element (the
///                    unoptimized baseline of the paper's Fig. 8);
///   Staged         — stage tile slabs into LDM via DMA, compute on the LDM
///                    copies, write back; transfers are synchronous with
///                    respect to compute;
///   DoubleBuffered — Staged plus async prefetch of tile t+1 while tile t
///                    computes (the paper's §V-C double buffering).
/// Kernels without a footprint always run Direct.
enum class LdmStagingMode { Direct, Staged, DoubleBuffered };

/// Runtime configuration for initialize().
struct InitConfig {
  Backend backend = Backend::Serial;
  int num_threads = 0;          ///< Threads backend pool size; 0 = hardware.
  bool athread_strict = false;  ///< Throw instead of MPE fallback for
                                ///< unregistered functors on AthreadSim.
  LdmStagingMode ldm_staging = LdmStagingMode::DoubleBuffered;
  int pack_size = LICOMK_PACK_SIZE;  ///< SIMD width for parallel_for_packed
                                     ///< (1 = scalar lowering, 4, or 8).
};

/// Initialize the runtime (idempotent per process; reconfigures on repeat
/// calls). Must be called before any parallel dispatch.
void initialize(const InitConfig& config = {});

/// Tear down pools and the simulated core group runtime.
void finalize();

bool is_initialized();

Backend default_backend();
void set_default_backend(Backend backend);

/// True on the backend that stages kxx_access footprints through LDM
/// (AthreadSim): readyc (compute_tendency_means) uses it to pick its
/// LDM-staged per-kernel form over its unstaged fused chain (same bits
/// either way).
inline bool stages_through_ldm() { return default_backend() == Backend::AthreadSim; }

/// Strict-mode flag for the AthreadSim backend (see InitConfig).
bool athread_strict();
void set_athread_strict(bool strict);

/// Number of workers the Threads backend uses.
int num_threads();

/// Active LDM staging mode for descriptor-carrying kernels on AthreadSim.
LdmStagingMode ldm_staging_mode();
void set_ldm_staging_mode(LdmStagingMode mode);

/// Name ("direct", "staged", "double") / parse of a staging mode.
std::string ldm_staging_mode_name(LdmStagingMode mode);
LdmStagingMode ldm_staging_mode_from_name(const std::string& name);

/// Device barrier: retires any async DMA still in flight on the simulated
/// core group (compute itself is synchronous; the DMA reply counters are the
/// one piece of device state that can outlive a dispatch).
void fence();

/// Human-readable backend name ("Serial", "Threads", "AthreadSim").
std::string backend_name(Backend backend);

/// Parse a backend name ("serial", "threads", "athread"/"athreadsim",
/// case-insensitive); throws InvalidArgument on anything else.
Backend backend_from_name(const std::string& name);

/// CI hook: apply LICOMK_BACKEND / LICOMK_NUM_THREADS / LICOMK_ATHREAD_STRICT
/// / LICOMK_LDM_STAGING environment overrides to `defaults`, so a test binary
/// compiled against one backend can be re-run across all of them (and both
/// strict modes and all staging modes) from the workflow matrix without
/// recompiling. Each value must be a whole token (LICOMK_ATHREAD_STRICT:
/// 0/1/on/off/true/false; counts: a non-negative integer); a malformed one
/// throws InvalidArgument naming the variable rather than being ignored.
InitConfig config_from_env(InitConfig defaults = {});

/// Count of AthreadSim dispatches that fell back to MPE execution because the
/// functor type was not registered (permissive mode only).
long long athread_fallback_count();
void reset_athread_fallback_count();

/// Active SIMD pack width for parallel_for_packed dispatches. Only 1, 4 and 8
/// are instantiated; set_pack_size throws InvalidArgument on anything else.
/// Width 1 (and the AthreadSim backend, whose registry/LDM-staging path is
/// scalar by construction) lowers packed dispatches to plain scalar loops.
int pack_size();
void set_pack_size(int n);

/// Lane accounting across every packed dispatch since the last reset: how
/// many lanes did useful work vs. were masked off (i-extent tails, land
/// columns, below-bottom levels). Exported as the kxx.pack.lanes_active /
/// kxx.pack.lanes_masked gauges.
long long pack_lanes_active();
long long pack_lanes_masked();
void reset_pack_lane_counts();

/// Bytes of intermediate View traffic elided by fused kernels (ρ re-reads,
/// tendency re-reads for the vertical means, shared advective fluxes) —
/// accumulated by the fused call sites, exported as the
/// kxx.fusion.views_elided_bytes gauge.
long long fusion_views_elided_bytes();
void note_fusion_views_elided(long long bytes);
void reset_fusion_views_elided();

namespace detail {
void note_athread_fallback();
void note_pack_lanes(long long active, long long masked);
}

}  // namespace licomk::kxx
