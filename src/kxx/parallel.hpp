// parallel.hpp — kxx::parallel_for / parallel_reduce / parallel_scan.
//
// One functor source dispatches to the backend selected at kxx::initialize:
//   Serial     — straight loops;
//   Threads    — contiguous chunks across the persistent worker pool;
//   AthreadSim — registry lookup (paper §V-B), then a C-ABI spawn of the
//                preset function onto the 64 simulated CPEs.
// All backends produce identical results for pure data-parallel functors;
// reductions join partials in a fixed order for reproducibility.
#pragma once

#include <algorithm>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "kxx/backend.hpp"
#include "kxx/pack.hpp"
#include "kxx/policy.hpp"
#include "kxx/reducers.hpp"
#include "kxx/registry.hpp"
#include "kxx/thread_pool.hpp"
#include "swsim/athread.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace licomk::kxx {

/// Thrown by the AthreadSim backend in strict mode when a functor type has no
/// KXX_REGISTER_* registration (the situation the paper's macro prevents).
class KernelNotRegistered : public Error {
 public:
  KernelNotRegistered(const std::string& label, KernelKind kind)
      : Error("kernel '" + label + "' (" + kernel_kind_name(kind) +
              ") is not registered for the Athread backend; add a KXX_REGISTER_* macro") {}
};

namespace detail {

/// Serializes simulated-device dispatch when several comm ranks (threads)
/// drive kernels concurrently: one process models one accelerator per rank on
/// the real machines, but here all ranks share a single simulated core group
/// and one worker pool.
inline std::mutex& dispatch_mutex() {
  static std::mutex m;
  return m;
}

/// Split [begin, end) into pool-size contiguous chunks; returns chunk w.
inline std::pair<long long, long long> chunk_of(long long begin, long long end, int w, int nw) {
  long long len = end - begin;
  long long base = len / nw;
  long long extra = len % nw;
  long long lo = begin + w * base + std::min<long long>(w, extra);
  long long hi = lo + base + (w < extra ? 1 : 0);
  return {lo, hi};
}

/// Look F up under `kind` and run its preset function on the CPEs. Returns
/// false when F is not registered and the caller must run on the MPE
/// (permissive mode; strict mode throws). `Op` is the reduction op the
/// dispatch joins with; a functor registered with another op is rejected.
template <typename F, typename Op = VoidOp>
bool maybe_athread_for(const std::string& label, KernelKind kind, CpeLaunch& d) {
  FunctorRegistry& reg = FunctorRegistry::instance();
  const RegistryNode* node = reg.lookup(std::type_index(typeid(F)), kind);
  if (node == nullptr) {
    if (athread_strict()) throw KernelNotRegistered(label, kind);
    note_athread_fallback();
    return false;  // caller runs the serial fallback on the MPE
  }
  if (node->op_type != std::type_index(typeid(Op))) {
    throw InvalidArgument("kernel '" + label + "' registered with a different reduction op");
  }
  std::lock_guard<std::mutex> lock(dispatch_mutex());
  swsim::athread_spawn(node->entry, &d);
  swsim::athread_join();
  return true;
}

/// Run a pool job exclusively (the pool is a shared per-process resource).
template <typename Job>
void run_pool_exclusive(Job&& job) {
  std::lock_guard<std::mutex> lock(dispatch_mutex());
  global_thread_pool().run_chunks(std::forward<Job>(job));
}

/// Telemetry span around one kernel dispatch: records the label, the active
/// backend, and the policy extent. Costs one branch when telemetry is off.
class KernelSpan {
 public:
  KernelSpan(const std::string& label, long long items) {
    if (telemetry::enabled()) {
      active_ = true;
      telemetry::span_begin(label, "kernel", backend_name(default_backend()), items);
    }
  }
  ~KernelSpan() {
    if (active_) telemetry::span_end();
  }
  KernelSpan(const KernelSpan&) = delete;
  KernelSpan& operator=(const KernelSpan&) = delete;

 private:
  bool active_ = false;
};

template <int R>
long long extent_of(const MDRangePolicy<R>& p) {
  long long n = 1;
  for (int d = 0; d < R; ++d) n *= p.end[d] - p.begin[d];
  return n;
}

/// The loop nest of every host-side dispatch (Serial, each Threads chunk and
/// the AthreadSim MPE fallback): dimension D runs over [lo, hi), every inner
/// dimension over its full range, last index fastest; `body` gets R indices.
template <int D = 0, int R, typename Body, typename... Outer>
void for_each_index(const MDRangePolicy<R>& p, long long lo, long long hi, const Body& body,
                    Outer... outer) {
  for (long long i = lo; i < hi; ++i) {
    if constexpr (D + 1 == R) {
      body(outer..., i);
    } else {
      for_each_index<D + 1>(p, p.begin[D + 1], p.end[D + 1], body, outer..., i);
    }
  }
}

/// The CPE launch descriptor of a rank-R dispatch. Only rank-3 kernels stage
/// through LDM, so only they carry the staging mode.
template <int R>
CpeLaunch launch_of(const MDRangePolicy<R>& p, const void* functor) {
  CpeLaunch d;
  d.functor = functor;
  d.num_dims = R;
  for (int dim = 0; dim < R; ++dim) {
    d.begin[dim] = p.begin[dim];
    d.end[dim] = p.end[dim];
    d.tile[dim] = p.tile[dim];
  }
  if constexpr (R == 3) d.staging = static_cast<int>(ldm_staging_mode());
  return d;
}

}  // namespace detail

/// --- parallel_for ---------------------------------------------------------

template <typename Policy, typename F, int R = detail::policy_rank<Policy>::value>
void parallel_for(const std::string& label, const Policy& policy, const F& f) {
  const auto& p = detail::bounds_of(policy);
  detail::KernelSpan span(label, detail::extent_of(p));
  switch (default_backend()) {
    case Backend::Threads: {
      int nw = num_threads();
      detail::run_pool_exclusive([&](int w) {
        auto [lo, hi] = detail::chunk_of(p.begin[0], p.end[0], w, nw);
        detail::for_each_index(p, lo, hi, f);
      });
      return;
    }
    case Backend::AthreadSim: {
      detail::CpeLaunch d = detail::launch_of(p, &f);
      if (detail::maybe_athread_for<F>(label, detail::kind_of<R>(false), d)) return;
      [[fallthrough]];  // unregistered: the MPE runs the Serial loop
    }
    case Backend::Serial:
      detail::for_each_index(p, p.begin[0], p.end[0], f);
      return;
  }
}

/// Convenience: iterate [0, n).
template <typename F>
void parallel_for(const std::string& label, long long n, const F& f) {
  parallel_for(label, RangePolicy(0, n), f);
}

/// --- parallel_for_packed ---------------------------------------------------
//
// Packed dispatch tiles the innermost (i) dimension into Pack<double,N>-wide
// chunks and hands the functor's `template <int N> pack_op(...)` one pack at
// a time together with a synthesized lane mask:
//   2-D column form  pack_op<N>(j, i0, mask)     mask = i-tail ∧ kmt(j,i)>0
//   3-D form         pack_op<N>(k, j, i0, mask)  mask = i-tail ∧ k<kmt(j,i)
// (the kmt refinement only when a LevelsRef is supplied — kernels that must
// write at land/below-bottom cells pass none and blend internally).
//
// Lowers to the plain scalar parallel_for — same registry, LDM staging and
// telemetry path — when the backend is AthreadSim (the CPE pipeline is scalar
// by construction), when pack_size() == 1, or when the functor has no
// pack_op. One functor source therefore runs everywhere, and pack-vs-scalar
// results stay bit-identical (each lane performs the scalar ops in scalar
// order; see pack.hpp).

namespace detail {

/// True when F has the packed form of its rank-R operator():
/// `pack_op<N>(R indices, mask)`, the last index being the pack's first i.
template <typename F, typename Indices, typename = void>
struct has_pack_op_impl : std::false_type {};
template <typename F, std::size_t... Is>
struct has_pack_op_impl<F, std::index_sequence<Is...>,
                        std::void_t<decltype(std::declval<const F&>().template pack_op<4>(
                            (static_cast<void>(Is), 0LL)..., std::declval<const Mask<4>&>()))>>
    : std::true_type {};
template <typename F, int R>
inline constexpr bool has_pack_op = has_pack_op_impl<F, std::make_index_sequence<R>>::value;

/// Per-worker lane bookkeeping, merged into the process counters once per
/// dispatch (not per pack — the counters are shared atomics).
struct LaneCount {
  long long active = 0;
  long long masked = 0;
  void note(int pack_width, int live) {
    active += live;
    masked += pack_width - live;
  }
};

/// Packed rows of dim0 slice [lo, hi): the innermost (i) dimension goes
/// N lanes at a time, and lane l of the pack at i0 is live iff i0 + l is in
/// range and, with a LevelsRef, k < kmt(j, i) — at rank 2 the level is
/// k = 0, so the mask there is kmt(j, i) > 0.
template <int N, int R, typename F>
void packed_rows(const MDRangePolicy<R>& p, const LevelsRef& kmt, const F& f, long long lo,
                 long long hi, LaneCount& lanes) {
  static_assert(R == 2 || R == 3, "packed dispatch covers 2-D columns and 3-D fields");
  constexpr int di = R - 1;
  auto row = [&](long long k, long long j) {
    for (long long i0 = p.begin[di]; i0 < p.end[di]; i0 += N) {
      Mask<N> m;
      for (int l = 0; l < N; ++l) {
        long long i = i0 + l;
        m.set(l, i < p.end[di] && (!kmt.valid() || k < kmt(j, i)));
      }
      lanes.note(N, m.count());
      if constexpr (R == 3) {
        f.template pack_op<N>(k, j, i0, m);
      } else {
        f.template pack_op<N>(j, i0, m);
      }
    }
  };
  for (long long o = lo; o < hi; ++o) {
    if constexpr (R == 3) {
      for (long long j = p.begin[1]; j < p.end[1]; ++j) row(o, j);
    } else {
      row(0, o);
    }
  }
}

/// Shared Serial/Threads driver: chunk dim0 across the pool exactly like the
/// scalar dispatch, run `rows` per chunk, then merge the lane counts.
template <typename Rows>
void run_packed(long long begin0, long long end0, Rows&& rows) {
  if (default_backend() == Backend::Threads) {
    int nw = num_threads();
    std::vector<LaneCount> partials(static_cast<size_t>(nw));
    run_pool_exclusive([&](int w) {
      auto [lo, hi] = chunk_of(begin0, end0, w, nw);
      rows(lo, hi, partials[static_cast<size_t>(w)]);
    });
    LaneCount total;
    for (const LaneCount& c : partials) {
      total.active += c.active;
      total.masked += c.masked;
    }
    note_pack_lanes(total.active, total.masked);
    return;
  }
  LaneCount total;
  rows(begin0, end0, total);
  note_pack_lanes(total.active, total.masked);
}

}  // namespace detail

template <int R, typename F>
void parallel_for_packed(const std::string& label, const MDRangePolicy<R>& p,
                         const LevelsRef& kmt, const F& f) {
  const int ps = pack_size();
  if constexpr (detail::has_pack_op<F, R>) {
    if (default_backend() != Backend::AthreadSim && ps > 1) {
      detail::KernelSpan span(label, detail::extent_of(p));
      auto dispatch = [&](auto width) {
        constexpr int N = decltype(width)::value;
        detail::run_packed(p.begin[0], p.end[0],
                           [&](long long lo, long long hi, detail::LaneCount& lanes) {
                             detail::packed_rows<N>(p, kmt, f, lo, hi, lanes);
                           });
      };
      if (ps == 8) {
        dispatch(std::integral_constant<int, 8>{});
      } else {
        dispatch(std::integral_constant<int, 4>{});
      }
      return;
    }
  }
  parallel_for(label, p, f);  // scalar lowering (Serial/Threads/AthreadSim)
}

template <int R, typename F>
void parallel_for_packed(const std::string& label, const MDRangePolicy<R>& p, const F& f) {
  parallel_for_packed(label, p, LevelsRef{}, f);
}

/// --- parallel_reduce -------------------------------------------------------
//
// Partials join in a fixed order for reproducibility: per Threads worker, or
// per CPE on AthreadSim, each in index order.

template <typename Policy, typename F, typename Reducer,
          int R = detail::policy_rank<Policy>::value>
void parallel_reduce(const std::string& label, const Policy& policy, const F& f,
                     const Reducer& reducer) {
  using Op = typename Reducer::op;
  using T = typename Reducer::value_type;
  const auto& p = detail::bounds_of(policy);
  detail::KernelSpan span(label, detail::extent_of(p));
  auto accumulate = [&](long long lo, long long hi, T& acc) {
    detail::for_each_index(p, lo, hi, [&](auto... i) { f(i..., acc); });
  };
  auto join = [](const std::vector<T>& partials) {
    T acc = Op::identity();
    for (const T& part : partials) Op::join(acc, part);
    return acc;
  };
  switch (default_backend()) {
    case Backend::Threads: {
      int nw = num_threads();
      std::vector<T> partials(static_cast<size_t>(nw), Op::identity());
      detail::run_pool_exclusive([&](int w) {
        auto [lo, hi] = detail::chunk_of(p.begin[0], p.end[0], w, nw);
        accumulate(lo, hi, partials[static_cast<size_t>(w)]);
      });
      reducer.result = join(partials);
      return;
    }
    case Backend::AthreadSim: {
      std::vector<T> partials(static_cast<size_t>(swsim::CoreGroup::kNumCpes), Op::identity());
      detail::CpeLaunch d = detail::launch_of(p, &f);
      d.partials = partials.data();
      if (detail::maybe_athread_for<F, Op>(label, detail::kind_of<R>(true), d)) {
        reducer.result = join(partials);
        return;
      }
      [[fallthrough]];  // unregistered: the MPE runs the Serial loop
    }
    case Backend::Serial: {
      T acc = Op::identity();
      accumulate(p.begin[0], p.end[0], acc);
      reducer.result = acc;
      return;
    }
  }
}

/// Convenience: reduce over [0, n).
template <typename F, typename Reducer>
void parallel_reduce(const std::string& label, long long n, const F& f, const Reducer& reducer) {
  parallel_reduce(label, RangePolicy(0, n), f, reducer);
}

/// --- parallel_scan ---------------------------------------------------------

/// Inclusive prefix scan of f's contributions: one pass in index order calls
/// f(i, update, true) once per element, so f adds its contribution to the
/// running prefix and observes it in the same call. Runs serially on every
/// backend (scan is not on the model's hot path; documented limitation).
template <typename F, typename T>
void parallel_scan(const std::string& label, const RangePolicy& p, const F& f, T& total) {
  detail::KernelSpan span(label, detail::extent_of(detail::bounds_of(p)));
  T update = T{};
  for (long long i = p.begin; i < p.end; ++i) f(i, update, true);
  total = update;
}

}  // namespace licomk::kxx
