// bench_registry_lookup — cost of the Athread functor-registry matching.
//
// The paper chose a linked list for the registration/lookup structure
// (§V-B), accelerated on hardware with LDM residency and SIMD matching; the
// ablation here compares the linked-list walk with the hashed alternative as
// the number of registered kernels grows, and measures the end-to-end
// dispatch overhead (lookup + spawn + join over 64 CPEs) for an empty
// kernel.
#include <benchmark/benchmark.h>

#include "kxx/kxx.hpp"

namespace kxx = licomk::kxx;

namespace {

/// A family of distinct functor types to populate the registry.
template <int N>
struct Filler {
  double* out;
  void operator()(long long i) const { out[0] = static_cast<double>(i + N); }
};

template <int N>
void register_fillers() {
  if constexpr (N > 0) {
    register_fillers<N - 1>();
  }
  static const bool reg [[maybe_unused]] = licomk::kxx::detail::register_for<Filler<N>>(
      "filler", kxx::KernelKind::For1D,
      &licomk::kxx::detail::cpe_entry_for<1, Filler<N>>);
}

struct Tail {
  double* out;
  void operator()(long long i) const { out[0] = static_cast<double>(i); }
};

}  // namespace

KXX_REGISTER_FOR_1D(bench_tail, Tail);

static void BM_LinkedListLookup(benchmark::State& state) {
  register_fillers<63>();  // 64 extra kernels ahead of / around the target
  auto& reg = kxx::detail::FunctorRegistry::instance();
  auto type = std::type_index(typeid(Tail));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.lookup(type, kxx::KernelKind::For1D));
  }
  state.counters["registered"] = static_cast<double>(reg.size());
}
BENCHMARK(BM_LinkedListLookup);

static void BM_HashedLookup(benchmark::State& state) {
  register_fillers<63>();
  auto& reg = kxx::detail::FunctorRegistry::instance();
  auto type = std::type_index(typeid(Tail));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.lookup_hashed(type, kxx::KernelKind::For1D));
  }
  state.counters["registered"] = static_cast<double>(reg.size());
}
BENCHMARK(BM_HashedLookup);

static void BM_LookupMiss(benchmark::State& state) {
  struct NeverRegistered {};
  auto& reg = kxx::detail::FunctorRegistry::instance();
  auto type = std::type_index(typeid(NeverRegistered));
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.lookup(type, kxx::KernelKind::For1D));
  }
}
BENCHMARK(BM_LookupMiss);

static void BM_FullDispatchOverhead(benchmark::State& state) {
  // Empty-range kernel: pure lookup + spawn + join cost on the simulated CPEs.
  kxx::initialize({kxx::Backend::AthreadSim, 0, false});
  double sink = 0.0;
  Tail f{&sink};
  for (auto _ : state) {
    kxx::parallel_for("tail", kxx::RangePolicy(0, 64), f);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_FullDispatchOverhead);

BENCHMARK_MAIN();
