// registry.hpp — the functor registration / callback machinery that lets
// Kokkos-style template functors run on the (simulated) Sunway CPEs.
//
// The Athread kernel-launch ABI accepts only `void (*)(void*)` — no template
// parameters cross it (paper §V-B "Challenge"). The paper's solution, which
// this file reproduces:
//   * each functor type is registered once, via a macro like
//     KXX_REGISTER_FOR_1D(my_axpy, FunctorAXPY<double>), which instantiates a
//     concrete "preset function" wrapping the functor's operator() and links
//     it into a registry;
//   * the registry is a singly linked list (the paper's chosen structure,
//     trading O(n) lookup for robustness and tiny memory footprint);
//   * at launch, kxx::parallel_for looks the functor type up and spawns the
//     preset function on the CPEs with a POD launch descriptor.
// Lookup statistics (walk lengths) are recorded so bench_registry_lookup can
// reproduce the linked-list-vs-hash trade-off the paper discusses, and a
// hashed side index is provided as the ablation alternative.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "kxx/access.hpp"
#include "kxx/launch.hpp"
#include "kxx/ldm_stage.hpp"
#include "swsim/core_group.hpp"
#include "util/stats.hpp"

namespace licomk::kxx {

enum class KernelKind : int { For1D, For2D, For3D, Reduce1D, Reduce2D, Reduce3D, Team };

const char* kernel_kind_name(KernelKind kind);

namespace detail {

/// One registered kernel.
struct RegistryNode {
  std::string name;             ///< User-chosen registration name.
  std::type_index functor_type; ///< typeid of the functor class.
  std::type_index op_type;      ///< typeid of the reduction op (or void).
  KernelKind kind;
  swsim::CpeKernel entry;       ///< The preset function.
  RegistryNode* next = nullptr; ///< Linked-list order = registration order.
};

/// Lookup statistics for the registry bench (snapshot of atomic counters —
/// lookups happen concurrently when several ranks dispatch kernels).
struct RegistryLookupStats {
  std::uint64_t lookups = 0;
  std::uint64_t nodes_visited = 0;
  std::uint64_t misses = 0;
};

/// The process-wide kernel registry (linked list + hashed ablation index).
class FunctorRegistry {
 public:
  static FunctorRegistry& instance();

  /// Register a kernel; duplicate (type, kind) registrations are ignored with
  /// a warning so the macro can appear in multiple translation units.
  void add(std::string name, std::type_index functor_type, std::type_index op_type,
           KernelKind kind, swsim::CpeKernel entry);

  /// Linked-list lookup (the paper's design). Returns nullptr on miss.
  const RegistryNode* lookup(std::type_index functor_type, KernelKind kind);

  /// Hash-map lookup over the same nodes (ablation comparator).
  const RegistryNode* lookup_hashed(std::type_index functor_type, KernelKind kind);

  std::size_t size() const { return count_; }
  const RegistryNode* head() const { return head_; }

  RegistryLookupStats stats() const {
    return RegistryLookupStats{lookups_.load(), nodes_visited_.load(), misses_.load()};
  }
  void reset_stats() {
    lookups_.store(0);
    nodes_visited_.store(0);
    misses_.store(0);
  }

 private:
  FunctorRegistry() = default;

  RegistryNode* head_ = nullptr;
  RegistryNode* tail_ = nullptr;
  std::size_t count_ = 0;
  std::atomic<std::uint64_t> lookups_{0};
  std::atomic<std::uint64_t> nodes_visited_{0};
  std::atomic<std::uint64_t> misses_{0};

  struct Key {
    std::type_index type;
    int kind;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return k.type.hash_code() * 31 + static_cast<std::size_t>(k.kind);
    }
  };
  std::unordered_map<Key, RegistryNode*, KeyHash> hashed_;
};

/// Kind under which a rank-R policy's functors register and are looked up.
template <int R>
constexpr KernelKind kind_of(bool reduce) {
  static_assert(R >= 1 && R <= 3, "kxx policies have rank 1, 2 or 3");
  constexpr KernelKind fors[] = {KernelKind::For1D, KernelKind::For2D, KernelKind::For3D};
  constexpr KernelKind reduces[] = {KernelKind::Reduce1D, KernelKind::Reduce2D,
                                    KernelKind::Reduce3D};
  return reduce ? reduces[R - 1] : fors[R - 1];
}

/// --- Preset functions (instantiated per functor at registration) ---------
/// (CpeLaunch, TileAssignment, assign_tiles and for_each_index_in_tile live
/// in launch.hpp; the LDM staging engine the rank-3 entry dispatches to lives
/// in ldm_stage.hpp.)

/// Run `body` over every index of the tiles Eq. (1)/(2) deal to the calling
/// CPE, passing the first R indices of each tile index triple.
template <int R, typename Body>
void for_each_cpe_index(const CpeLaunch& d, int cpe, const Body& body) {
  TileAssignment a = assign_tiles(d, cpe, swsim::CoreGroup::kNumCpes);
  for (long long t = a.first_tile; t < a.last_tile; ++t) {
    for_each_index_in_tile(d, a, t, [&](long long i0, long long i1, long long i2) {
      if constexpr (R == 1) {
        body(i0);
      } else if constexpr (R == 2) {
        body(i0, i1);
      } else {
        body(i0, i1, i2);
      }
    });
  }
}

template <int R, typename Functor>
void cpe_entry_for(void* argp) {
  const auto* d = static_cast<const CpeLaunch*>(argp);
  if constexpr (R == 3 && has_ldm_access<Functor>::value) {
    // Descriptor-carrying functor: route through the LDM staging engine
    // (which itself falls back to direct indexing when staging is off or the
    // footprint does not fit).
    staged_entry_for<Functor>(*d);
  } else {
    const auto& f = *static_cast<const Functor*>(d->functor);
    for_each_cpe_index<R>(*d, swsim::this_cpe()->id(), f);
  }
}

template <int R, typename Functor, typename Op>
void cpe_entry_reduce(void* argp) {
  const auto* d = static_cast<const CpeLaunch*>(argp);
  const auto& f = *static_cast<const Functor*>(d->functor);
  const int cpe = swsim::this_cpe()->id();
  typename Op::value_type local = Op::identity();
  for_each_cpe_index<R>(*d, cpe, [&](auto... i) { f(i..., local); });
  static_cast<typename Op::value_type*>(d->partials)[cpe] = local;
}

struct VoidOp {};

template <typename Functor>
bool register_for(const char* name, KernelKind kind, swsim::CpeKernel entry) {
  FunctorRegistry::instance().add(name, std::type_index(typeid(Functor)),
                                  std::type_index(typeid(VoidOp)), kind, entry);
  return true;
}

template <typename Functor, typename Op>
bool register_reduce(const char* name, KernelKind kind, swsim::CpeKernel entry) {
  FunctorRegistry::instance().add(name, std::type_index(typeid(Functor)),
                                  std::type_index(typeid(Op)), kind, entry);
  return true;
}

}  // namespace detail
}  // namespace licomk::kxx

/// Register `Functor` (second argument, may contain commas via __VA_ARGS__)
/// for 1-D parallel_for dispatch on the Athread backend under `name`.
/// Mirrors the paper's KOKKOS_REGISTER_FOR_1D(Arg1, Arg2) macro (Code 1).
#define KXX_REGISTER_FOR_1D(name, ...) KXX_DETAIL_REGISTER_FOR(for1d_##name, #name, 1, __VA_ARGS__)
#define KXX_REGISTER_FOR_2D(name, ...) KXX_DETAIL_REGISTER_FOR(for2d_##name, #name, 2, __VA_ARGS__)
#define KXX_REGISTER_FOR_3D(name, ...) KXX_DETAIL_REGISTER_FOR(for3d_##name, #name, 3, __VA_ARGS__)

/// Register `Functor` for parallel_reduce with reduction op `Op`
/// (e.g. kxx::SumOp<double>).
#define KXX_REGISTER_REDUCE_1D(name, Functor, Op) \
  KXX_DETAIL_REGISTER_REDUCE(red1d_##name, #name, 1, Functor, Op)
#define KXX_REGISTER_REDUCE_2D(name, Functor, Op) \
  KXX_DETAIL_REGISTER_REDUCE(red2d_##name, #name, 2, Functor, Op)
#define KXX_REGISTER_REDUCE_3D(name, Functor, Op) \
  KXX_DETAIL_REGISTER_REDUCE(red3d_##name, #name, 3, Functor, Op)

#define KXX_DETAIL_REGISTER_FOR(var, label, R, ...)                                   \
  static const bool kxx_registered_##var [[maybe_unused]] =                           \
      ::licomk::kxx::detail::register_for<__VA_ARGS__>(                               \
          label, ::licomk::kxx::detail::kind_of<R>(false),                            \
          &::licomk::kxx::detail::cpe_entry_for<R, __VA_ARGS__>)

#define KXX_DETAIL_REGISTER_REDUCE(var, label, R, Functor, Op)                        \
  static const bool kxx_registered_##var [[maybe_unused]] =                           \
      ::licomk::kxx::detail::register_reduce<Functor, Op>(                            \
          label, ::licomk::kxx::detail::kind_of<R>(true),                             \
          &::licomk::kxx::detail::cpe_entry_reduce<R, Functor, Op>)
