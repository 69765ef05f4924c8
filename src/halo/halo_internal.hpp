// halo_internal.hpp — constants and helpers shared between the per-field
// exchanger (halo_exchange.cpp) and the multi-field PersistentGroup
// (persistent_group.cpp). Internal to the halo library; not installed API.
#pragma once

#include <cstdint>

#include "halo/halo_exchange.hpp"
#include "telemetry/telemetry.hpp"

namespace licomk::halo::detail {

/// Per-field message tags (one message per field per direction).
inline constexpr int kTagToSouth = 10;
inline constexpr int kTagToNorth = 11;
inline constexpr int kTagToWest = 12;
inline constexpr int kTagToEast = 13;
inline constexpr int kTagFold = 14;

/// Group (PersistentGroup) message tags. All boxes to one peer in one phase
/// travel in a single fused message, so a group only needs one tag per phase
/// (0 = meridional + fold, 1 = zonal); (source, tag) then uniquely
/// identifies every in-flight message:
///   tag = kTagGroupBase + 4 * tag_block + phase
/// The effective tag_block is the group's local block plus the exchanger's
/// tag_base (HaloExchanger::set_tag_base): the farm assigns each tenant a
/// disjoint base so concurrent model instances' groups can never share a tag.
/// A plan claims its range for its whole lifetime; two live plans whose
/// ranges overlap are rejected by the exchanger's tag-range registry as a
/// hard CommError (no silent cross-talk). The base sits far above every
/// other point-to-point tag of a run (per-field halo 10–14, the vmix load
/// balancer 30–31).
inline constexpr int kTagGroupBase = 1 << 20;

inline int group_tag(int tag_block, int phase) {
  return kTagGroupBase + 4 * tag_block + phase;
}

/// Message buffer strides for (nk, nj, ni) boxes under each method.
struct BufStrides {
  long long s0, s1, s2;  // strides for iteration dims (k, j, i)
};

inline BufStrides buffer_strides(Halo3DMethod method, long long nk, long long nj,
                                 long long ni) {
  if (method == Halo3DMethod::HorizontalMajor) {
    return {nj * ni, ni, 1};  // k slowest, i fastest
  }
  return {1, ni * nk, nk};  // Fig. 5: k fastest ("vertical major")
}

/// Telemetry funnel for the per-site stats_ increments: mirrored process-wide
/// so metrics.json aggregates traffic across every exchanger instance. The
/// span-attributed "halo.msgs"/"halo.bytes_msg" mirrors give per-phase
/// message attribution (which phase of the step sent how many messages).
inline void note_message(std::uint64_t bytes) {
  if (telemetry::enabled()) {
    static telemetry::Counter& messages = telemetry::counter("halo.messages");
    static telemetry::Counter& total = telemetry::counter("halo.bytes");
    messages.add(1);
    total.add(bytes);
    telemetry::span_counter_add("halo.msgs", 1);
    telemetry::span_counter_add("halo.bytes_msg", bytes);
  }
}

inline void note_counter(const char* name, std::uint64_t delta) {
  if (telemetry::enabled()) telemetry::counter(name).add(delta);
}

}  // namespace licomk::halo::detail
