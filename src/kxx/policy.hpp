// policy.hpp — execution policies (iteration spaces) for kxx dispatches.
//
// RangePolicy is a 1-D half-open index range; MDRangePolicy<R> is an R-D
// range with per-dimension tile lengths (MDRangePolicy2/3 name the ranks the
// model uses). Tile lengths feed the paper's CPE work-distribution formulas
// (Eq. 1 and Eq. 2 in §V-B): the iteration space is cut into
// ceil(len/tile) tiles per dimension and tiles are dealt out to the 64 CPEs
// as evenly as possible.
#pragma once

#include <array>
#include <string>

#include "util/error.hpp"

namespace licomk::kxx {

/// 1-D half-open range [begin, end).
struct RangePolicy {
  long long begin = 0;
  long long end = 0;
  long long tile = 256;  ///< Tile length for CPE distribution.

  RangePolicy() = default;
  RangePolicy(long long b, long long e, long long t = 256) : begin(b), end(e), tile(t) {
    LICOMK_REQUIRE(e >= b, "RangePolicy end < begin");
    LICOMK_REQUIRE(t > 0, "RangePolicy tile must be positive");
  }
  long long length() const { return end - begin; }
};

/// R-D range; the functor signature is f(i0, ..., i{R-1}) with the last index
/// fastest.
template <int R>
struct MDRangePolicy {
  static_assert(R >= 1 && R <= 3, "kxx policies have rank 1, 2 or 3");
  using Index = std::array<long long, R>;

  static constexpr Index default_tile() {
    if constexpr (R == 1) {
      return {256};
    } else if constexpr (R == 2) {
      return {4, 64};
    } else {
      return {2, 4, 64};
    }
  }

  Index begin{};
  Index end{};
  Index tile = default_tile();

  MDRangePolicy() = default;
  MDRangePolicy(Index b, Index e, Index t = default_tile()) : begin(b), end(e), tile(t) {
    for (int d = 0; d < R; ++d) {
      LICOMK_REQUIRE(end[d] >= begin[d], "MDRangePolicy" + std::to_string(R) + " end < begin");
      LICOMK_REQUIRE(tile[d] > 0,
                     "MDRangePolicy" + std::to_string(R) + " tile must be positive");
    }
  }
  long long length(int d) const { return end[d] - begin[d]; }
};

using MDRangePolicy2 = MDRangePolicy<2>;
using MDRangePolicy3 = MDRangePolicy<3>;

namespace detail {

/// The one bounds helper every dispatch reads a policy through: a RangePolicy
/// becomes the equivalent rank-1 MDRangePolicy, an MDRangePolicy is itself.
inline MDRangePolicy<1> bounds_of(const RangePolicy& p) {
  MDRangePolicy<1> b;
  b.begin = {p.begin};
  b.end = {p.end};
  b.tile = {p.tile};
  return b;
}
template <int R>
const MDRangePolicy<R>& bounds_of(const MDRangePolicy<R>& p) {
  return p;
}

/// Rank of a dispatchable policy type; no `value` for anything else, so the
/// generic dispatch templates drop out of overload resolution for TeamPolicy
/// and for the (label, n, f) conveniences.
template <typename Policy>
struct policy_rank {};
template <>
struct policy_rank<RangePolicy> {
  static constexpr int value = 1;
};
template <int R>
struct policy_rank<MDRangePolicy<R>> {
  static constexpr int value = R;
};

}  // namespace detail

}  // namespace licomk::kxx
