// box_copy.hpp — the strided 3-D box-copy kernel underlying every halo
// pack, unpack, and Fig. 5 transpose.
//
// dst[a,b,c] = scale * src[a,b,c] over iteration extents (n0, n1, n2) with
// independent signed strides on both sides. It is registered once for the
// Athread backend (in halo_exchange.cpp), so the whole halo engine needs a
// single KXX_REGISTER_FOR_1D.
#pragma once

#include "kxx/kxx.hpp"

namespace licomk::halo::detail {

/// One dispatch index per (a, b) row: the row's base addresses cost one
/// division and one modulo, and the inner loop walks c on the box's own
/// strides (negative across the fold, nk-strided in the Fig. 5
/// vertical-major buffers).
struct BoxCopy {
  const double* src = nullptr;
  double* dst = nullptr;
  long long n1 = 1, n2 = 1;
  long long ss0 = 0, ss1 = 0, ss2 = 0;
  long long ds0 = 0, ds1 = 0, ds2 = 0;
  double scale = 1.0;

  void operator()(long long row) const {
    const long long a = row / n1;
    const long long b = row % n1;
    const double* s = src + a * ss0 + b * ss1;
    double* d = dst + a * ds0 + b * ds1;
    for (long long c = 0; c < n2; ++c) d[c * ds2] = scale * s[c * ss2];
  }
};

/// Dispatch a BoxCopy over its n0 * n1 rows (n0 outer tiles).
inline void box_copy(const BoxCopy& op, long long n0) {
  kxx::parallel_for("halo_box_copy", kxx::RangePolicy(0, n0 * op.n1), op);
}

}  // namespace licomk::halo::detail
