// pack.hpp — SIMD Pack<T,N> value types with masked partial-column ops.
//
// The E3SM/SCREAM idiom (scream_pack_kokkos.hpp): a Pack is a fixed-width
// bundle of N adjacent values along the innermost (stride-1) dimension, and a
// Mask marks which lanes are live. Functors express their math once over
// packs; the dispatcher (kxx::parallel_for_packed) synthesizes the tail mask
// at the i-extent boundary and the partial-column mask from kmt, and lowers
// to plain scalar loops on backends or kernels that do not opt in.
//
// Bit-identity contract: every Pack operator applies the SAME scalar
// expression to each lane in lane order — a pack of N columns performs
// exactly the FP ops the N scalar iterations would, on the same values, so
// packed results are bit-identical to scalar execution (asserted end-to-end
// in tests/test_pack.cpp and the model CRC matrix). Branchy per-lane physics
// either computes both arms and keeps one per lane with kxx::select (upwind
// selection, the vertical-mixing closure), each arm the scalar branch's own
// expression, or stays lane-scalar inside the pack functor (surface forcing)
// for the same reason.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace licomk::kxx {

/// Lane mask for a Pack of width N. Plain bools: the simulated target has no
/// vector mask registers, and the compiler folds these into flag tests.
template <int N>
struct Mask {
  bool m[N] = {};

  static Mask all_true() {
    Mask r;
    for (int l = 0; l < N; ++l) r.m[l] = true;
    return r;
  }
  static Mask first(int k) {
    Mask r;
    for (int l = 0; l < N; ++l) r.m[l] = l < k;
    return r;
  }

  bool operator[](int lane) const { return m[lane]; }
  void set(int lane, bool v) { m[lane] = v; }

  int count() const {
    int c = 0;
    for (int l = 0; l < N; ++l) c += m[l] ? 1 : 0;
    return c;
  }
  bool any() const {
    for (int l = 0; l < N; ++l)
      if (m[l]) return true;
    return false;
  }
  bool all() const {
    for (int l = 0; l < N; ++l)
      if (!m[l]) return false;
    return true;
  }
  bool none() const { return !any(); }

  Mask operator&&(const Mask& o) const {
    Mask r;
    for (int l = 0; l < N; ++l) r.m[l] = m[l] && o.m[l];
    return r;
  }
  Mask operator||(const Mask& o) const {
    Mask r;
    for (int l = 0; l < N; ++l) r.m[l] = m[l] || o.m[l];
    return r;
  }
  Mask operator!() const {
    Mask r;
    for (int l = 0; l < N; ++l) r.m[l] = !m[l];
    return r;
  }
};

/// Fixed-width value pack. The element loops are trivially auto-vectorizable
/// (contiguous, branch-free); lane order is the scalar iteration order.
template <typename T, int N>
struct Pack {
  static constexpr int n = N;
  T d[N] = {};

  Pack() = default;
  explicit Pack(T s) {
    for (int l = 0; l < N; ++l) d[l] = s;
  }

  T operator[](int lane) const { return d[lane]; }
  T& operator[](int lane) { return d[lane]; }

  Pack& operator+=(const Pack& o) {
    for (int l = 0; l < N; ++l) d[l] += o.d[l];
    return *this;
  }
  Pack& operator-=(const Pack& o) {
    for (int l = 0; l < N; ++l) d[l] -= o.d[l];
    return *this;
  }
  Pack& operator*=(const Pack& o) {
    for (int l = 0; l < N; ++l) d[l] *= o.d[l];
    return *this;
  }
  Pack& operator/=(const Pack& o) {
    for (int l = 0; l < N; ++l) d[l] /= o.d[l];
    return *this;
  }

  Pack operator-() const {
    Pack r;
    for (int l = 0; l < N; ++l) r.d[l] = -d[l];
    return r;
  }
};

// --- binary arithmetic (pack ⊗ pack, scalar ⊗ pack, pack ⊗ scalar) ----------

#define LICOMK_PACK_BINOP(op)                                        \
  template <typename T, int N>                                       \
  inline Pack<T, N> operator op(const Pack<T, N>& a, const Pack<T, N>& b) { \
    Pack<T, N> r;                                                    \
    for (int l = 0; l < N; ++l) r.d[l] = a.d[l] op b.d[l];           \
    return r;                                                        \
  }                                                                  \
  template <typename T, int N>                                       \
  inline Pack<T, N> operator op(T a, const Pack<T, N>& b) {          \
    Pack<T, N> r;                                                    \
    for (int l = 0; l < N; ++l) r.d[l] = a op b.d[l];                \
    return r;                                                        \
  }                                                                  \
  template <typename T, int N>                                       \
  inline Pack<T, N> operator op(const Pack<T, N>& a, T b) {          \
    Pack<T, N> r;                                                    \
    for (int l = 0; l < N; ++l) r.d[l] = a.d[l] op b;                \
    return r;                                                        \
  }

LICOMK_PACK_BINOP(+)
LICOMK_PACK_BINOP(-)
LICOMK_PACK_BINOP(*)
LICOMK_PACK_BINOP(/)
#undef LICOMK_PACK_BINOP

// --- comparisons → Mask ------------------------------------------------------

#define LICOMK_PACK_CMPOP(op)                                        \
  template <typename T, int N>                                       \
  inline Mask<N> operator op(const Pack<T, N>& a, const Pack<T, N>& b) { \
    Mask<N> r;                                                       \
    for (int l = 0; l < N; ++l) r.m[l] = a.d[l] op b.d[l];           \
    return r;                                                        \
  }                                                                  \
  template <typename T, int N>                                       \
  inline Mask<N> operator op(const Pack<T, N>& a, T b) {             \
    Mask<N> r;                                                       \
    for (int l = 0; l < N; ++l) r.m[l] = a.d[l] op b;                \
    return r;                                                        \
  }                                                                  \
  template <typename T, int N>                                       \
  inline Mask<N> operator op(T a, const Pack<T, N>& b) {             \
    Mask<N> r;                                                       \
    for (int l = 0; l < N; ++l) r.m[l] = a op b.d[l];                \
    return r;                                                        \
  }

LICOMK_PACK_CMPOP(<)
LICOMK_PACK_CMPOP(<=)
LICOMK_PACK_CMPOP(>)
LICOMK_PACK_CMPOP(>=)
LICOMK_PACK_CMPOP(==)
LICOMK_PACK_CMPOP(!=)
#undef LICOMK_PACK_CMPOP

// --- loads / stores ----------------------------------------------------------

/// Contiguous load of N values starting at p (caller guarantees in-bounds).
template <int N, typename T>
inline Pack<T, N> pack_load(const T* p) {
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = p[l];
  return r;
}

/// Masked load: inactive lanes are zero-filled and p[l] is NEVER dereferenced
/// for them — tail packs at the i-extent boundary must not touch the bytes
/// past the last row/plane of the allocation.
template <int N, typename T>
inline Pack<T, N> pack_load(const Mask<N>& m, const T* p) {
  if (m.all()) return pack_load<N>(p);  // full pack: plain vectorizable loop
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = m.m[l] ? p[l] : T{};
  return r;
}

template <int N, typename T>
inline void pack_store(T* p, const Pack<T, N>& v) {
  for (int l = 0; l < N; ++l) p[l] = v.d[l];
}

/// Masked store: inactive lanes leave memory untouched (land columns keep
/// whatever the scalar path would have kept).
template <int N, typename T>
inline void pack_store(const Mask<N>& m, T* p, const Pack<T, N>& v) {
  if (m.all()) {
    pack_store<N>(p, v);  // full pack: plain vectorizable loop
    return;
  }
  for (int l = 0; l < N; ++l)
    if (m.m[l]) p[l] = v.d[l];
}

/// Masked assignment in registers: lane l takes a[l] where the mask is set,
/// b[l] elsewhere.
template <typename T, int N>
inline Pack<T, N> blend(const Mask<N>& m, const Pack<T, N>& a, const Pack<T, N>& b) {
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = m.m[l] ? a.d[l] : b.d[l];
  return r;
}
template <typename T, int N>
inline Pack<T, N> blend(const Mask<N>& m, const Pack<T, N>& a, T b) {
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = m.m[l] ? a.d[l] : b;
  return r;
}

// --- per-lane math wrappers --------------------------------------------------

template <typename T, int N>
inline Pack<T, N> sqrt(const Pack<T, N>& a) {
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = std::sqrt(a.d[l]);
  return r;
}
template <typename T, int N>
inline Pack<T, N> fabs(const Pack<T, N>& a) {
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = std::fabs(a.d[l]);
  return r;
}
/// fma(a,b,c) = a*b + c per lane. Deliberately NOT std::fma: a hardware fused
/// multiply-add rounds once where the scalar kernels round twice, which would
/// break the bit-identity contract. The name exists so pack code reads like
/// the SCREAM exemplar; the semantics match the scalar expression a*b + c.
template <typename T, int N>
inline Pack<T, N> fma(const Pack<T, N>& a, const Pack<T, N>& b, const Pack<T, N>& c) {
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = a.d[l] * b.d[l] + c.d[l];
  return r;
}
/// min/max with std::min/std::max semantics lane by lane — std::min(a, b) is
/// (b < a) ? b : a and std::max(a, b) is (a < b) ? b : a, which decide ±0 and
/// NaN lanes differently from the naive a < b ? a : b — so a kernel can swap
/// std::min/std::max (including the initializer-list forms, which fold left
/// in argument order) for these bit for bit. The plain lane loops lower to
/// vminpd/vmaxpd.
template <typename T, int N>
inline Pack<T, N> min(const Pack<T, N>& a, const Pack<T, N>& b) {
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = b.d[l] < a.d[l] ? b.d[l] : a.d[l];
  return r;
}
template <typename T, int N>
inline Pack<T, N> max(const Pack<T, N>& a, const Pack<T, N>& b) {
  Pack<T, N> r;
  for (int l = 0; l < N; ++l) r.d[l] = a.d[l] < b.d[l] ? b.d[l] : a.d[l];
  return r;
}

/// Lane select on an int lane mask (nonzero = take a). Kernels with
/// data-dependent selects build these masks as int[N] rather than Mask<N>:
/// the bool array and a blend through a lambda are lowered lane by lane to
/// scalar code, while int lanes compared and selected in plain loops become
/// one vector compare and blend (DESIGN.md §12.1). The blend is bitwise, so
/// the compiler has no lane branch to sink a division or load into — a
/// ternary here lets it move `a`'s division under a per-lane branch (a
/// division may trap, so it is never hoisted back out), which leaves the
/// whole lane loop scalar. The bits are exactly the ternary's.
template <int N>
inline Pack<double, N> select(const int (&m)[N], const Pack<double, N>& a,
                              const Pack<double, N>& b) {
  Pack<double, N> r;
  for (int l = 0; l < N; ++l) {
    const std::uint64_t keep = std::uint64_t{0} - static_cast<std::uint64_t>(m[l] != 0);
    r.d[l] = std::bit_cast<double>((std::bit_cast<std::uint64_t>(a.d[l]) & keep) |
                                   (std::bit_cast<std::uint64_t>(b.d[l]) & ~keep));
  }
  return r;
}

/// Raw (pointer + row stride) view of a kmt/kmu-style level-count mask, used
/// by parallel_for_packed to synthesize partial-column lane masks. POD so it
/// crosses the same trivially-copyable boundary as the functors.
struct LevelsRef {
  const int* p = nullptr;
  long long row = 0;
  int operator()(long long j, long long i) const { return p[j * row + i]; }
  bool valid() const { return p != nullptr; }
};

using PackD4 = Pack<double, 4>;
using PackD8 = Pack<double, 8>;

}  // namespace licomk::kxx
