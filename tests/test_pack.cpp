// Tests for the SIMD Pack<T,N> layer (DESIGN.md §12): value/mask semantics,
// masked load/store contracts, the parallel_for_packed dispatcher (tail masks
// at the i extent, kmt partial-column masks, mid-pack land/ocean boundaries),
// bit-identity of packed vs scalar execution across pack widths, lane
// telemetry, scalar lowering, and composition with the AthreadSim LDM
// staging pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "kxx/kxx.hpp"
#include "util/error.hpp"

namespace kxx = licomk::kxx;

namespace {

using P8 = kxx::Pack<double, 8>;
using M8 = kxx::Mask<8>;

/// CF2/F2/CF3/F3-shaped raw refs (duck-typed like core/field_ref.hpp).
struct C2 {
  const double* p = nullptr;
  long long row = 0;
  double operator()(long long j, long long i) const { return p[j * row + i]; }
  const double* ptr(long long j, long long i) const { return p + j * row + i; }
};
struct M2 {
  double* p = nullptr;
  long long row = 0;
  double& operator()(long long j, long long i) const { return p[j * row + i]; }
  double* ptr(long long j, long long i) const { return p + j * row + i; }
};
struct C3 {
  const double* p = nullptr;
  long long plane = 0;
  long long row = 0;
  double operator()(long long k, long long j, long long i) const {
    return p[k * plane + j * row + i];
  }
  const double* ptr(long long k, long long j, long long i) const {
    return p + k * plane + j * row + i;
  }
};
struct M3 {
  double* p = nullptr;
  long long plane = 0;
  long long row = 0;
  double& operator()(long long k, long long j, long long i) const {
    return p[k * plane + j * row + i];
  }
  double* ptr(long long k, long long j, long long i) const {
    return p + k * plane + j * row + i;
  }
};

// ---------------------------------------------------------------------------
// Pack / Mask value semantics
// ---------------------------------------------------------------------------

TEST(Pack, ArithmeticIsLaneWiseScalar) {
  P8 a, b;
  for (int l = 0; l < 8; ++l) {
    a[l] = 1.5 * l - 3.0;
    b[l] = 0.25 * l + 0.1;
  }
  P8 sum = a + b;
  P8 dif = a - b;
  P8 prd = a * b;
  P8 quo = a / b;
  P8 sca = 2.0 * a + 1.0;
  P8 neg = -a;
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(sum[l], a[l] + b[l]);
    EXPECT_EQ(dif[l], a[l] - b[l]);
    EXPECT_EQ(prd[l], a[l] * b[l]);
    EXPECT_EQ(quo[l], a[l] / b[l]);
    EXPECT_EQ(sca[l], 2.0 * a[l] + 1.0);
    EXPECT_EQ(neg[l], -a[l]);
  }
  P8 acc = a;
  acc += b;
  acc *= b;
  for (int l = 0; l < 8; ++l) EXPECT_EQ(acc[l], (a[l] + b[l]) * b[l]);
}

TEST(Pack, DefaultIsZeroInitialized) {
  P8 z;
  for (int l = 0; l < 8; ++l) EXPECT_EQ(z[l], 0.0);
}

TEST(Pack, MathWrappersMatchScalarExpressions) {
  P8 a, b, c;
  for (int l = 0; l < 8; ++l) {
    a[l] = 0.5 * l + 0.25;
    b[l] = -1.0 * l + 3.5;
    c[l] = 0.125 * l;
  }
  P8 sq = kxx::sqrt(a);
  P8 ab = kxx::fabs(b);
  P8 fm = kxx::fma(a, b, c);
  P8 mn = kxx::min(a, b);
  P8 mx = kxx::max(a, b);
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(sq[l], std::sqrt(a[l]));
    EXPECT_EQ(ab[l], std::fabs(b[l]));
    // The wrapper is a*b + c with TWO roundings (the scalar kernels' shape),
    // not a hardware FMA; equality with the plain expression is the contract.
    EXPECT_EQ(fm[l], a[l] * b[l] + c[l]);
    EXPECT_EQ(mn[l], a[l] < b[l] ? a[l] : b[l]);
    EXPECT_EQ(mx[l], a[l] > b[l] ? a[l] : b[l]);
  }

  // min/max follow std::min/std::max bit for bit where the naive forms
  // differ: signed zeros, NaN in either operand, and equal values (which
  // operand comes back). The FCT limiter relies on this to swap its std::
  // calls for the pack wrappers.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double x[8] = {0.0, -0.0, nan, 1.0, 2.5, nan, -3.0, 0.0};
  const double y[8] = {-0.0, 0.0, 1.0, nan, 2.5, nan, -3.0, 0.0};
  P8 px, py;
  for (int l = 0; l < 8; ++l) {
    px[l] = x[l];
    py[l] = y[l];
  }
  auto same_bits = [](double u, double v) { return std::memcmp(&u, &v, sizeof u) == 0; };
  const P8 mn2 = kxx::min(px, py);
  const P8 mx2 = kxx::max(px, py);
  for (int l = 0; l < 8; ++l) {
    EXPECT_TRUE(same_bits(mn2[l], std::min(x[l], y[l]))) << "min lane " << l;
    EXPECT_TRUE(same_bits(mx2[l], std::max(x[l], y[l]))) << "max lane " << l;
  }
  // The initializer-list forms fold left in argument order.
  const P8 mx3 = kxx::max(kxx::max(px, py), a);
  const P8 mn3 = kxx::min(kxx::min(px, py), a);
  for (int l = 0; l < 8; ++l) {
    EXPECT_TRUE(same_bits(mx3[l], std::max({x[l], y[l], a[l]}))) << "max3 lane " << l;
    EXPECT_TRUE(same_bits(mn3[l], std::min({x[l], y[l], a[l]}))) << "min3 lane " << l;
  }
}

TEST(Pack, SelectOnIntMaskKeepsExactBits) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  P8 a, b;
  int m[8];
  for (int l = 0; l < 8; ++l) {
    a[l] = l % 3 == 0 ? -0.0 : (l == 5 ? nan : 1.0 + l);
    b[l] = l % 2 == 0 ? 0.0 : -2.0 * l;
    m[l] = l % 2 == 0 ? 7 : 0;  // any nonzero lane selects a
  }
  const P8 r = kxx::select(m, a, b);
  for (int l = 0; l < 8; ++l) {
    const double want = m[l] ? a[l] : b[l];
    EXPECT_EQ(0, std::memcmp(&r.d[l], &want, sizeof want)) << "lane " << l;
  }
}

TEST(Pack, ComparisonsYieldMasks) {
  P8 a, b;
  for (int l = 0; l < 8; ++l) {
    a[l] = static_cast<double>(l);
    b[l] = 3.5;
  }
  M8 lt = a < b;
  M8 ge = a >= 3.5;
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(lt[l], l < 4);
    EXPECT_EQ(ge[l], l >= 4);
  }
  EXPECT_EQ(lt.count(), 4);
  EXPECT_TRUE((lt || ge).all());
  EXPECT_TRUE((lt && ge).none());
  EXPECT_EQ((!lt).count(), 4);
}

TEST(Mask, FirstAndAllTrue) {
  EXPECT_EQ(M8::first(3).count(), 3);
  EXPECT_TRUE(M8::first(3)[2]);
  EXPECT_FALSE(M8::first(3)[3]);
  EXPECT_TRUE(M8::all_true().all());
  EXPECT_TRUE(M8::first(0).none());
  EXPECT_EQ(M8::first(8).count(), 8);
}

TEST(Pack, BlendSelectsPerLane) {
  P8 a(2.0), b(7.0);
  M8 m = M8::first(5);
  P8 r = kxx::blend(m, a, b);
  P8 rs = kxx::blend(m, a, -1.0);
  for (int l = 0; l < 8; ++l) {
    EXPECT_EQ(r[l], l < 5 ? 2.0 : 7.0);
    EXPECT_EQ(rs[l], l < 5 ? 2.0 : -1.0);
  }
}

// ---------------------------------------------------------------------------
// Masked loads / stores
// ---------------------------------------------------------------------------

TEST(PackLoadStore, MaskedLoadZeroFillsInactiveLanes) {
  double buf[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  P8 v = kxx::pack_load<8>(M8::first(3), buf);
  for (int l = 0; l < 8; ++l) EXPECT_EQ(v[l], l < 3 ? buf[l] : 0.0);
}

TEST(PackLoadStore, MaskedLoadNeverDereferencesInactiveLanes) {
  // Only 3 valid doubles at the END of an allocation: lanes 3..7 would read
  // past it. The zero-fill contract requires those lanes never dereference.
  std::vector<double> alloc = {9.0, 8.0, 7.0};
  P8 v = kxx::pack_load<8>(M8::first(3), alloc.data());
  EXPECT_EQ(v[0], 9.0);
  EXPECT_EQ(v[2], 7.0);
  EXPECT_EQ(v[5], 0.0);
}

TEST(PackLoadStore, MaskedStoreLeavesInactiveMemoryUntouched) {
  double buf[8];
  for (int l = 0; l < 8; ++l) buf[l] = -99.0;
  P8 v;
  for (int l = 0; l < 8; ++l) v[l] = static_cast<double>(l);
  M8 m;
  for (int l = 0; l < 8; ++l) m.set(l, l % 2 == 0);  // even lanes only
  kxx::pack_store<8>(m, buf, v);
  for (int l = 0; l < 8; ++l) EXPECT_EQ(buf[l], l % 2 == 0 ? static_cast<double>(l) : -99.0);
}

// ---------------------------------------------------------------------------
// parallel_for_packed dispatch
// ---------------------------------------------------------------------------

/// 2-D column kernel with a scalar body and an equivalent pack body; the kmt
/// guard mirrors the dispatcher's LevelsRef mask so scalar lowering (which
/// visits every index) produces the same result.
struct Col2D {
  kxx::LevelsRef kmt;
  C2 in;
  M2 out;

  void operator()(long long j, long long i) const {
    if (kmt(j, i) <= 0) return;
    double x = in(j, i);
    out(j, i) = 3.0 * x + x * x / (x + 2.0);
  }

  template <int N>
  void pack_op(long long j, long long i0, const kxx::Mask<N>& m) const {
    kxx::Pack<double, N> x = kxx::pack_load<N>(m, in.ptr(j, i0));
    kxx::Pack<double, N> r = 3.0 * x + x * x / (x + 2.0);
    kxx::pack_store<N>(m, out.ptr(j, i0), r);
  }
};

/// 3-D kernel with per-column depth (k < kmt) masking.
struct Depth3D {
  kxx::LevelsRef kmt;
  C3 in;
  M3 out;

  void operator()(long long k, long long j, long long i) const {
    if (k >= kmt(j, i)) return;
    out(k, j, i) = in(k, j, i) * 2.0 + static_cast<double>(k);
  }

  template <int N>
  void pack_op(long long k, long long j, long long i0, const kxx::Mask<N>& m) const {
    kxx::Pack<double, N> x = kxx::pack_load<N>(m, in.ptr(k, j, i0));
    kxx::Pack<double, N> r = x * 2.0 + static_cast<double>(k);
    kxx::pack_store<N>(m, out.ptr(k, j, i0), r);
  }
};

struct Grid2 {
  long long ny, nx;
  std::vector<double> in;
  std::vector<int> kmt;
  Grid2(long long ny_, long long nx_) : ny(ny_), nx(nx_) {
    in.resize(static_cast<size_t>(ny * nx));
    kmt.assign(static_cast<size_t>(ny * nx), 1);
    for (size_t n = 0; n < in.size(); ++n) in[n] = 0.5 * static_cast<double>((n * 13) % 97) + 0.25;
  }
  std::vector<double> run(int pack_size) {
    std::vector<double> out(in.size(), -7.0);  // sentinel: masked cells keep it
    kxx::set_pack_size(pack_size);
    Col2D f{kxx::LevelsRef{kmt.data(), nx}, C2{in.data(), nx}, M2{out.data(), nx}};
    kxx::parallel_for_packed("pack_test_col2d", kxx::MDRangePolicy2({0, 0}, {ny, nx}),
                             kxx::LevelsRef{kmt.data(), nx}, f);
    return out;
  }
};

TEST(ParallelForPacked, TailMaskHandlesNonMultipleExtent) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  // nx = 37: 4 full packs of 8 plus a 5-lane tail (and 9×4+1 at width 4).
  Grid2 g(3, 37);
  auto s1 = g.run(1);
  auto s4 = g.run(4);
  auto s8 = g.run(8);
  EXPECT_EQ(0, std::memcmp(s1.data(), s8.data(), s1.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(s1.data(), s4.data(), s1.size() * sizeof(double)));
  for (double v : s8) EXPECT_NE(v, -7.0);  // every cell written (all-ocean kmt)
}

TEST(ParallelForPacked, LandColumnsStayUntouched) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Grid2 g(4, 19);
  // Land at scattered i including mid-pack positions and a full land row.
  for (long long j = 0; j < g.ny; ++j)
    for (long long i = 0; i < g.nx; ++i)
      if (j == 2 || i % 5 == 3) g.kmt[static_cast<size_t>(j * g.nx + i)] = 0;
  auto s1 = g.run(1);
  auto s8 = g.run(8);
  EXPECT_EQ(0, std::memcmp(s1.data(), s8.data(), s1.size() * sizeof(double)));
  for (long long j = 0; j < g.ny; ++j)
    for (long long i = 0; i < g.nx; ++i) {
      double v = s8[static_cast<size_t>(j * g.nx + i)];
      if (j == 2 || i % 5 == 3) {
        EXPECT_EQ(v, -7.0) << "land cell written at j=" << j << " i=" << i;
      } else {
        EXPECT_NE(v, -7.0);
      }
    }
}

TEST(ParallelForPacked, PartialColumns3DMidPackBoundaries) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  const long long nz = 6, ny = 3, nx = 21;
  std::vector<double> in(static_cast<size_t>(nz * ny * nx));
  for (size_t n = 0; n < in.size(); ++n) in[n] = 0.1 * static_cast<double>((n * 7) % 53);
  // Depths 0..6 cycling with i: adjacent lanes in one pack straddle land
  // (kmt = 0), shallow, and full-depth columns.
  std::vector<int> kmt(static_cast<size_t>(ny * nx));
  for (long long j = 0; j < ny; ++j)
    for (long long i = 0; i < nx; ++i)
      kmt[static_cast<size_t>(j * nx + i)] = static_cast<int>((i + j) % (nz + 1));

  auto run = [&](int ps) {
    std::vector<double> out(in.size(), -7.0);
    kxx::set_pack_size(ps);
    Depth3D f{kxx::LevelsRef{kmt.data(), nx}, C3{in.data(), ny * nx, nx},
              M3{out.data(), ny * nx, nx}};
    kxx::parallel_for_packed("pack_test_depth3d",
                             kxx::MDRangePolicy3({0, 0, 0}, {nz, ny, nx}),
                             kxx::LevelsRef{kmt.data(), nx}, f);
    return out;
  };
  auto s1 = run(1);
  auto s4 = run(4);
  auto s8 = run(8);
  EXPECT_EQ(0, std::memcmp(s1.data(), s8.data(), s1.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(s1.data(), s4.data(), s1.size() * sizeof(double)));
  for (long long k = 0; k < nz; ++k)
    for (long long j = 0; j < ny; ++j)
      for (long long i = 0; i < nx; ++i) {
        double v = s8[static_cast<size_t>((k * ny + j) * nx + i)];
        if (k >= kmt[static_cast<size_t>(j * nx + i)]) {
          EXPECT_EQ(v, -7.0);
        } else {
          EXPECT_NE(v, -7.0);
        }
      }
}

TEST(ParallelForPacked, ThreadsBackendBitIdenticalToSerial) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  Grid2 g(8, 29);
  auto serial8 = g.run(8);
  kxx::initialize({kxx::Backend::Threads, 4, false});
  auto threads8 = g.run(8);
  auto threads1 = g.run(1);
  EXPECT_EQ(0, std::memcmp(serial8.data(), threads8.data(), serial8.size() * sizeof(double)));
  EXPECT_EQ(0, std::memcmp(serial8.data(), threads1.data(), serial8.size() * sizeof(double)));
}

TEST(ParallelForPacked, LaneTelemetryCountsActiveAndMasked) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  kxx::reset_pack_lane_counts();
  Grid2 g(2, 13);  // per row at width 8: packs of 8+8 lanes, 13 active, 3 tail
  g.run(8);
  EXPECT_EQ(kxx::pack_lanes_active(), 2 * 13);
  EXPECT_EQ(kxx::pack_lanes_masked(), 2 * 3);
  // Land columns count as masked lanes too.
  kxx::reset_pack_lane_counts();
  for (long long j = 0; j < g.ny; ++j) g.kmt[static_cast<size_t>(j * g.nx + 0)] = 0;
  g.run(8);
  EXPECT_EQ(kxx::pack_lanes_active(), 2 * 12);
  EXPECT_EQ(kxx::pack_lanes_masked(), 2 * 4);
  // Scalar lowering (width 1) never runs pack_op and notes no lanes.
  kxx::reset_pack_lane_counts();
  g.run(1);
  EXPECT_EQ(kxx::pack_lanes_active(), 0);
  EXPECT_EQ(kxx::pack_lanes_masked(), 0);
}

TEST(ParallelForPacked, FusionElisionGaugeAccumulates) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  kxx::reset_fusion_views_elided();
  EXPECT_EQ(kxx::fusion_views_elided_bytes(), 0);
  kxx::note_fusion_views_elided(1024);
  kxx::note_fusion_views_elided(512);
  EXPECT_EQ(kxx::fusion_views_elided_bytes(), 1536);
}

TEST(ParallelForPacked, InvalidPackSizeRejected) {
  EXPECT_THROW(kxx::set_pack_size(3), licomk::InvalidArgument);
  EXPECT_THROW(kxx::set_pack_size(0), licomk::InvalidArgument);
  kxx::InitConfig bad;
  bad.pack_size = 16;
  EXPECT_THROW(kxx::initialize(bad), licomk::InvalidArgument);
  kxx::initialize({kxx::Backend::Serial, 1, false});
  EXPECT_EQ(kxx::pack_size(), LICOMK_PACK_SIZE);
}

TEST(ParallelForPacked, EnvOverrideParsesPackSize) {
  ::setenv("LICOMK_PACK_SIZE", "4", 1);
  kxx::InitConfig cfg = kxx::config_from_env({kxx::Backend::Serial, 1, false});
  EXPECT_EQ(cfg.pack_size, 4);
  ::unsetenv("LICOMK_PACK_SIZE");
  kxx::initialize({kxx::Backend::Serial, 1, false});
}

/// Sets one environment variable for a scope and restores the previous value
/// (CI legs export some of these themselves).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_.has_value()) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

/// The InvalidArgument a call throws, or "" when it returns normally.
template <typename Call>
std::string invalid_argument_of(Call&& call) {
  try {
    call();
  } catch (const licomk::InvalidArgument& e) {
    return e.what();
  }
  return "";
}

TEST(ParallelForPacked, EnvOverrideRejectsMalformedValues) {
  const kxx::InitConfig serial{kxx::Backend::Serial, 1, false};
  for (const char* bad : {"abc", "-2", "4x", "", " 3"}) {
    SCOPED_TRACE(std::string("LICOMK_NUM_THREADS='") + bad + "'");
    ScopedEnv env("LICOMK_NUM_THREADS", bad);
    EXPECT_NE(invalid_argument_of([&] { kxx::config_from_env(serial); })
                  .find("LICOMK_NUM_THREADS"),
              std::string::npos);
  }
  for (const char* bad : {"yes", "ON", "2", "", "true "}) {
    SCOPED_TRACE(std::string("LICOMK_ATHREAD_STRICT='") + bad + "'");
    ScopedEnv env("LICOMK_ATHREAD_STRICT", bad);
    EXPECT_NE(invalid_argument_of([&] { kxx::config_from_env(serial); })
                  .find("LICOMK_ATHREAD_STRICT"),
              std::string::npos);
  }
  for (const char* bad : {"8abc", "3", "-4", ""}) {
    SCOPED_TRACE(std::string("LICOMK_PACK_SIZE='") + bad + "'");
    ScopedEnv env("LICOMK_PACK_SIZE", bad);
    EXPECT_NE(invalid_argument_of([&] { kxx::config_from_env(serial); })
                  .find("LICOMK_PACK_SIZE"),
              std::string::npos);
    EXPECT_NE(invalid_argument_of([&] { kxx::initialize(serial); }).find("LICOMK_PACK_SIZE"),
              std::string::npos);
  }
  kxx::initialize(serial);
}

TEST(ParallelForPacked, EnvOverrideAcceptsWholeTokens) {
  const kxx::InitConfig serial{kxx::Backend::Serial, 1, false};
  {
    ScopedEnv env("LICOMK_NUM_THREADS", "3");
    EXPECT_EQ(kxx::config_from_env(serial).num_threads, 3);
  }
  {
    ScopedEnv env("LICOMK_NUM_THREADS", "0");  // 0 = hardware concurrency
    EXPECT_EQ(kxx::config_from_env(serial).num_threads, 0);
  }
  for (const char* on : {"1", "on", "true"}) {
    ScopedEnv env("LICOMK_ATHREAD_STRICT", on);
    EXPECT_TRUE(kxx::config_from_env(serial).athread_strict) << on;
  }
  for (const char* off : {"0", "off", "false"}) {
    ScopedEnv env("LICOMK_ATHREAD_STRICT", off);
    EXPECT_FALSE(kxx::config_from_env({kxx::Backend::Serial, 1, true}).athread_strict) << off;
  }
  {
    ScopedEnv env("LICOMK_PACK_SIZE", "8");
    EXPECT_EQ(kxx::config_from_env(serial).pack_size, 8);
    kxx::initialize(serial);
    EXPECT_EQ(kxx::pack_size(), 8);
  }
  kxx::initialize(serial);
}

}  // namespace

// ---------------------------------------------------------------------------
// Composition with the AthreadSim LDM staging pipeline: packed dispatch
// lowers to the registered scalar kernel, so all three staging modes must
// reproduce the Serial packed result bit-for-bit.
// ---------------------------------------------------------------------------

namespace {

struct StagedStencil {
  kxx::LevelsRef kmt;
  C3 in;
  M3 out;

  void kxx_access(kxx::AccessSpec& a) const {
    a.in(in).halo(1, 1, 1).halo(2, 1, 1);
    a.inout(out);  // masked cells must survive the LDM round trip
  }

  void operator()(long long k, long long j, long long i) const {
    if (k >= kmt(j, i)) return;
    out(k, j, i) =
        in(k, j, i) + 0.25 * (in(k, j - 1, i) + in(k, j + 1, i) + in(k, j, i - 1) +
                              in(k, j, i + 1));
  }

  template <int N>
  void pack_op(long long k, long long j, long long i0, const kxx::Mask<N>& m) const {
    using P = kxx::Pack<double, N>;
    P c = kxx::pack_load<N>(m, in.ptr(k, j, i0));
    P s = kxx::pack_load<N>(m, in.ptr(k, j - 1, i0));
    P n = kxx::pack_load<N>(m, in.ptr(k, j + 1, i0));
    P w = kxx::pack_load<N>(m, in.ptr(k, j, i0 - 1));
    P e = kxx::pack_load<N>(m, in.ptr(k, j, i0 + 1));
    kxx::pack_store<N>(m, out.ptr(k, j, i0), c + 0.25 * (s + n + w + e));
  }
};

}  // namespace

KXX_REGISTER_FOR_3D(pack_test_staged, StagedStencil);

namespace {

TEST(ParallelForPacked, ComposesWithLdmStagingModes) {
  const long long nz = 4, ny = 10, nx = 26;  // allocation incl. 1 halo ring
  std::vector<double> in(static_cast<size_t>(nz * ny * nx));
  for (size_t n = 0; n < in.size(); ++n)
    in[n] = 0.01 * static_cast<double>((n * 31) % 211) - 1.0;
  std::vector<int> kmt(static_cast<size_t>(ny * nx));
  for (long long j = 0; j < ny; ++j)
    for (long long i = 0; i < nx; ++i)
      kmt[static_cast<size_t>(j * nx + i)] = static_cast<int>((3 * i + j) % (nz + 1));

  // Interior dispatch (1-ring margin) so the stencil stays in-bounds.
  kxx::MDRangePolicy3 interior({0, 1, 1}, {nz, ny - 1, nx - 1}, {1, 4, 8});
  auto run = [&](kxx::Backend backend, kxx::LdmStagingMode mode) {
    kxx::InitConfig cfg{backend, 4, backend == kxx::Backend::AthreadSim};
    cfg.ldm_staging = mode;
    kxx::initialize(cfg);
    std::vector<double> out(in.size(), -3.0);
    StagedStencil f{kxx::LevelsRef{kmt.data(), nx}, C3{in.data(), ny * nx, nx},
                    M3{out.data(), ny * nx, nx}};
    kxx::parallel_for_packed("pack_test_staged", interior,
                             kxx::LevelsRef{kmt.data(), nx}, f);
    return out;
  };

  auto serial = run(kxx::Backend::Serial, kxx::LdmStagingMode::Direct);
  for (auto mode : {kxx::LdmStagingMode::Direct, kxx::LdmStagingMode::Staged,
                    kxx::LdmStagingMode::DoubleBuffered}) {
    auto staged = run(kxx::Backend::AthreadSim, mode);
    EXPECT_EQ(0, std::memcmp(serial.data(), staged.data(), serial.size() * sizeof(double)))
        << "staging mode " << kxx::ldm_staging_mode_name(mode);
  }
  kxx::initialize({kxx::Backend::Serial, 1, false});
}

}  // namespace
