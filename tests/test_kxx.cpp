// Tests for the kxx performance-portability layer: views, dispatch on every
#include <algorithm>
#include <cmath>
// backend, the functor registry (paper §V-B), and reductions.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "kxx/kxx.hpp"

namespace kxx = licomk::kxx;

namespace {

/// The paper's Code 1 example: Y = a*X + Y.
template <typename T>
class FunctorAXPY {
 public:
  using View1D = kxx::View<T, 1>;
  FunctorAXPY(const T& alpha, const View1D& x, const View1D& y) : a_(alpha), x_(x), y_(y) {}
  void operator()(const long long i) const { y_(static_cast<size_t>(i)) = a_ * x_(static_cast<size_t>(i)) + y_(static_cast<size_t>(i)); }

 private:
  const T a_;
  const View1D x_, y_;
};

struct Fill2D {
  kxx::View<double, 2> v;
  void operator()(long long i, long long j) const {
    v(static_cast<size_t>(i), static_cast<size_t>(j)) = 100.0 * static_cast<double>(i) + static_cast<double>(j);
  }
};

struct Fill3D {
  kxx::View<double, 3> v;
  void operator()(long long i, long long j, long long k) const {
    v(static_cast<size_t>(i), static_cast<size_t>(j), static_cast<size_t>(k)) =
        static_cast<double>(i * 10000 + j * 100 + k);
  }
};

struct SumRange {
  void operator()(long long i, double& acc) const { acc += static_cast<double>(i); }
};

struct MinElem {
  kxx::View<double, 1> v;
  void operator()(long long i, double& acc) const {
    acc = std::min(acc, v(static_cast<size_t>(i)));
  }
};

struct Sum2D {
  void operator()(long long i, long long j, double& acc) const {
    acc += static_cast<double>(i + j);
  }
};

struct Sum3D {
  void operator()(long long i, long long j, long long k, double& acc) const {
    acc += static_cast<double>(i * j + k);
  }
};

struct NeverRegistered {
  void operator()(long long) const {}
};

}  // namespace

KXX_REGISTER_FOR_1D(test_axpy, FunctorAXPY<double>);
KXX_REGISTER_FOR_2D(test_fill2d, Fill2D);
KXX_REGISTER_FOR_3D(test_fill3d, Fill3D);
KXX_REGISTER_REDUCE_1D(test_sum_range, SumRange, kxx::SumOp<double>);
KXX_REGISTER_REDUCE_1D(test_min_elem, MinElem, kxx::MinOp<double>);
KXX_REGISTER_REDUCE_2D(test_sum2d, Sum2D, kxx::SumOp<double>);
KXX_REGISTER_REDUCE_3D(test_sum3d, Sum3D, kxx::SumOp<double>);

class BackendTest : public ::testing::TestWithParam<kxx::Backend> {
 protected:
  void SetUp() override {
    kxx::InitConfig cfg;
    cfg.backend = GetParam();
    cfg.num_threads = 3;  // deliberately odd to exercise uneven chunks
    kxx::initialize(cfg);
  }
};

TEST_P(BackendTest, AxpyMatchesReference) {
  const size_t n = 1003;
  kxx::View<double, 1> x("x", n), y("y", n);
  for (size_t i = 0; i < n; ++i) {
    x(i) = static_cast<double>(i);
    y(i) = 1.0;
  }
  kxx::parallel_for("axpy", static_cast<long long>(n), FunctorAXPY<double>(2.0, x, y));
  for (size_t i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(y(i), 2.0 * static_cast<double>(i) + 1.0);
}

TEST_P(BackendTest, RangePolicyWithOffsetBegin) {
  const size_t n = 100;
  kxx::View<double, 1> x("x", n), y("y", n);
  kxx::parallel_for("axpy", kxx::RangePolicy(10, 20), FunctorAXPY<double>(1.0, x, y));
  // Only [10, 20) touched (x is zero, so y stays 0 there but was written).
  for (size_t i = 0; i < n; ++i) EXPECT_DOUBLE_EQ(y(i), 0.0);
}

TEST_P(BackendTest, MDRange2DCoversEveryIndexOnce) {
  kxx::View<double, 2> v("v", 13, 7);
  kxx::parallel_for("fill2d", kxx::MDRangePolicy2({0, 0}, {13, 7}), Fill2D{v});
  for (size_t i = 0; i < 13; ++i)
    for (size_t j = 0; j < 7; ++j)
      ASSERT_DOUBLE_EQ(v(i, j), 100.0 * static_cast<double>(i) + static_cast<double>(j));
}

TEST_P(BackendTest, MDRange3DCoversEveryIndexOnce) {
  kxx::View<double, 3> v("v", 5, 9, 11);
  kxx::parallel_for("fill3d", kxx::MDRangePolicy3({0, 0, 0}, {5, 9, 11}), Fill3D{v});
  for (size_t i = 0; i < 5; ++i)
    for (size_t j = 0; j < 9; ++j)
      for (size_t k = 0; k < 11; ++k)
        ASSERT_DOUBLE_EQ(v(i, j, k), static_cast<double>(i * 10000 + j * 100 + k));
}

TEST_P(BackendTest, ReduceSumOverRange) {
  double sum = -1.0;
  kxx::parallel_reduce("sum", kxx::RangePolicy(0, 1000), SumRange{}, kxx::Sum<double>(sum));
  EXPECT_DOUBLE_EQ(sum, 999.0 * 1000.0 / 2.0);
}

TEST_P(BackendTest, ReduceMin) {
  const size_t n = 777;
  kxx::View<double, 1> v("v", n);
  for (size_t i = 0; i < n; ++i) v(i) = 100.0 - 0.1 * static_cast<double>((i * 37) % 991);
  double expected = 1e30;
  for (size_t i = 0; i < n; ++i) expected = std::min(expected, v(i));
  double got = 0.0;
  kxx::parallel_reduce("min", kxx::RangePolicy(0, static_cast<long long>(n)), MinElem{v},
                       kxx::Min<double>(got));
  EXPECT_DOUBLE_EQ(got, expected);
}

TEST_P(BackendTest, Reduce2DAnd3D) {
  double s2 = 0.0;
  kxx::parallel_reduce("sum2d", kxx::MDRangePolicy2({0, 0}, {20, 30}), Sum2D{},
                       kxx::Sum<double>(s2));
  double expect2 = 0.0;
  for (int i = 0; i < 20; ++i)
    for (int j = 0; j < 30; ++j) expect2 += i + j;
  EXPECT_DOUBLE_EQ(s2, expect2);

  double s3 = 0.0;
  kxx::parallel_reduce("sum3d", kxx::MDRangePolicy3({0, 0, 0}, {4, 5, 6}), Sum3D{},
                       kxx::Sum<double>(s3));
  double expect3 = 0.0;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 5; ++j)
      for (int k = 0; k < 6; ++k) expect3 += i * j + k;
  EXPECT_DOUBLE_EQ(s3, expect3);
}

TEST_P(BackendTest, EmptyRangeIsANoop) {
  kxx::View<double, 1> x("x", 4), y("y", 4);
  EXPECT_NO_THROW(
      kxx::parallel_for("axpy", kxx::RangePolicy(5, 5), FunctorAXPY<double>(1.0, x, y)));
  double sum = 123.0;
  kxx::parallel_reduce("sum", kxx::RangePolicy(3, 3), SumRange{}, kxx::Sum<double>(sum));
  EXPECT_DOUBLE_EQ(sum, 0.0);  // identity
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendTest,
                         ::testing::Values(kxx::Backend::Serial, kxx::Backend::Threads,
                                           kxx::Backend::AthreadSim),
                         [](const auto& info) { return kxx::backend_name(info.param); });

TEST(KxxView, LayoutRightStrides) {
  kxx::View<double, 3> v("v", 4, 5, 6);
  EXPECT_EQ(v.stride(0), 30u);
  EXPECT_EQ(v.stride(1), 6u);
  EXPECT_EQ(v.stride(2), 1u);
  EXPECT_EQ(v.size(), 120u);
}

TEST(KxxView, LayoutLeftStrides) {
  kxx::View<double, 3, kxx::Layout::Left> v("v", 4, 5, 6);
  EXPECT_EQ(v.stride(0), 1u);
  EXPECT_EQ(v.stride(1), 4u);
  EXPECT_EQ(v.stride(2), 20u);
}

TEST(KxxView, ShallowCopySharesAllocation) {
  kxx::View<double, 1> a("a", 10);
  kxx::View<double, 1> b = a;
  b(3) = 42.0;
  EXPECT_DOUBLE_EQ(a(3), 42.0);
  EXPECT_TRUE(a.is_same_allocation(b));
}

TEST(KxxView, DeepCopyAcrossLayouts) {
  kxx::View<double, 2> right("r", 3, 4);
  kxx::View<double, 2, kxx::Layout::Left> left("l", 3, 4);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j) right(i, j) = static_cast<double>(10 * i + j);
  kxx::deep_copy(left, right);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 4; ++j) EXPECT_DOUBLE_EQ(left(i, j), right(i, j));
  // Memory order differs even though logical content matches.
  EXPECT_DOUBLE_EQ(left.data()[1], right(1, 0));
}

TEST(KxxView, ZeroInitialized) {
  kxx::View<double, 2> v("v", 7, 7);
  double sum = 0.0;
  for (size_t i = 0; i < v.size(); ++i) sum += v.data()[i];
  EXPECT_DOUBLE_EQ(sum, 0.0);
}

TEST(KxxRegistry, RegisteredKernelsFound) {
  auto& reg = kxx::detail::FunctorRegistry::instance();
  EXPECT_NE(reg.lookup(std::type_index(typeid(FunctorAXPY<double>)), kxx::KernelKind::For1D),
            nullptr);
  EXPECT_NE(reg.lookup(std::type_index(typeid(Fill3D)), kxx::KernelKind::For3D), nullptr);
  // Registered for 1D-for, not 2D-for.
  EXPECT_EQ(reg.lookup(std::type_index(typeid(FunctorAXPY<double>)), kxx::KernelKind::For2D),
            nullptr);
}

TEST(KxxRegistry, LinkedListAndHashAgree) {
  auto& reg = kxx::detail::FunctorRegistry::instance();
  for (const auto* node = reg.head(); node != nullptr; node = node->next) {
    EXPECT_EQ(reg.lookup_hashed(node->functor_type, node->kind), node);
  }
}

TEST(KxxRegistry, LookupStatsCountWalks) {
  auto& reg = kxx::detail::FunctorRegistry::instance();
  reg.reset_stats();
  reg.lookup(std::type_index(typeid(NeverRegistered)), kxx::KernelKind::For1D);
  EXPECT_EQ(reg.stats().lookups, 1u);
  EXPECT_EQ(reg.stats().misses, 1u);
  EXPECT_EQ(reg.stats().nodes_visited, reg.size());
}

TEST(KxxAthread, StrictModeThrowsForUnregistered) {
  kxx::initialize({kxx::Backend::AthreadSim, 1, /*athread_strict=*/true});
  kxx::View<double, 1> dummy("d", 4);
  EXPECT_THROW(kxx::parallel_for("unreg", 4LL, NeverRegistered{}), kxx::KernelNotRegistered);
  kxx::set_athread_strict(false);
}

TEST(KxxAthread, PermissiveModeFallsBackToMpe) {
  kxx::initialize({kxx::Backend::AthreadSim, 1, /*athread_strict=*/false});
  kxx::reset_athread_fallback_count();
  kxx::parallel_for("unreg", 4LL, NeverRegistered{});
  EXPECT_EQ(kxx::athread_fallback_count(), 1);
}

TEST(KxxAthread, TileAssignmentMatchesPaperEquations) {
  // Eq. (1): total_tile = prod ceil(len/tile); Eq. (2): per CPE = ceil(total/64).
  kxx::detail::CpeLaunch d;
  d.num_dims = 2;
  d.begin[0] = 0; d.end[0] = 100; d.tile[0] = 8;   // 13 tiles
  d.begin[1] = 0; d.end[1] = 50;  d.tile[1] = 16;  // 4 tiles
  auto a0 = kxx::detail::assign_tiles(d, 0, 64);
  EXPECT_EQ(a0.total_tiles, 52);
  EXPECT_EQ(a0.last_tile - a0.first_tile, 1);  // ceil(52/64) = 1
  // Last CPEs get nothing once tiles are exhausted.
  auto a63 = kxx::detail::assign_tiles(d, 63, 64);
  EXPECT_EQ(a63.first_tile, a63.last_tile);
  // Coverage: the union of all CPE ranges is exactly [0, total).
  long long covered = 0;
  for (int cpe = 0; cpe < 64; ++cpe) {
    auto a = kxx::detail::assign_tiles(d, cpe, 64);
    covered += a.last_tile - a.first_tile;
  }
  EXPECT_EQ(covered, 52);
}

TEST(KxxAthread, TileAssignmentEmptyRangeGivesNoTiles) {
  kxx::detail::CpeLaunch d;
  d.num_dims = 3;
  d.begin[0] = 0; d.end[0] = 5; d.tile[0] = 2;
  d.begin[1] = 3; d.end[1] = 3; d.tile[1] = 4;  // empty middle dimension
  d.begin[2] = 0; d.end[2] = 7; d.tile[2] = 3;
  for (int cpe = 0; cpe < 64; ++cpe) {
    auto a = kxx::detail::assign_tiles(d, cpe, 64);
    EXPECT_EQ(a.total_tiles, 0);
    EXPECT_EQ(a.first_tile, a.last_tile);
  }
}

TEST(KxxAthread, FewerTilesThanCpesLeavesTrailingCpesIdle) {
  kxx::detail::CpeLaunch d;
  d.num_dims = 1;
  d.begin[0] = 0; d.end[0] = 10; d.tile[0] = 4;  // 3 tiles for 64 CPEs
  long long covered = 0;
  for (int cpe = 0; cpe < 64; ++cpe) {
    auto a = kxx::detail::assign_tiles(d, cpe, 64);
    EXPECT_EQ(a.total_tiles, 3);
    long long owned = a.last_tile - a.first_tile;
    if (cpe < 3) {
      EXPECT_EQ(owned, 1) << "cpe " << cpe;
    } else {
      EXPECT_EQ(owned, 0) << "cpe " << cpe;
    }
    covered += owned;
  }
  EXPECT_EQ(covered, 3);
}

TEST(KxxAthread, RemainderTileIsClampedToRangeEnd) {
  kxx::detail::CpeLaunch d;
  d.num_dims = 3;
  d.begin[0] = 0; d.end[0] = 5;  d.tile[0] = 2;  // 3 tiles, last has extent 1
  d.begin[1] = 2; d.end[1] = 9;  d.tile[1] = 3;  // 3 tiles, last has extent 1
  d.begin[2] = 1; d.end[2] = 12; d.tile[2] = 4;  // 3 tiles, last has extent 3
  auto a = kxx::detail::assign_tiles(d, 0, 1);
  ASSERT_EQ(a.total_tiles, 27);
  long long lo[3];
  long long hi[3];
  kxx::detail::tile_bounds(d, a, a.total_tiles - 1, lo, hi);  // corner tile
  EXPECT_EQ(lo[0], 4); EXPECT_EQ(hi[0], 5);
  EXPECT_EQ(lo[1], 8); EXPECT_EQ(hi[1], 9);
  EXPECT_EQ(lo[2], 9); EXPECT_EQ(hi[2], 12);
}

TEST(KxxAthread, TileIterationCoversEveryIndexExactlyOnce) {
  // Non-dividing tiles in every dimension, offset begins: the union of all
  // CPEs' tile iterations must visit each index of the box exactly once.
  kxx::detail::CpeLaunch d;
  d.num_dims = 3;
  d.begin[0] = 1; d.end[0] = 6;  d.tile[0] = 2;
  d.begin[1] = 0; d.end[1] = 11; d.tile[1] = 4;
  d.begin[2] = 3; d.end[2] = 20; d.tile[2] = 5;
  const long long n0 = 5, n1 = 11, n2 = 17;
  std::vector<int> visits(static_cast<size_t>(n0 * n1 * n2), 0);
  for (int cpe = 0; cpe < 64; ++cpe) {
    auto a = kxx::detail::assign_tiles(d, cpe, 64);
    for (long long t = a.first_tile; t < a.last_tile; ++t) {
      kxx::detail::for_each_index_in_tile(
          d, a, t, [&](long long i0, long long i1, long long i2) {
            ASSERT_TRUE(i0 >= 1 && i0 < 6 && i1 >= 0 && i1 < 11 && i2 >= 3 && i2 < 20);
            ++visits[static_cast<size_t>((i0 - 1) * n1 * n2 + i1 * n2 + (i2 - 3))];
          });
    }
  }
  for (int v : visits) ASSERT_EQ(v, 1);
}

TEST(KxxAthread, ReduceOpMismatchRejected) {
  kxx::initialize({kxx::Backend::AthreadSim, 1, /*athread_strict=*/true});
  double out = 0.0;
  // SumRange is registered with SumOp; launching with Max must be rejected.
  EXPECT_THROW(kxx::parallel_reduce("sum", kxx::RangePolicy(0, 10), SumRange{},
                                    kxx::Max<double>(out)),
               licomk::Error);
  kxx::set_athread_strict(false);
}

TEST(KxxScan, InclusiveScanTotal) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  std::vector<double> prefix(10, 0.0);
  double total = 0.0;
  kxx::parallel_scan(
      "scan", kxx::RangePolicy(0, 10),
      [&](long long i, double& update, bool final) {
        update += static_cast<double>(i + 1);
        if (final) prefix[static_cast<size_t>(i)] = update;
      },
      total);
  EXPECT_DOUBLE_EQ(total, 55.0);
  EXPECT_DOUBLE_EQ(prefix[0], 1.0);
  EXPECT_DOUBLE_EQ(prefix[9], 55.0);
}

TEST(KxxBackends, AllBackendsProduceIdenticalResults) {
  const size_t n = 501;
  std::vector<std::vector<double>> results;
  for (auto backend :
       {kxx::Backend::Serial, kxx::Backend::Threads, kxx::Backend::AthreadSim}) {
    kxx::initialize({backend, 4, false});
    kxx::View<double, 1> x("x", n), y("y", n);
    for (size_t i = 0; i < n; ++i) {
      x(i) = std::sin(static_cast<double>(i));
      y(i) = std::cos(static_cast<double>(i));
    }
    kxx::parallel_for("axpy", static_cast<long long>(n), FunctorAXPY<double>(1.7, x, y));
    std::vector<double> r(n);
    for (size_t i = 0; i < n; ++i) r[i] = y(i);
    results.push_back(std::move(r));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

namespace {
struct StencilWrite1D {
  kxx::View<double, 1> in, out;
  void operator()(long long i) const {
    out(static_cast<size_t>(i)) = 2.0 * in(static_cast<size_t>(i)) + static_cast<double>(i);
  }
};

struct StencilWrite2D {
  kxx::View<double, 2> in, out;
  void operator()(long long j, long long i) const {
    out(static_cast<size_t>(j), static_cast<size_t>(i)) =
        2.0 * in(static_cast<size_t>(j), static_cast<size_t>(i)) + static_cast<double>(i - j);
  }
};

struct StencilWrite {
  kxx::View<double, 3> in, out;
  void operator()(long long k, long long j, long long i) const {
    out(static_cast<size_t>(k), static_cast<size_t>(j), static_cast<size_t>(i)) =
        2.0 * in(static_cast<size_t>(k), static_cast<size_t>(j), static_cast<size_t>(i)) +
        static_cast<double>(k - j + i);
  }
};

struct SumIn1D {
  kxx::View<double, 1> in;
  void operator()(long long i, double& acc) const { acc += in(static_cast<size_t>(i)); }
};

struct SumIn2D {
  kxx::View<double, 2> in;
  void operator()(long long j, long long i, double& acc) const {
    acc += in(static_cast<size_t>(j), static_cast<size_t>(i));
  }
};

struct SumIn3D {
  kxx::View<double, 3> in;
  void operator()(long long k, long long j, long long i, double& acc) const {
    acc += in(static_cast<size_t>(k), static_cast<size_t>(j), static_cast<size_t>(i));
  }
};

/// Dyadic fill (multiples of 1/4 below 25): every partial sum of these values
/// is exact, so a Sum reduction gives the same bits in any join order and
/// cross-backend equality tests only the index coverage.
template <typename V>
void fill_dyadic(const V& v) {
  for (size_t n = 0; n < v.size(); ++n) v.data()[n] = 0.25 * static_cast<double>(n % 97);
}
}  // namespace

KXX_REGISTER_FOR_1D(test_stencil_write1d, StencilWrite1D);
KXX_REGISTER_FOR_2D(test_stencil_write2d, StencilWrite2D);
KXX_REGISTER_FOR_3D(test_stencil_write, StencilWrite);
KXX_REGISTER_REDUCE_1D(test_sum_in1d, SumIn1D, kxx::SumOp<double>);
KXX_REGISTER_REDUCE_2D(test_sum_in2d, SumIn2D, kxx::SumOp<double>);
KXX_REGISTER_REDUCE_3D(test_sum_in3d, SumIn3D, kxx::SumOp<double>);

class BackendSweep : public ::testing::TestWithParam<int> {};

TEST_P(BackendSweep, RandomShapesAgreeAcrossBackends) {
  // Property sweep: pseudo-random iteration shapes and tile sizes at every
  // policy rank must give identical parallel_for outputs and Sum reductions
  // on Serial, Threads and strict AthreadSim (tile decomposition covers
  // exactly the policy's index set, no index twice).
  unsigned seed = static_cast<unsigned>(GetParam());
  auto rnd = [&seed](int lo, int hi) {
    seed = seed * 1664525u + 1013904223u;
    return lo + static_cast<int>(seed % static_cast<unsigned>(hi - lo + 1));
  };
  const int nk = rnd(1, 7), nj = rnd(1, 23), ni = rnd(1, 47);
  kxx::MDRangePolicy3 policy3({0, 0, 0}, {nk, nj, ni},
                              {rnd(1, 4), rnd(1, 8), rnd(1, 16)});
  const int n2j = rnd(1, 31), n2i = rnd(1, 61);
  kxx::MDRangePolicy2 policy2({0, 0}, {n2j, n2i}, {rnd(1, 8), rnd(1, 16)});
  const int n1 = rnd(1, 997);
  kxx::RangePolicy policy1(0, n1, rnd(1, 64));
  const auto z = [](int n) { return static_cast<size_t>(n); };
  kxx::View<double, 1> in1("in1", z(n1));
  kxx::View<double, 2> in2("in2", z(n2j), z(n2i));
  kxx::View<double, 3> in3("in3", z(nk), z(nj), z(ni));
  fill_dyadic(in1);
  fill_dyadic(in2);
  fill_dyadic(in3);

  struct Result {
    std::vector<double> out1, out2, out3;
    double sum1 = 0.0, sum2 = 0.0, sum3 = 0.0;
  };
  std::vector<Result> results;
  for (auto backend :
       {kxx::Backend::Serial, kxx::Backend::Threads, kxx::Backend::AthreadSim}) {
    kxx::initialize({backend, 3, backend == kxx::Backend::AthreadSim});
    kxx::View<double, 1> out1("out1", z(n1));
    kxx::View<double, 2> out2("out2", z(n2j), z(n2i));
    kxx::View<double, 3> out3("out3", z(nk), z(nj), z(ni));
    kxx::parallel_for("stencil1d", policy1, StencilWrite1D{in1, out1});
    kxx::parallel_for("stencil2d", policy2, StencilWrite2D{in2, out2});
    kxx::parallel_for("stencil", policy3, StencilWrite{in3, out3});
    Result r;
    kxx::parallel_reduce("sum1d", policy1, SumIn1D{in1}, kxx::Sum<double>(r.sum1));
    kxx::parallel_reduce("sum2d", policy2, SumIn2D{in2}, kxx::Sum<double>(r.sum2));
    kxx::parallel_reduce("sum3d", policy3, SumIn3D{in3}, kxx::Sum<double>(r.sum3));
    r.out1.assign(out1.data(), out1.data() + out1.size());
    r.out2.assign(out2.data(), out2.data() + out2.size());
    r.out3.assign(out3.data(), out3.data() + out3.size());
    results.push_back(std::move(r));
  }
  kxx::set_athread_strict(false);
  double expect1 = 0.0;
  for (size_t n = 0; n < in1.size(); ++n) expect1 += in1.data()[n];
  EXPECT_EQ(results[0].sum1, expect1);
  for (size_t b = 1; b < results.size(); ++b) {
    SCOPED_TRACE("backend #" + std::to_string(b) + ", shapes " + std::to_string(n1) + " | " +
                 std::to_string(n2j) + "x" + std::to_string(n2i) + " | " + std::to_string(nk) +
                 "x" + std::to_string(nj) + "x" + std::to_string(ni));
    EXPECT_EQ(results[0].out1, results[b].out1);
    EXPECT_EQ(results[0].out2, results[b].out2);
    EXPECT_EQ(results[0].out3, results[b].out3);
    EXPECT_EQ(results[0].sum1, results[b].sum1);
    EXPECT_EQ(results[0].sum2, results[b].sum2);
    EXPECT_EQ(results[0].sum3, results[b].sum3);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, BackendSweep, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Unregistered functors at every rank and kind: permissive AthreadSim runs
// them on the MPE (correct result, one fallback counted per dispatch); strict
// AthreadSim throws KernelNotRegistered naming the kernel kind.
// ---------------------------------------------------------------------------

namespace {

struct CountFor1D {
  kxx::View<double, 1> hits;
  void operator()(long long i) const { hits(static_cast<size_t>(i)) += 1.0; }
};

struct CountFor2D {
  kxx::View<double, 2> hits;
  void operator()(long long j, long long i) const {
    hits(static_cast<size_t>(j), static_cast<size_t>(i)) += 1.0;
  }
};

struct CountFor3D {
  kxx::View<double, 3> hits;
  void operator()(long long k, long long j, long long i) const {
    hits(static_cast<size_t>(k), static_cast<size_t>(j), static_cast<size_t>(i)) += 1.0;
  }
};

struct CountReduce1D {
  void operator()(long long, double& acc) const { acc += 1.0; }
};

struct CountReduce2D {
  void operator()(long long, long long, double& acc) const { acc += 1.0; }
};

struct CountReduce3D {
  void operator()(long long, long long, long long, double& acc) const { acc += 1.0; }
};

template <typename V>
double total(const V& v) {
  double s = 0.0;
  for (size_t n = 0; n < v.size(); ++n) s += v.data()[n];
  return s;
}

/// One row of the table: the kind name KernelNotRegistered must carry, the
/// extent of the dispatch, and a dispatch returning how many index visits it
/// made (each index must be visited exactly once).
struct UnregisteredCase {
  const char* kind;
  double extent;
  double (*run)();
};

const UnregisteredCase kUnregisteredCases[] = {
    {"For1D", 5.0,
     [] {
       kxx::View<double, 1> v("v", 5);
       kxx::parallel_for("unreg_for1d", kxx::RangePolicy(0, 5), CountFor1D{v});
       return total(v);
     }},
    {"For2D", 12.0,
     [] {
       kxx::View<double, 2> v("v", 3, 4);
       kxx::parallel_for("unreg_for2d", kxx::MDRangePolicy2({0, 0}, {3, 4}), CountFor2D{v});
       return total(v);
     }},
    {"For3D", 24.0,
     [] {
       kxx::View<double, 3> v("v", 2, 3, 4);
       kxx::parallel_for("unreg_for3d", kxx::MDRangePolicy3({0, 0, 0}, {2, 3, 4}),
                         CountFor3D{v});
       return total(v);
     }},
    {"Reduce1D", 5.0,
     [] {
       double s = 0.0;
       kxx::parallel_reduce("unreg_reduce1d", kxx::RangePolicy(0, 5), CountReduce1D{},
                            kxx::Sum<double>(s));
       return s;
     }},
    {"Reduce2D", 12.0,
     [] {
       double s = 0.0;
       kxx::parallel_reduce("unreg_reduce2d", kxx::MDRangePolicy2({0, 0}, {3, 4}),
                            CountReduce2D{}, kxx::Sum<double>(s));
       return s;
     }},
    {"Reduce3D", 24.0,
     [] {
       double s = 0.0;
       kxx::parallel_reduce("unreg_reduce3d", kxx::MDRangePolicy3({0, 0, 0}, {2, 3, 4}),
                            CountReduce3D{}, kxx::Sum<double>(s));
       return s;
     }},
};

}  // namespace

class UnregisteredKernel : public ::testing::TestWithParam<UnregisteredCase> {};

TEST_P(UnregisteredKernel, PermissiveFallsBackAndCounts) {
  const UnregisteredCase& c = GetParam();
  kxx::initialize({kxx::Backend::AthreadSim, 1, /*athread_strict=*/false});
  const long long before = kxx::athread_fallback_count();
  EXPECT_EQ(c.run(), c.extent);
  EXPECT_EQ(kxx::athread_fallback_count(), before + 1);
}

TEST_P(UnregisteredKernel, StrictThrowsNamingTheKind) {
  const UnregisteredCase& c = GetParam();
  kxx::initialize({kxx::Backend::AthreadSim, 1, /*athread_strict=*/true});
  const long long before = kxx::athread_fallback_count();
  try {
    c.run();
    ADD_FAILURE() << "no KernelNotRegistered for " << c.kind;
  } catch (const kxx::KernelNotRegistered& e) {
    EXPECT_NE(std::string(e.what()).find(std::string("(") + c.kind + ")"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(kxx::athread_fallback_count(), before);
  kxx::set_athread_strict(false);
}

INSTANTIATE_TEST_SUITE_P(RankByKind, UnregisteredKernel, ::testing::ValuesIn(kUnregisteredCases),
                         [](const auto& info) { return std::string(info.param.kind); });
