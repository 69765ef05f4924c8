// Tests for the halo exchange engine: the box table's geometry invariants,
// periodic wrap, tripolar fold (with velocity sign flip), 3-D methods
// (horizontal-major vs Fig. 5 transpose), multi-rank consistency, redundancy
// elimination, and the transpose operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "halo/box_copy.hpp"
#include "halo/halo_exchange.hpp"
#include "halo/transpose.hpp"
#include "kxx/kxx.hpp"
#include "kxx_env.hpp"
#include "resilience/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace lh = licomk::halo;
namespace ld = licomk::decomp;
namespace lc = licomk::comm;
namespace kxx = licomk::kxx;

namespace {

constexpr int kH = ld::kHaloWidth;

/// Unique value per (global k, j, i).
double cell_value(int k, int j, int i) {
  return 1000.0 * k + 10.0 * j + 0.001 * i + 1.0;
}

/// What a ghost/interior local cell must hold after a halo update, given the
/// same connectivity the model's LocalGrid uses: periodic wrap in i, tripolar
/// fold at the top (value times `sign`), zero beyond the closed south (and
/// north when not tripolar).
double expected_value(const ld::Decomposition& d, const ld::BlockExtent& e, int k, int lj,
                      int li, double sign) {
  int gj = e.j0 + (lj - kH);
  int gi = e.i0 + (li - kH);
  gi = (gi % d.nx() + d.nx()) % d.nx();
  double s = 1.0;
  if (gj < 0) return 0.0;
  if (gj >= d.ny()) {
    if (!d.tripolar()) return 0.0;
    int fold_d = gj - (d.ny() - 1);
    gj = d.ny() - fold_d;
    gi = d.nx() - 1 - gi;
    s = sign;
  }
  return s * cell_value(k, gj, gi);
}

/// Fill the interior of a field with cell_value and exchange.
void fill_interior_3d(lh::BlockField3D& f) {
  const auto& e = f.extent();
  for (int k = 0; k < f.nz(); ++k)
    for (int j = 0; j < f.ny(); ++j)
      for (int i = 0; i < f.nx(); ++i)
        f.at(k, j + kH, i + kH) = cell_value(k, e.j0 + j, e.i0 + i);
  f.mark_dirty();
}

void check_all_cells_3d(const ld::Decomposition& d, const lh::BlockField3D& f, double sign,
                        int rank) {
  const auto& e = f.extent();
  for (int k = 0; k < f.nz(); ++k) {
    for (int lj = 0; lj < f.ny_total(); ++lj) {
      for (int li = 0; li < f.nx_total(); ++li) {
        double want = expected_value(d, e, k, lj, li, sign);
        ASSERT_DOUBLE_EQ(f.at(k, lj, li), want)
            << "rank " << rank << " k=" << k << " lj=" << lj << " li=" << li;
      }
    }
  }
}

void run_exchange_case(int nx, int ny, int px, int py, lh::FoldSign sign,
                       lh::Halo3DMethod method, int nz) {
  ld::Decomposition d(nx, ny, px, py);
  lc::Runtime::run(d.nranks(), [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::BlockField3D f("f", d.block(c.rank()), nz);
    fill_interior_3d(f);
    ex.update(f, sign, method);
    check_all_cells_3d(d, f, sign == lh::FoldSign::Symmetric ? 1.0 : -1.0, c.rank());
  });
}

/// The box table of every rank of `d`: within a phase the receive and zero
/// boxes are pairwise disjoint ghost boxes, and the two phases together cover
/// every ghost cell of the halo ring; the send entries are the per-field
/// message count; each peer's sends (and receives) of a phase form one run,
/// the slice a fused message is planned from; and what rank a sends to rank
/// b in a phase is, in order, tag and shape, what b receives from a (so a
/// fused message needs no header).
void check_box_table(const ld::Decomposition& d) {
  lc::World world(d.nranks());
  std::vector<std::unique_ptr<lh::HaloExchanger>> ex;
  for (int r = 0; r < d.nranks(); ++r) {
    ex.push_back(std::make_unique<lh::HaloExchanger>(d, world.communicator(r), r));
  }
  for (int r = 0; r < d.nranks(); ++r) {
    const lh::BoxTable& table = ex[r]->box_table();
    const ld::BlockExtent e = d.block(r);
    const int nxt = e.nx() + 2 * kH;
    const int nyt = e.ny() + 2 * kH;
    auto ghost = [&](int j, int i) {
      return j < kH || j >= kH + e.ny() || i < kH || i >= kH + e.nx();
    };
    EXPECT_EQ(static_cast<int>(table[0].sends.size() + table[1].sends.size()),
              ex[r]->full_message_count());
    std::vector<int> covered(static_cast<std::size_t>(nxt * nyt), 0);
    for (std::size_t phase = 0; phase < table.size(); ++phase) {
      for (const std::vector<lh::BoxLink>* links : {&table[phase].sends, &table[phase].recvs}) {
        for (std::size_t k = 1; k < links->size(); ++k) {
          for (std::size_t m = 0; m + 1 < k; ++m) {
            EXPECT_FALSE((*links)[m].peer == (*links)[k].peer &&
                         (*links)[k - 1].peer != (*links)[k].peer)
                << "rank " << r << " phase " << phase << ": peer " << (*links)[k].peer
                << " in two runs";
          }
        }
      }
      std::vector<int> hits(covered.size(), 0);
      std::vector<lh::HaloBox> boxes = table[phase].zeros;
      for (const lh::BoxLink& l : table[phase].recvs) boxes.push_back(l.box);
      for (const lh::HaloBox& b : boxes) {
        for (int j = b.j0; j < b.j0 + b.nj; ++j) {
          for (int i = b.i0; i < b.i0 + b.ni; ++i) {
            ASSERT_TRUE(j >= 0 && j < nyt && i >= 0 && i < nxt && ghost(j, i))
                << "rank " << r << " phase " << phase << " j=" << j << " i=" << i;
            const std::size_t n = static_cast<std::size_t>(j * nxt + i);
            ASSERT_EQ(++hits[n], 1) << "rank " << r << " phase " << phase << " j=" << j
                                    << " i=" << i << " written twice";
            covered[n] += 1;
          }
        }
      }
    }
    for (int j = 0; j < nyt; ++j) {
      for (int i = 0; i < nxt; ++i) {
        if (ghost(j, i)) {
          EXPECT_GE(covered[static_cast<std::size_t>(j * nxt + i)], 1)
              << "rank " << r << " ghost j=" << j << " i=" << i << " never written";
        }
      }
    }
  }
  for (int a = 0; a < d.nranks(); ++a) {
    for (int b = 0; b < d.nranks(); ++b) {
      for (std::size_t phase = 0; phase < 2; ++phase) {
        std::vector<lh::BoxLink> sent, got;
        for (const lh::BoxLink& l : ex[a]->box_table()[phase].sends) {
          if (l.peer == b) sent.push_back(l);
        }
        for (const lh::BoxLink& l : ex[b]->box_table()[phase].recvs) {
          if (l.peer == a) got.push_back(l);
        }
        ASSERT_EQ(sent.size(), got.size()) << a << " -> " << b << " phase " << phase;
        for (std::size_t k = 0; k < sent.size(); ++k) {
          EXPECT_EQ(sent[k].tag, got[k].tag) << a << " -> " << b << " #" << k;
          EXPECT_EQ(sent[k].fold, got[k].fold) << a << " -> " << b << " #" << k;
          EXPECT_EQ(sent[k].box.nj, got[k].box.nj) << a << " -> " << b << " #" << k;
          EXPECT_EQ(sent[k].box.ni, got[k].box.ni) << a << " -> " << b << " #" << k;
        }
      }
    }
  }
}

}  // namespace

class HaloLayouts
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(HaloLayouts, BoxTableInvariants) {
  auto [nx, ny, px, py] = GetParam();
  check_box_table(ld::Decomposition(nx, ny, px, py));
}

TEST_P(HaloLayouts, Symmetric3DTransposeMethod) {
  auto [nx, ny, px, py] = GetParam();
  run_exchange_case(nx, ny, px, py, lh::FoldSign::Symmetric,
                    lh::Halo3DMethod::TransposeVerticalMajor, 5);
}

TEST_P(HaloLayouts, Symmetric3DHorizontalMajorMethod) {
  auto [nx, ny, px, py] = GetParam();
  run_exchange_case(nx, ny, px, py, lh::FoldSign::Symmetric,
                    lh::Halo3DMethod::HorizontalMajor, 5);
}

TEST_P(HaloLayouts, Antisymmetric3D) {
  auto [nx, ny, px, py] = GetParam();
  run_exchange_case(nx, ny, px, py, lh::FoldSign::Antisymmetric,
                    lh::Halo3DMethod::TransposeVerticalMajor, 3);
}

namespace {
std::string layout_name(const ::testing::TestParamInfo<std::tuple<int, int, int, int>>& info) {
  int nx = std::get<0>(info.param);
  int ny = std::get<1>(info.param);
  int px = std::get<2>(info.param);
  int py = std::get<3>(info.param);
  return "g" + std::to_string(nx) + "x" + std::to_string(ny) + "p" + std::to_string(px) + "x" +
         std::to_string(py);
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Layouts, HaloLayouts,
                         ::testing::Values(std::make_tuple(16, 10, 1, 1),
                                           std::make_tuple(16, 10, 2, 1),
                                           std::make_tuple(16, 10, 4, 2),
                                           std::make_tuple(17, 11, 3, 2),
                                           std::make_tuple(16, 12, 2, 3)),
                         layout_name);

TEST(Halo, BoxTableInvariantsBeyondTheLayouts) {
  check_box_table(ld::Decomposition(16, 12, 1, 3));  // px == 1 tripolar: self fold + wrap
  check_box_table(ld::Decomposition(16, 10, 2, 2, /*periodic_x=*/true, /*tripolar=*/false));
  check_box_table(ld::Decomposition(16, 10, 3, 2, /*periodic_x=*/false, /*tripolar=*/false));
}

TEST(Halo, TwoDFieldExchange) {
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::BlockField2D f("f2", d.block(c.rank()));
    const auto& e = f.extent();
    for (int j = 0; j < f.ny(); ++j)
      for (int i = 0; i < f.nx(); ++i)
        f.at(j + kH, i + kH) = cell_value(0, e.j0 + j, e.i0 + i);
    f.mark_dirty();
    ex.update(f);
    for (int lj = 0; lj < f.ny_total(); ++lj)
      for (int li = 0; li < f.nx_total(); ++li)
        ASSERT_DOUBLE_EQ(f.at(lj, li), expected_value(d, e, 0, lj, li, 1.0));
  });
}

TEST(Halo, MethodsProduceIdenticalGhosts) {
  ld::Decomposition d(12, 8, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::BlockField3D a("a", d.block(c.rank()), 7);
    lh::BlockField3D b("b", d.block(c.rank()), 7);
    fill_interior_3d(a);
    fill_interior_3d(b);
    ex.update(a, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
    ex.update(b, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    for (int k = 0; k < 7; ++k)
      for (int lj = 0; lj < a.ny_total(); ++lj)
        for (int li = 0; li < a.nx_total(); ++li)
          ASSERT_DOUBLE_EQ(a.at(k, lj, li), b.at(k, lj, li));
  });
}

TEST(Halo, RedundantExchangeElided) {
  ld::Decomposition d(12, 8, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::BlockField3D f("f", d.block(0), 3);
    fill_interior_3d(f);
    ex.update(f);
    auto after_first = ex.stats().exchanges;
    ex.update(f);  // no mark_dirty since: must be skipped
    EXPECT_EQ(ex.stats().exchanges, after_first);
    EXPECT_EQ(ex.stats().skipped, 1u);
    f.mark_dirty();
    ex.update(f);
    EXPECT_EQ(ex.stats().exchanges, after_first + 1);
  });
}

TEST(Halo, RedundantEliminationCanBeDisabled) {
  ld::Decomposition d(12, 8, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    ex.set_eliminate_redundant(false);
    lh::BlockField3D f("f", d.block(0), 3);
    fill_interior_3d(f);
    ex.update(f);
    ex.update(f);
    EXPECT_EQ(ex.stats().exchanges, 2u);
    EXPECT_EQ(ex.stats().skipped, 0u);
  });
}

TEST(Halo, StatsCountMessagesAndBytes) {
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::BlockField3D f("f", d.block(c.rank()), 4);
    fill_interior_3d(f);
    ex.update(f);
    const auto& st = ex.stats();
    EXPECT_GE(st.messages, 3u);  // N-or-fold + E + W at least (no S on row 0)
    EXPECT_GT(st.bytes, 0u);
    EXPECT_GT(st.packed_elements, 0u);
    EXPECT_EQ(st.packed_elements, st.unpacked_elements);
    if (d.block(c.rank()).j1 == d.ny()) EXPECT_GE(st.fold_messages, 1u);
  });
}

TEST(Halo, MismatchedExtentRejected) {
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    int other = (c.rank() + 1) % 4;
    lh::BlockField3D wrong("w", d.block(other), 4);
    if (d.block(other).i0 != d.block(c.rank()).i0 ||
        d.block(other).j0 != d.block(c.rank()).j0) {
      EXPECT_THROW(ex.update(wrong), licomk::InvalidArgument);
    }
  });
}

TEST(Transpose, H2VRoundTripIsIdentity) {
  const long long nk = 9, nj = 4, ni = 6;
  std::vector<double> src(static_cast<size_t>(nk * nj * ni));
  for (size_t n = 0; n < src.size(); ++n) src[n] = static_cast<double>(n) * 1.5;
  std::vector<double> mid(src.size()), back(src.size());
  kxx::initialize({kxx::Backend::Serial, 1, false});
  lh::transpose_h2v(src.data(), mid.data(), nk, nj, ni);
  lh::transpose_v2h(mid.data(), back.data(), nk, nj, ni);
  EXPECT_EQ(src, back);
}

TEST(Transpose, H2VProducesVerticalMajorOrder) {
  const long long nk = 3, nj = 2, ni = 2;
  std::vector<double> src(static_cast<size_t>(nk * nj * ni));
  for (long long k = 0; k < nk; ++k)
    for (long long j = 0; j < nj; ++j)
      for (long long i = 0; i < ni; ++i)
        src[static_cast<size_t>(k * nj * ni + j * ni + i)] = cell_value(static_cast<int>(k),
                                                                        static_cast<int>(j),
                                                                        static_cast<int>(i));
  std::vector<double> dst(src.size());
  kxx::initialize({kxx::Backend::Serial, 1, false});
  lh::transpose_h2v(src.data(), dst.data(), nk, nj, ni);
  // dst[(j*ni + i)*nk + k] == src[k][j][i]: k is the fastest dimension.
  for (long long k = 0; k < nk; ++k)
    for (long long j = 0; j < nj; ++j)
      for (long long i = 0; i < ni; ++i)
        EXPECT_DOUBLE_EQ(dst[static_cast<size_t>((j * ni + i) * nk + k)],
                         cell_value(static_cast<int>(k), static_cast<int>(j),
                                    static_cast<int>(i)));
}

TEST(Transpose, WorksOnAthreadBackendViaRegistry) {
  kxx::initialize({kxx::Backend::AthreadSim, 1, /*athread_strict=*/true});
  const long long nk = 80, nj = 2, ni = 32;  // km-scale level count
  std::vector<double> src(static_cast<size_t>(nk * nj * ni));
  for (size_t n = 0; n < src.size(); ++n) src[n] = std::sin(static_cast<double>(n));
  std::vector<double> mid(src.size()), back(src.size());
  // BoxCopy is registered by the halo engine; strict mode proves it.
  lh::transpose_h2v(src.data(), mid.data(), nk, nj, ni);
  lh::transpose_v2h(mid.data(), back.data(), nk, nj, ni);
  EXPECT_EQ(src, back);
  kxx::initialize({kxx::Backend::Serial, 1, false});
}

/// One BoxCopy case: extents plus both sides' signed strides.
struct BoxCase {
  long long n0, n1, n2;
  long long ss0, ss1, ss2;
  long long ds0, ds1, ds2;
  double scale;
};

/// Lowest offset and span of a strided (n0, n1, n2) walk: negative strides
/// (the fold) start the walk above the buffer's first element.
std::pair<long long, long long> box_span(long long n0, long long n1, long long n2, long long s0,
                                         long long s1, long long s2) {
  long long lo = 0, hi = 0;
  for (long long s : {s0 * (n0 - 1), s1 * (n1 - 1), s2 * (n2 - 1)}) {
    lo += std::min(s, 0LL);
    hi += std::max(s, 0LL);
  }
  return {lo, hi - lo + 1};
}

TEST(BoxCopy, RowsMatchElementwiseOracle) {
  std::vector<BoxCase> cases;
  // Packed horizontal-major source into a padded destination, with unit
  // extents and a prime row length.
  for (auto [n0, n1, n2] : {std::tuple{1LL, 1LL, 1LL}, std::tuple{3LL, 1LL, 7LL},
                            std::tuple{1LL, 5LL, 1LL}, std::tuple{4LL, 3LL, 13LL},
                            std::tuple{2LL, 7LL, 11LL}}) {
    cases.push_back({n0, n1, n2, n1 * n2, n2, 1, n1 * (n2 + 3) + 2, n2 + 3, 1, 1.0});
    // scale = -1 (the antisymmetric fold's sign flip) on the same walk.
    cases.push_back({n0, n1, n2, n1 * n2, n2, 1, n1 * (n2 + 3) + 2, n2 + 3, 1, -1.0});
  }
  // Fold unpack: the destination walks backwards in both j and i.
  cases.push_back({3, 2, 13, 2 * 13, 13, 1, 40 * 20, -20, -1, -1.0});
  cases.push_back({1, 3, 5, 15, 5, 1, 0, -9, -1, 1.0});
  // Fig. 5 vertical-major buffers: k fastest on the destination (pack), and
  // on the source (unpack into a padded horizontal-major field).
  cases.push_back({5, 3, 7, 3 * 7, 7, 1, 1, 7 * 5, 5, 1.0});
  cases.push_back({5, 3, 7, 1, 7 * 5, 5, 9 * 12, 12, 1, 1.0});
  cases.push_back({80, 2, 11, 1, 11 * 80, 80, 4 * 16, -16, -1, -1.0});

  const kxx::InitConfig backends[] = {{kxx::Backend::Serial, 1, false},
                                      {kxx::Backend::Threads, 3, false},
                                      {kxx::Backend::AthreadSim, 1, /*athread_strict=*/true}};
  for (const kxx::InitConfig& cfg : backends) {
    kxx::initialize(cfg);
    for (size_t n = 0; n < cases.size(); ++n) {
      const BoxCase& c = cases[n];
      const auto [src_lo, src_len] = box_span(c.n0, c.n1, c.n2, c.ss0, c.ss1, c.ss2);
      const auto [dst_lo, dst_len] = box_span(c.n0, c.n1, c.n2, c.ds0, c.ds1, c.ds2);
      std::vector<double> src(static_cast<size_t>(src_len));
      for (size_t e = 0; e < src.size(); ++e)
        src[e] = e % 5 == 0 ? -0.0 : std::sin(1.0 + static_cast<double>(e));
      // Untouched destination cells keep a sentinel on both sides.
      std::vector<double> want(static_cast<size_t>(dst_len), 12345.5);
      std::vector<double> got = want;
      const double* sp = src.data() - src_lo;
      double* wp = want.data() - dst_lo;
      for (long long a = 0; a < c.n0; ++a)
        for (long long b = 0; b < c.n1; ++b)
          for (long long e = 0; e < c.n2; ++e)
            wp[a * c.ds0 + b * c.ds1 + e * c.ds2] =
                c.scale * sp[a * c.ss0 + b * c.ss1 + e * c.ss2];
      lh::detail::BoxCopy op;
      op.src = sp;
      op.dst = got.data() - dst_lo;
      op.n1 = c.n1;
      op.n2 = c.n2;
      op.ss0 = c.ss0;
      op.ss1 = c.ss1;
      op.ss2 = c.ss2;
      op.ds0 = c.ds0;
      op.ds1 = c.ds1;
      op.ds2 = c.ds2;
      op.scale = c.scale;
      lh::detail::box_copy(op, c.n0);
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(double)))
          << "case " << n << " on " << kxx::backend_name(cfg.backend);
    }
  }
}

TEST(Halo, SplitPhaseMatchesMonolithicUpdate) {
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_a(d, c, c.rank());
    lh::HaloExchanger ex_b(d, c, c.rank());
    lh::BlockField3D a("a", d.block(c.rank()), 6);
    lh::BlockField3D b("b", d.block(c.rank()), 6);
    fill_interior_3d(a);
    fill_interior_3d(b);
    ex_a.update(a, lh::FoldSign::Antisymmetric);
    // Split phase: interleave unrelated computation between begin and finish.
    auto pending = ex_b.begin_update(b, lh::FoldSign::Antisymmetric);
    volatile double sink = 0.0;
    for (int n = 0; n < 1000; ++n) sink = sink + n;
    ex_b.finish_update(pending);
    for (int k = 0; k < 6; ++k)
      for (int lj = 0; lj < a.ny_total(); ++lj)
        for (int li = 0; li < a.nx_total(); ++li)
          ASSERT_DOUBLE_EQ(b.at(k, lj, li), a.at(k, lj, li));
  });
}

TEST(Halo, SplitPhaseBitIdenticalUnderInjectedMessageDelays) {
  // A delayed message must change only timing, never data: the split-phase
  // exchange under injected delivery delays has to match the blocking
  // update() bit for bit.
  ld::Decomposition d(16, 10, 2, 2);
  licomk::resilience::FaultSchedule schedule;
  for (std::uint64_t op : {1ull, 3ull, 5ull, 9ull}) {
    schedule.add({licomk::resilience::FaultSite::CommDeliver,
                  licomk::resilience::FaultKind::DelayMessage, /*rank=*/-1, op, /*param=*/2.0});
  }
  licomk::resilience::arm(schedule);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_a(d, c, c.rank());
    lh::HaloExchanger ex_b(d, c, c.rank());
    lh::BlockField3D a("a", d.block(c.rank()), 6);
    lh::BlockField3D b("b", d.block(c.rank()), 6);
    fill_interior_3d(a);
    fill_interior_3d(b);
    ex_a.update(a, lh::FoldSign::Antisymmetric);
    auto pending = ex_b.begin_update(b, lh::FoldSign::Antisymmetric);
    ex_b.finish_update(pending);
    for (int k = 0; k < 6; ++k)
      for (int lj = 0; lj < a.ny_total(); ++lj)
        for (int li = 0; li < a.nx_total(); ++li)
          ASSERT_DOUBLE_EQ(b.at(k, lj, li), a.at(k, lj, li));
  });
  EXPECT_GE(licomk::resilience::injected_count(), 1u);
  licomk::resilience::disarm();
}

TEST(Halo, SplitPhaseHonorsRedundancyElimination) {
  ld::Decomposition d(12, 8, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::BlockField3D f("f", d.block(0), 3);
    fill_interior_3d(f);
    auto p1 = ex.begin_update(f);
    EXPECT_TRUE(p1.active());
    ex.finish_update(p1);
    auto p2 = ex.begin_update(f);  // unchanged: skipped
    EXPECT_FALSE(p2.active());
    EXPECT_NO_THROW(ex.finish_update(p2));
    EXPECT_EQ(ex.stats().skipped, 1u);
  });
}

TEST(Halo, FinishUpdateLifecycleGuards) {
  // ISSUE 5 bugfix: a Pending used to be a raw pointer with no lifecycle —
  // finishing one twice, or finishing a default-constructed one, was silent
  // UB. Both must throw now; finishing a skipped pending stays a no-op once.
  ld::Decomposition d(12, 8, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::BlockField3D f("f", d.block(0), 3);
    fill_interior_3d(f);

    lh::HaloExchanger::Pending null_pending;
    EXPECT_FALSE(null_pending.active());
    EXPECT_THROW(ex.finish_update(null_pending), licomk::InvalidArgument);

    auto p = ex.begin_update(f);
    ex.finish_update(p);
    EXPECT_FALSE(p.active());
    EXPECT_THROW(ex.finish_update(p), licomk::InvalidArgument);  // double finish

    auto skipped = ex.begin_update(f);  // unchanged: skipped
    EXPECT_NO_THROW(ex.finish_update(skipped));
    EXPECT_THROW(ex.finish_update(skipped), licomk::InvalidArgument);
  });
}

TEST(Halo, FinishUpdateDetectsSwappedFieldBuffer) {
  // ISSUE 5 bugfix: finish_update on a pending whose field no longer owns
  // the buffer begin_update saw (e.g. a leapfrog rotation std::swap'ed it)
  // must throw instead of unpacking into the wrong time level.
  ld::Decomposition d(12, 8, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::BlockField3D f("f", d.block(0), 3);
    lh::BlockField3D g("g", d.block(0), 3);
    fill_interior_3d(f);
    fill_interior_3d(g);
    auto p = ex.begin_update(f);
    ASSERT_TRUE(p.active());
    std::swap(f, g);  // the rotation pattern: buffers change owners
    EXPECT_THROW(ex.finish_update(p), licomk::InvalidArgument);
  });
}

TEST(Halo, SkipMapDoesNotAliasReallocatedFields) {
  // ISSUE 5 bugfix: the redundancy eliminator used to key on the base
  // pointer alone, so a NEW field allocated at a freed field's address with
  // a matching version count inherited the stale "already exchanged" entry
  // and silently skipped its first exchange. Keying on (pointer, alloc id)
  // makes address reuse harmless. The test provokes reuse by repeatedly
  // freeing and reallocating an identically-sized field.
  ld::Decomposition d(12, 8, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    bool reused = false;
    for (int attempt = 0; attempt < 64 && !reused; ++attempt) {
      auto f = std::make_unique<lh::BlockField3D>("f", d.block(0), 3);
      const void* addr = f->view().data();
      fill_interior_3d(*f);  // version 2 after the dirty mark
      ex.update(*f);
      const auto exchanges_before = ex.stats().exchanges;
      f.reset();  // free; the next allocation may land at the same address
      auto g = std::make_unique<lh::BlockField3D>("g", d.block(0), 3);
      if (g->view().data() != addr) continue;  // no reuse this round; retry
      reused = true;
      fill_interior_3d(*g);  // same version count as f had — the old trap
      ex.update(*g);
      // The new field's exchange must NOT have been skipped...
      EXPECT_EQ(ex.stats().exchanges, exchanges_before + 1);
      EXPECT_EQ(ex.stats().skipped, 0u);
      // ...and its ghosts must be correct.
      check_all_cells_3d(d, *g, 1.0, 0);
    }
    if (!reused) {
      GTEST_SKIP() << "allocator never reused the freed address; aliasing "
                      "scenario not reproducible in this run";
    }
  });
}

TEST(Halo, CrcVerificationIsTransparentWhenClean) {
  // With no corruption in flight, per-message CRC append/verify must change
  // nothing: ghosts identical to a plain exchange, correct values everywhere.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger plain(d, c, c.rank());
    lh::HaloExchanger checked(d, c, c.rank(), /*verify_crc=*/true);
    EXPECT_TRUE(checked.verify_crc());
    lh::BlockField3D a("a", d.block(c.rank()), 4);
    lh::BlockField3D b("b", d.block(c.rank()), 4);
    fill_interior_3d(a);
    fill_interior_3d(b);
    plain.update(a, lh::FoldSign::Antisymmetric);
    checked.update(b, lh::FoldSign::Antisymmetric);
    for (int k = 0; k < 4; ++k)
      for (int lj = 0; lj < a.ny_total(); ++lj)
        for (int li = 0; li < a.nx_total(); ++li)
          ASSERT_DOUBLE_EQ(b.at(k, lj, li), a.at(k, lj, li));
    check_all_cells_3d(d, b, -1.0, c.rank());
  });
}

TEST(Halo, CrcDetectsInjectedPayloadCorruption) {
  // Flip bits in the first user-tagged (halo) message: the receiver's CRC
  // check must surface CommError — loud failure, never silent corruption —
  // and count the detection.
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  licomk::resilience::FaultSchedule s;
  s.add({licomk::resilience::FaultSite::CommPayload, licomk::resilience::FaultKind::FlipBits,
         /*rank=*/-1, /*at_op=*/1, /*param=*/3.0});
  licomk::resilience::arm(s);
  ld::Decomposition d(16, 10, 1, 1);
  EXPECT_THROW(lc::Runtime::run(1,
                                [&](lc::Communicator& c) {
                                  lh::HaloExchanger ex(d, c, 0, /*verify_crc=*/true);
                                  lh::BlockField3D f("f", d.block(0), 3);
                                  fill_interior_3d(f);
                                  ex.update(f);
                                }),
               licomk::CommError);
  EXPECT_GE(licomk::resilience::injected_count(), 1u);
  EXPECT_GE(licomk::telemetry::counter_value("resilience.halo_crc_failures"), 1u);
  licomk::resilience::disarm();
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}
