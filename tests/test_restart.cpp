// Tests for checkpoint/restart: bit-exact continuation, shape validation,
// multi-rank file-per-process round trips.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "core/restart.hpp"
#include "crc64_oracle.hpp"
#include "kxx/kxx.hpp"
#include "resilience/fault_injector.hpp"

namespace lc = licomk::core;
namespace lco = licomk::comm;
namespace kxx = licomk::kxx;

namespace {
lc::ModelConfig small_config() {
  auto cfg = lc::ModelConfig::testing(10);
  cfg.grid.nz = 6;
  return cfg;
}

struct TempPrefix {
  std::string prefix;
  int ranks;
  TempPrefix(const char* name, int nranks) : prefix(std::string("/tmp/licomk_rs_") + name),
                                             ranks(nranks) {}
  ~TempPrefix() {
    for (int r = 0; r < ranks; ++r) std::remove(lc::restart_rank_path(prefix, r).c_str());
  }
};

/// The .lrs v3 layout: a 72-byte header whose last 8 bytes are the payload
/// CRC, then the per-field CRC table, then the fields in table order.
constexpr std::size_t kHeaderBytes = 72;
constexpr std::size_t kPayloadCrcOffset = 64;

std::vector<unsigned char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in), {});
}

std::uint64_t load_u64(const unsigned char* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

/// Overwrite a restart file's interior shape in place: three int32s (nx, ny,
/// nz) after the 8-byte magic and the int32 version. The payload CRC does not
/// cover the header, so only the shape checks can catch this.
void patch_header_shape(const std::string& path, std::int32_t nx, std::int32_t ny,
                        std::int32_t nz) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const std::int32_t shape[3] = {nx, ny, nz};
  f.seekp(12);
  f.write(reinterpret_cast<const char*>(shape), sizeof(shape));
  ASSERT_TRUE(f.good());
}

/// A corrupt shape must surface as licomk::Error from the raw reader (never
/// an allocation failure or integer overflow) and as "not intact" from the
/// inspect/verify helpers.
void expect_shape_rejected(const std::string& path) {
  EXPECT_THROW(lc::read_restart_raw(path), licomk::Error);
  EXPECT_FALSE(lc::inspect_restart(path).has_value());
  EXPECT_FALSE(lc::verify_restart(path).has_value());
}
}  // namespace

TEST(Restart, RoundTripPreservesEveryField) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("roundtrip", 1);
  lc::LicomModel a(small_config());
  a.run_days(0.5);
  a.write_restart(tp.prefix);

  lc::LicomModel b(small_config());
  b.read_restart(tp.prefix);
  EXPECT_DOUBLE_EQ(b.simulated_seconds(), a.simulated_seconds());
  EXPECT_EQ(b.steps_taken(), a.steps_taken());
  // The checkpoint contract is "interiors exact, halos re-derived": restore
  // refreshes every prognostic halo by exchange (so a redistributed
  // checkpoint with zeroed ghosts restores correctly), which may overwrite
  // stale live halos of the _old time level. Compare owned cells only;
  // ContinuationIsBitIdenticalToUninterruptedRun proves the halo refresh is
  // dynamics-neutral.
  const auto& ta = a.state().t_cur;
  for (int k = 0; k < ta.nz(); ++k) {
    for (int j = 0; j < ta.ny(); ++j) {
      for (int i = 0; i < ta.nx(); ++i) {
        ASSERT_DOUBLE_EQ(b.state().t_cur.interior(k, j, i), a.state().t_cur.interior(k, j, i));
        ASSERT_DOUBLE_EQ(b.state().u_old.interior(k, j, i), a.state().u_old.interior(k, j, i));
      }
    }
  }
  for (int j = 0; j < ta.ny(); ++j) {
    for (int i = 0; i < ta.nx(); ++i) {
      ASSERT_DOUBLE_EQ(b.state().eta_cur.interior(j, i), a.state().eta_cur.interior(j, i));
    }
  }
}

TEST(Restart, ContinuationIsBitIdenticalToUninterruptedRun) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("continue", 1);
  // Uninterrupted: 1.0 day.
  lc::LicomModel full(small_config());
  full.run_days(1.0);
  auto d_full = full.diagnostics();
  // Interrupted: 0.5 day, checkpoint, fresh model, resume, 0.5 day.
  lc::LicomModel first(small_config());
  first.run_days(0.5);
  first.write_restart(tp.prefix);
  lc::LicomModel second(small_config());
  second.read_restart(tp.prefix);
  second.run_days(0.5);
  auto d_restart = second.diagnostics();

  EXPECT_DOUBLE_EQ(d_restart.mean_sst, d_full.mean_sst);
  EXPECT_DOUBLE_EQ(d_restart.kinetic_energy, d_full.kinetic_energy);
  EXPECT_DOUBLE_EQ(d_restart.max_abs_eta, d_full.max_abs_eta);
  EXPECT_DOUBLE_EQ(second.simulated_seconds(), full.simulated_seconds());
}

TEST(Restart, MultiRankFilePerProcess) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  auto cfg = small_config();
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  TempPrefix tp("multirank", 4);
  lc::GlobalDiagnostics before;
  lco::Runtime::run(4, [&](lco::Communicator& c) {
    lc::LicomModel m(cfg, global, c);
    m.run_days(0.25);
    m.write_restart(tp.prefix);
    if (c.rank() == 0) before = m.diagnostics();
    // also consume the collective on other ranks
    if (c.rank() != 0) (void)m.diagnostics();
  });
  lc::GlobalDiagnostics after;
  lco::Runtime::run(4, [&](lco::Communicator& c) {
    lc::LicomModel m(cfg, global, c);
    m.read_restart(tp.prefix);
    if (c.rank() == 0) after = m.diagnostics();
    if (c.rank() != 0) (void)m.diagnostics();
  });
  EXPECT_DOUBLE_EQ(after.mean_sst, before.mean_sst);
  EXPECT_DOUBLE_EQ(after.kinetic_energy, before.kinetic_energy);
}

TEST(Restart, RejectsWrongShape) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("shape", 1);
  lc::LicomModel a(small_config());
  a.write_restart(tp.prefix);

  auto other = small_config();
  other.grid.nz = 8;  // different vertical grid
  lc::LicomModel b(other);
  EXPECT_THROW(b.read_restart(tp.prefix), licomk::Error);
}

TEST(Restart, RejectsGarbageFile) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  std::string path = lc::restart_rank_path("/tmp/licomk_rs_garbage", 0);
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a restart file at all, sorry", f);
    std::fclose(f);
  }
  lc::LicomModel m(small_config());
  EXPECT_THROW(m.read_restart("/tmp/licomk_rs_garbage"), licomk::Error);
  std::remove(path.c_str());
}

TEST(Restart, MissingFileThrows) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  lc::LicomModel m(small_config());
  EXPECT_THROW(m.read_restart("/tmp/licomk_rs_does_not_exist"), licomk::Error);
}

TEST(Restart, WriteIsAtomicAndLeavesNoStagingFile) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("atomic", 1);
  lc::LicomModel m(small_config());
  m.step();
  m.write_restart(tp.prefix);
  std::string path = lc::restart_rank_path(tp.prefix, 0);
  // The data was published via rename: no ".tmp" staging file survives.
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());
  EXPECT_TRUE(lc::verify_restart(path).has_value());
}

TEST(Restart, CrcDetectsBitFlipAndTruncation) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("crc", 1);
  lc::LicomModel m(small_config());
  m.run_days(0.25);
  m.write_restart(tp.prefix);
  std::string path = lc::restart_rank_path(tp.prefix, 0);

  auto info = lc::verify_restart(path);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->steps, m.steps_taken());

  // Flip one payload bit in place.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(0, std::ios::end);
    auto size = static_cast<long long>(f.tellg());
    f.seekp(size / 2);
    char byte = 0;
    f.seekg(size / 2);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    f.seekp(size / 2);
    f.write(&byte, 1);
  }
  EXPECT_FALSE(lc::verify_restart(path).has_value());
  lc::LicomModel victim(small_config());
  EXPECT_THROW(victim.read_restart(tp.prefix), licomk::Error);

  // Rewrite cleanly, then truncate: verify must fail again.
  m.write_restart(tp.prefix);
  ASSERT_TRUE(lc::verify_restart(path).has_value());
  licomk::resilience::tear_file(path, 0.6);
  EXPECT_FALSE(lc::verify_restart(path).has_value());
}

TEST(Restart, OnDiskCrcsEqualBytewiseOracle) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("oracle", 1);
  lc::LicomModel m(small_config());
  m.run_days(0.25);
  m.write_restart(tp.prefix);
  const auto file = slurp(lc::restart_rank_path(tp.prefix, 0));

  // In-memory field bytes, in the canonical table order.
  std::vector<std::pair<const double*, std::size_t>> fields;
  for (const auto* f : lc::prognostic_fields3(m.state())) {
    fields.emplace_back(f->view().data(), f->view().size() * sizeof(double));
  }
  for (const auto* f : lc::prognostic_fields2(m.state())) {
    fields.emplace_back(f->view().data(), f->view().size() * sizeof(double));
  }
  std::size_t field_bytes = 0;
  for (const auto& f : fields) field_bytes += f.second;
  const std::size_t table_bytes = fields.size() * sizeof(std::uint64_t);
  ASSERT_EQ(file.size(), kHeaderBytes + table_bytes + field_bytes);

  // The payload CRC covers every byte after the header.
  EXPECT_EQ(load_u64(file.data() + kPayloadCrcOffset),
            licomk_test::crc64_bytewise(file.data() + kHeaderBytes, file.size() - kHeaderBytes));
  // Each table entry is the CRC of its field, on disk and in memory.
  std::size_t at = kHeaderBytes + table_bytes;
  for (std::size_t n = 0; n < fields.size(); ++n) {
    const std::uint64_t entry = load_u64(file.data() + kHeaderBytes + n * sizeof(std::uint64_t));
    EXPECT_EQ(entry, licomk_test::crc64_bytewise(file.data() + at, fields[n].second)) << n;
    EXPECT_EQ(entry, licomk_test::crc64_bytewise(fields[n].first, fields[n].second)) << n;
    at += fields[n].second;
  }
}

TEST(Restart, RejectsFlippedHeaderPayloadCrcWithIntactData) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("hdrcrc", 1);
  lc::LicomModel m(small_config());
  m.run_days(0.25);
  m.write_restart(tp.prefix);
  const std::string path = lc::restart_rank_path(tp.prefix, 0);
  ASSERT_TRUE(lc::verify_restart(path).has_value());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    char byte = 0;
    f.seekg(kPayloadCrcOffset + 3);
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x20);
    f.seekp(kPayloadCrcOffset + 3);
    f.write(&byte, 1);
    ASSERT_TRUE(f.good());
  }
  // Every field still matches its table entry; only the payload check can
  // catch this, and on the read paths that check is the combined CRC.
  EXPECT_FALSE(lc::verify_restart(path).has_value());
  lc::LicomModel victim(small_config());
  EXPECT_THROW(lc::read_restart(path, victim.local_grid(), victim.state()), licomk::Error);
  EXPECT_THROW(lc::read_restart_raw(path), licomk::Error);
}

TEST(Restart, RejectsAbsurdHeaderShapeBeforeAllocating) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("absurd", 1);
  lc::LicomModel m(small_config());
  m.write_restart(tp.prefix);
  const std::string path = lc::restart_rank_path(tp.prefix, 0);
  // INT32_MAX per axis: ny + 2h overflows a signed int, and the storage
  // sizes would wrap.
  const std::int32_t big = std::numeric_limits<std::int32_t>::max();
  patch_header_shape(path, big, big, big);
  expect_shape_rejected(path);
  // Representable, but 10^15 doubles per 3-D field: petabytes to allocate.
  patch_header_shape(path, 100000, 100000, 100000);
  expect_shape_rejected(path);
}

TEST(Restart, RejectsNegativeHeaderShape) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("negative", 1);
  auto cfg = small_config();
  lc::LicomModel m(cfg);
  m.write_restart(tp.prefix);
  const std::string path = lc::restart_rank_path(tp.prefix, 0);
  patch_header_shape(path, -cfg.grid.nx, cfg.grid.ny, cfg.grid.nz);
  expect_shape_rejected(path);
  patch_header_shape(path, cfg.grid.nx, cfg.grid.ny, 0);
  expect_shape_rejected(path);
}

TEST(Restart, StepWallSecondsSurviveRoundTrip) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("wall", 1);
  lc::LicomModel a(small_config());
  a.run_days(0.25);
  ASSERT_GT(a.step_wall_seconds(), 0.0);
  a.write_restart(tp.prefix);

  // The v3 header carries accumulated step wall time, so a restored run's
  // sypd() denominator excludes supervisor backoff and inter-attempt gaps.
  lc::LicomModel b(small_config());
  b.read_restart(tp.prefix);
  EXPECT_DOUBLE_EQ(b.step_wall_seconds(), a.step_wall_seconds());

  auto info = lc::verify_restart(lc::restart_rank_path(tp.prefix, 0));
  ASSERT_TRUE(info.has_value());
  EXPECT_DOUBLE_EQ(info->step_wall_s, a.step_wall_seconds());
}

TEST(Restart, InspectExposesShapeAndPerFieldCrcs) {
  kxx::initialize({kxx::Backend::Serial, 1, false});
  TempPrefix tp("inspect", 1);
  auto cfg = small_config();
  lc::LicomModel m(cfg);
  m.run_days(0.25);
  m.write_restart(tp.prefix);
  std::string path = lc::restart_rank_path(tp.prefix, 0);

  auto fi = lc::inspect_restart(path);
  ASSERT_TRUE(fi.has_value());
  EXPECT_EQ(fi->nx, cfg.grid.nx);
  EXPECT_EQ(fi->ny, cfg.grid.ny);
  EXPECT_EQ(fi->nz, cfg.grid.nz);
  EXPECT_EQ(fi->i0, 0);
  EXPECT_EQ(fi->j0, 0);
  ASSERT_EQ(fi->field_crcs.size(), lc::prognostic_field_names().size());
  // Distinct prognostic fields must carry distinct CRCs (t vs s, u vs v).
  EXPECT_NE(fi->field_crcs[0], fi->field_crcs[2]);
  EXPECT_NE(fi->field_crcs[4], fi->field_crcs[6]);

  // The raw reader hands back the same header, and a raw rewrite of the same
  // payload reproduces the same per-field CRC table.
  lc::RawRestart raw = lc::read_restart_raw(path);
  EXPECT_EQ(raw.header.field_crcs, fi->field_crcs);
  TempPrefix tp2("inspect_rw", 1);
  lc::write_restart_raw(lc::restart_rank_path(tp2.prefix, 0), raw.header, raw.fields3,
                        raw.fields2);
  auto fi2 = lc::inspect_restart(lc::restart_rank_path(tp2.prefix, 0));
  ASSERT_TRUE(fi2.has_value());
  EXPECT_EQ(fi2->field_crcs, fi->field_crcs);
}
