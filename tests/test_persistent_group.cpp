// Tests for the persistent side of the multi-field halo engine
// (halo::PersistentGroup): bit-identity with sequential per-field update()
// across layouts, fold signs, 3-D methods and CRC modes; equivalent-message
// accounting against what the per-field path actually sends; per-peer message
// fusion and self-copy elimination; plan-cache hit/miss accounting and
// invalidation (enrollment change); the lazy plan of an all-skipped
// round; and the model's groups across an elastic shrink (redistributed
// checkpoint) with per-field global CRC equality. The group's exchange
// semantics (split phase, redundancy elimination, zonal-only refresh, CRC,
// tag isolation, lifecycle) are covered by test_exchange_group.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "halo/halo_exchange.hpp"
#include "halo/persistent_group.hpp"
#include "halo_group_fixtures.hpp"
#include "kxx_env.hpp"
#include "resilience/redistribute.hpp"

namespace lh = licomk::halo;
namespace ld = licomk::decomp;
namespace lc = licomk::comm;
namespace fs = std::filesystem;

namespace {

using namespace halo_group_test;

void run_identity_case(int nx, int ny, int px, int py, bool crc) {
  ld::Decomposition d(nx, ny, px, py);
  lc::Runtime::run(d.nranks(), [&](lc::Communicator& c) {
    lh::HaloExchanger ex_ref(d, c, c.rank(), crc);
    lh::HaloExchanger ex(d, c, c.rank(), crc);
    FieldSet ref(d.block(c.rank()), "ref");
    FieldSet grp(d.block(c.rank()), "grp");
    lh::PersistentGroup group(ex);
    grp.enroll(group);

    // Round 1: first use builds the plan.
    ref.update_per_field(ex_ref);
    group.exchange();
    grp.expect_identical_to(ref);
    EXPECT_EQ(group.plan_builds(), 1u);
    // The group did the per-field work in at most one message per
    // (peer, phase) — never more than the per-field count divided by the
    // number of fields it carries.
    EXPECT_LE(ex.stats().messages * kFieldsPerSet, ex_ref.stats().messages);
    EXPECT_EQ(ex.stats().batches, 1u);
    EXPECT_EQ(ex.stats().batched_fields, kFieldsPerSet);

    // Round 2: fresh interiors through the CACHED plan (the reuse that makes
    // the engine worth having) must stay bit-identical.
    ref.refill(40);
    grp.refill(40);
    ref.update_per_field(ex_ref);
    group.exchange();
    grp.expect_identical_to(ref);
    EXPECT_EQ(group.plan_builds(), 1u);
    EXPECT_GE(group.plan_hits(), 1u);
  });
}

}  // namespace

class PersistentLayouts : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(PersistentLayouts, MatchesPerFieldBitForBit) {
  auto [nx, ny, px, py] = GetParam();
  run_identity_case(nx, ny, px, py, /*crc=*/false);
}

TEST_P(PersistentLayouts, MatchesPerFieldWithCrcOn) {
  auto [nx, ny, px, py] = GetParam();
  run_identity_case(nx, ny, px, py, /*crc=*/true);
}

namespace {
std::string layout_name(const ::testing::TestParamInfo<std::tuple<int, int, int, int>>& info) {
  auto [nx, ny, px, py] = info.param;
  return "g" + std::to_string(nx) + "x" + std::to_string(ny) + "p" + std::to_string(px) + "x" +
         std::to_string(py);
}
}  // namespace

INSTANTIATE_TEST_SUITE_P(Layouts, PersistentLayouts,
                         ::testing::Values(std::make_tuple(16, 10, 1, 1),
                                           std::make_tuple(16, 10, 2, 1),
                                           std::make_tuple(16, 10, 4, 2),
                                           std::make_tuple(17, 11, 3, 2),
                                           std::make_tuple(16, 12, 2, 3)),
                         layout_name);

TEST(PersistentGroup, EquivMessagesEqualWhatPerFieldUpdatesSend) {
  // equiv_messages is the denominator of every message-reduction gate
  // (halo.msg_reduction, ci/check_halo_batching.py), so it must be MEASURED
  // work, not a self-reported estimate: across layouts, full and partial
  // rounds, it equals the messages per-field update() of the same dirty
  // fields actually puts on the wire.
  const std::vector<std::pair<int, int>> layouts = {{1, 1}, {2, 1}, {4, 2}, {3, 2}};
  for (const auto& layout : layouts) {
    const int px = layout.first;
    const int py = layout.second;
    ld::Decomposition d(17, 11, px, py);
    lc::Runtime::run(d.nranks(), [&](lc::Communicator& c) {
      lh::HaloExchanger ex_ref(d, c, c.rank());
      lh::HaloExchanger ex(d, c, c.rank());
      FieldSet ref(d.block(c.rank()), "ref");
      FieldSet grp(d.block(c.rank()), "grp");
      lh::PersistentGroup group(ex);
      grp.enroll(group);
      ref.update_per_field(ex_ref);
      group.exchange();
      EXPECT_EQ(ex.stats().equiv_messages, ex_ref.stats().messages) << px << "x" << py;
      // A partial round: only u and eta went dirty.
      fill_3d(ref.u, 9);
      fill_3d(grp.u, 9);
      fill_2d(ref.eta, 8);
      fill_2d(grp.eta, 8);
      ref.update_per_field(ex_ref);
      group.exchange();
      EXPECT_EQ(ex.stats().equiv_messages, ex_ref.stats().messages) << px << "x" << py;
      EXPECT_EQ(ex.stats().skipped, ex_ref.stats().skipped);
      grp.expect_identical_to(ref);
    });
  }
}

TEST(PersistentGroup, PerPeerFusionMergesZonalStrips) {
  // px == 2: each rank's west and east neighbor are the SAME rank, so the
  // two zonal strips travel in one fused message — 1 wire message per rank
  // per zonal refresh where unfused per-direction sends would pay 2.
  ld::Decomposition d(16, 10, 2, 1);
  lc::Runtime::run(2, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::HaloExchanger ex(d, c, c.rank());
    FieldSet ref(d.block(c.rank()), "ref");
    FieldSet grp(d.block(c.rank()), "grp");
    lh::PersistentGroup group(ex);
    grp.enroll(group);
    group.exchange_zonal();
    EXPECT_EQ(ex.stats().messages, 1u);
    // The merged payload still lands exactly where two messages would have.
    ref.update_per_field(ex_ref);
    expect_zonal_ghosts_identical(grp.t, ref.t);
    // A full exchange stays bit-identical to the per-field path.
    ref.refill(7);
    grp.refill(7);
    ref.update_per_field(ex_ref);
    group.exchange();
    grp.expect_identical_to(ref);
  });
}

TEST(PersistentGroup, SelfCopiesEliminateWireMessages) {
  // px == 1: the zonal wrap peer is this rank itself. Per-field updates send
  // self-messages through the communicator; the persistent plan turns them
  // into local pack→staging→unpack copies — zero communicator traffic.
  ld::Decomposition d(16, 10, 1, 2);
  lc::Runtime::run(2, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::HaloExchanger ex(d, c, c.rank());
    FieldSet ref(d.block(c.rank()), "ref");
    FieldSet grp(d.block(c.rank()), "grp");
    lh::PersistentGroup group(ex);
    grp.enroll(group);
    group.exchange_zonal();
    EXPECT_EQ(ex.stats().messages, 0u);
    EXPECT_GE(group.self_copies(), 1u);
    EXPECT_EQ(ex.stats().self_copies, group.self_copies());
    ref.refill(9);
    grp.refill(9);
    ref.update_per_field(ex_ref);
    group.exchange();
    grp.expect_identical_to(ref);
    EXPECT_GT(ex_ref.stats().messages, ex.stats().messages);
  });
}

TEST(PersistentGroup, EnrollmentChangeRebuildsPlan) {
  // Plan-cache invalidation on field enrollment. The rebuilt plan must size
  // every message for the NEW field set and stay bit-identical.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::HaloExchanger ex(d, c, c.rank());
    lh::BlockField3D a_ref("a_ref", d.block(c.rank()), 3);
    lh::BlockField3D a("a", d.block(c.rank()), 3);
    lh::BlockField3D b_ref("b_ref", d.block(c.rank()), 2);
    lh::BlockField3D b("b", d.block(c.rank()), 2);
    fill_3d(a, 11);
    lh::PersistentGroup group(ex);
    group.add(a, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    group.exchange();
    EXPECT_EQ(group.plan_builds(), 1u);

    // Enroll a second field: the cached single-field plan is invalid now.
    fill_3d(b_ref, 22);
    fill_3d(b, 22);
    fill_3d(a_ref, 33);
    fill_3d(a, 33);
    group.add(b, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    group.exchange();
    EXPECT_EQ(group.plan_builds(), 2u);
    ex_ref.update(a_ref, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    ex_ref.update(b_ref, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    expect_identical_3d(a, a_ref);
    expect_identical_3d(b, b_ref);
  });
}

TEST(PersistentGroup, AllSkippedRoundBuildsNoPlanAndClaimsNoTags) {
  // The plan is built lazily by the first round with a participating field:
  // a group whose fields are all current (the model's scoped halo_in after
  // step 1) allocates nothing and claims no tags — so it coexists even with
  // a live plan on its own block.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::BlockField3D p("p", d.block(c.rank()), 3);
    fill_3d(p, 11);
    lh::PersistentGroup live(ex, /*tag_block=*/0);
    live.add(p);
    live.exchange();
    const auto msgs = ex.stats().messages;
    lh::PersistentGroup idle(ex, /*tag_block=*/0);
    idle.add(p);  // p is current: every round of `idle` is all-skipped
    idle.exchange();
    idle.begin();
    idle.finish();
    EXPECT_EQ(idle.plan_builds(), 0u);
    EXPECT_EQ(idle.plan_hits(), 0u);
    EXPECT_EQ(ex.stats().messages, msgs);
    EXPECT_EQ(ex.stats().skipped, 2u);
  });
}

TEST(PersistentGroup, ModelGroupsCutMessagesAndReusePlans) {
  // Single rank is the self-copy extreme: every subcycle "neighbor" is this
  // rank itself (zonal periodic wrap + the fold mirror), so the subcycle
  // sends ZERO wire messages while retiring its full per-field-equivalent
  // work. Multi-rank, every subcycle round is a full-participation hit on
  // the one plan built at first use, and the measured reductions against
  // the per-field equivalent clear the CI gate's 3x (whole step) and 2x
  // (subcycle). Counts are deterministic, so these are exact, not timing
  // assertions.
  namespace core = licomk::core;
  core::ModelConfig cfg = core::ModelConfig::testing(8);
  {
    core::LicomModel m(cfg);
    for (int i = 0; i < 3; ++i) m.step();
    EXPECT_EQ(m.subcycle_messages(), 0u);
    EXPECT_GT(m.subcycle_equiv_messages(), 0u);
    EXPECT_GT(m.subcycle_group().self_copies(), 0u);
    EXPECT_EQ(m.subcycle_group().plan_builds(), 1u);
    EXPECT_GT(m.subcycle_group().plan_hits(), 0u);
  }
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    core::LicomModel m(cfg, global, c);
    for (int i = 0; i < 2; ++i) m.step();
    auto sum = [&c](std::uint64_t v) {
      return c.allreduce_scalar(static_cast<double>(v), lc::ReduceOp::Sum);
    };
    const double msgs = sum(m.exchanger().stats().messages);
    const double equiv = sum(m.exchanger().stats().equiv_messages);
    const double sub = sum(m.subcycle_messages());
    const double sub_equiv = sum(m.subcycle_equiv_messages());
    EXPECT_GT(sub, 0.0);
    EXPECT_GE(equiv / msgs, 3.0) << "step=" << msgs << " equiv=" << equiv;
    EXPECT_GE(sub_equiv / sub, 2.0) << "subcycle=" << sub << " equiv=" << sub_equiv;
    EXPECT_EQ(m.subcycle_group().plan_builds(), 1u);
    EXPECT_GT(m.subcycle_group().plan_hits(), 0u);
    EXPECT_EQ(m.subcycle_group().partial_exchanges(), 0u);
  });
}

TEST(PersistentGroup, ShrinkRedistributeRebuildAndGlobalCrcEquality) {
  // Decomposition change across an elastic shrink. A 4-rank model writes a
  // checkpoint; the checkpoint is re-sliced onto a 2-rank layout; a 2-rank
  // model resumes from the redistributed files and steps, while the 4-rank
  // layout resumes from the original files and steps alike. The 2-rank
  // model's groups build fresh plans for the new decomposition (no stale
  // geometry can survive the shrink: the groups belong to the model), and
  // the per-field GLOBAL CRCs of the two resumed runs must match exactly.
  namespace core = licomk::core;
  namespace lr = licomk::resilience;
  const std::string dir = "/tmp/licomk_persistent_shrink";
  fs::remove_all(dir);
  fs::create_directories(dir);

  core::ModelConfig cfg = core::ModelConfig::testing(8);
  auto global = std::make_shared<licomk::grid::GlobalGrid>(cfg.grid, cfg.bathymetry_seed);

  const std::string pref4 = dir + "/ckpt4";
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    core::LicomModel m(cfg, global, c);
    m.step();
    m.write_restart(pref4);
  });

  ld::Decomposition d4 = core::LicomModel::plan_decomposition(cfg, 4);
  ld::Decomposition d2 = core::LicomModel::plan_decomposition(cfg, 2);
  const std::string pref2 = dir + "/ckpt2";
  auto report = lr::redistribute_checkpoint(pref4, d4, pref2, d2);
  ASSERT_TRUE(report.crcs_match());

  auto resume_and_checkpoint = [&](int nranks, const std::string& in_pref,
                                   const std::string& out_pref) {
    lc::Runtime::run(nranks, [&](lc::Communicator& c) {
      core::LicomModel m(cfg, global, c);
      m.read_restart(in_pref);
      m.step();
      m.step();
      // The resumed model's subcycle group planned against ITS layout once
      // and was reused by both steps' subcycles.
      EXPECT_EQ(m.subcycle_group().plan_builds(), 1u);
      EXPECT_GT(m.subcycle_group().plan_hits(), 0u);
      m.write_restart(out_pref);
    });
  };
  resume_and_checkpoint(2, pref2, dir + "/after2");
  resume_and_checkpoint(4, pref4, dir + "/after4");

  auto ga = lr::assemble_global_state(dir + "/after2", d2);
  auto gb = lr::assemble_global_state(dir + "/after4", d4);
  ASSERT_EQ(ga.field_crcs.size(), gb.field_crcs.size());
  EXPECT_EQ(ga.field_crcs, gb.field_crcs);
  fs::remove_all(dir);
}
