// Tests for the multi-field group halo exchange (halo::PersistentGroup, the
// one engine behind every grouped exchange): split-phase vs monolithic
// rounds; per-field redundancy elimination inside a group and the
// partial-participation fallback; the zonal-only refresh and its interaction
// with the skip map; CRC protection of fused multi-field payloads; tag-block
// and tag-base isolation of concurrent groups; lifecycle guards; and the
// empty group.
#include <gtest/gtest.h>

#include <string>

#include "comm/runtime.hpp"
#include "core/model.hpp"
#include "halo/halo_exchange.hpp"
#include "halo/persistent_group.hpp"
#include "halo_group_fixtures.hpp"
#include "resilience/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "util/error.hpp"

namespace lh = licomk::halo;
namespace ld = licomk::decomp;
namespace lc = licomk::comm;

using namespace halo_group_test;

TEST(GroupExchange, SplitPhaseMatchesMonolithicExchange) {
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_a(d, c, c.rank());
    lh::HaloExchanger ex_b(d, c, c.rank());
    FieldSet a(d.block(c.rank()), "a");
    FieldSet b(d.block(c.rank()), "b");
    lh::PersistentGroup ga(ex_a);
    lh::PersistentGroup gb(ex_b);
    a.enroll(ga);
    b.enroll(gb);
    ga.exchange();
    gb.begin();
    // Interior compute would overlap here; the enrolled fields are not
    // touched, so the result must equal the monolithic exchange.
    gb.finish();
    b.expect_identical_to(a);
  });
}

TEST(GroupExchange, RedundancyEliminationInsideGroup) {
  // Per-field redundancy elimination inside a group: a round with nothing
  // dirty collapses to zero messages; a round with one dirty field carries
  // only that field through the partial-participation fallback (plain sends
  // with the same fused layout sized to the participating fields), and the
  // dirty field's ghosts really are refreshed.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    FieldSet grp(d.block(c.rank()), "grp");
    lh::PersistentGroup group(ex);
    grp.enroll(group);
    group.exchange();
    const auto after_first = ex.stats().messages;
    EXPECT_GT(after_first, 0u);
    EXPECT_EQ(group.partial_exchanges(), 0u);

    // Nothing dirty: the whole round collapses, no partial counted.
    group.exchange();
    EXPECT_EQ(ex.stats().messages, after_first);
    EXPECT_EQ(ex.stats().skipped, kFieldsPerSet);
    EXPECT_EQ(group.partial_exchanges(), 0u);

    // Only u goes dirty: a 1-of-5 partial round.
    fill_3d(grp.u, 44);
    const auto batched_before = ex.stats().batched_fields;
    group.exchange();
    EXPECT_EQ(group.partial_exchanges(), 1u);
    EXPECT_GT(ex.stats().messages, after_first);
    EXPECT_LE(ex.stats().messages - after_first,
              static_cast<std::uint64_t>(ex.full_message_count()));
    EXPECT_EQ(ex.stats().batched_fields - batched_before, 1u);

    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D u_ref("u_check", d.block(c.rank()), 3);
    fill_3d(u_ref, 44);
    ex_ref.update(u_ref, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::HorizontalMajor);
    expect_identical_3d(grp.u, u_ref);
  });
}

TEST(GroupExchange, ZonalOnlyThenFullRestoresEverything) {
  // The polar-filter pattern: intermediate smoothing passes read only
  // east/west neighbors on owned rows, so they pay for a zonal-only refresh;
  // the final full exchange restores every ghost, leaving the fields exactly
  // as if every pass had used a full exchange.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    FieldSet grp(d.block(c.rank()), "grp");
    FieldSet ref(d.block(c.rank()), "ref");
    lh::PersistentGroup group(ex);
    grp.enroll(group);
    group.exchange();
    ref.update_per_field(ex_ref);

    // New interiors (a smoothing pass would do this), then zonal-only.
    grp.refill(6);
    ref.refill(6);
    group.exchange_zonal();
    ref.update_per_field(ex_ref);
    expect_zonal_ghosts_identical(grp.t, ref.t);
    expect_zonal_ghosts_identical(grp.u, ref.u);

    // A final full exchange makes the whole state bit-identical again.
    grp.refill(6);
    group.exchange();
    grp.expect_identical_to(ref);
  });
}

TEST(GroupExchange, ZonalOnlyDoesNotPoisonTheSkipMap) {
  // exchange_zonal must neither consult nor record versions: after a
  // zonal-only refresh of a dirty field, the next FULL exchange must still
  // send (meridional ghosts are stale until it does).
  ld::Decomposition d(16, 10, 2, 1);
  lc::Runtime::run(2, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::BlockField3D f("f", d.block(c.rank()), 3);
    fill_3d(f, 9);
    lh::PersistentGroup group(ex);
    group.add(f, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    group.exchange_zonal();
    const auto msgs = ex.stats().messages;
    group.exchange();  // must NOT be skipped
    EXPECT_GT(ex.stats().messages, msgs);
    EXPECT_EQ(ex.stats().skipped, 0u);
    // And the field ends fully exchanged.
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D r("r", d.block(c.rank()), 3);
    fill_3d(r, 9);
    ex_ref.update(r, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    expect_identical_3d(f, r);
  });
}

TEST(GroupExchange, CrcDetectsCorruptionInFusedMessage) {
  // Flip bits inside one fused multi-field payload: the single trailing CRC
  // word covers every field's boxes, so the receiver must throw CommError
  // and count the detection. Two ranks, so the group has a real wire
  // message to corrupt (on one rank every transfer is a self-copy).
  licomk::telemetry::reset();
  licomk::telemetry::set_enabled(true);
  licomk::resilience::FaultSchedule s;
  s.add({licomk::resilience::FaultSite::CommPayload, licomk::resilience::FaultKind::FlipBits,
         /*rank=*/-1, /*at_op=*/1, /*param=*/3.0});
  licomk::resilience::arm(s);
  ld::Decomposition d(16, 10, 2, 1);
  EXPECT_THROW(lc::Runtime::run(2,
                                [&](lc::Communicator& c) {
                                  lh::HaloExchanger ex(d, c, c.rank());
                                  ex.set_verify_crc(true);
                                  FieldSet grp(d.block(c.rank()), "grp");
                                  lh::PersistentGroup group(ex);
                                  grp.enroll(group);
                                  group.exchange();
                                }),
               licomk::CommError);
  EXPECT_GE(licomk::resilience::injected_count(), 1u);
  EXPECT_GE(licomk::telemetry::counter_value("resilience.halo_crc_failures"), 1u);
  licomk::resilience::disarm();
  licomk::telemetry::set_enabled(false);
  licomk::telemetry::reset();
}

TEST(GroupExchange, ConcurrentGroupsWithDistinctTagBlocksDoNotMix) {
  // Two groups in flight at once on the SAME exchanger: tag blocks keep
  // their fused messages apart even with interleaved begin/finish.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D a("a", d.block(c.rank()), 3);
    lh::BlockField3D b("b", d.block(c.rank()), 4);
    lh::BlockField3D ra("ra", d.block(c.rank()), 3);
    lh::BlockField3D rb("rb", d.block(c.rank()), 4);
    fill_3d(a, 11);
    fill_3d(b, 22);
    fill_3d(ra, 11);
    fill_3d(rb, 22);
    lh::PersistentGroup ga(ex, /*tag_block=*/0);
    lh::PersistentGroup gb(ex, /*tag_block=*/1);
    ga.add(a, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    gb.add(b, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
    ga.begin();
    gb.begin();
    gb.finish();
    ga.finish();
    ex_ref.update(ra, lh::FoldSign::Antisymmetric, lh::Halo3DMethod::TransposeVerticalMajor);
    ex_ref.update(rb, lh::FoldSign::Symmetric, lh::Halo3DMethod::HorizontalMajor);
    expect_identical_3d(a, ra);
    expect_identical_3d(b, rb);
  });
}

TEST(GroupExchange, LivePlansOnTheSameTagBlockAreAHardError) {
  // A plan's registered requests keep its tags live until the plan is
  // dropped — a SECOND group planning on the same block would FIFO-match the
  // first one's messages, so it must collide with a CommError even between
  // exchanges, before anything is posted. The surviving group keeps working;
  // a group on another block coexists; invalidate_plan() releases the claim.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    lh::BlockField3D p("p", d.block(c.rank()), 3);
    lh::BlockField3D q("q", d.block(c.rank()), 3);
    lh::BlockField3D rp("rp", d.block(c.rank()), 3);
    fill_3d(p, 11);
    fill_3d(q, 22);
    lh::PersistentGroup pa(ex, /*tag_block=*/0);
    pa.add(p);
    pa.exchange();  // builds the plan; the claim now outlives the exchange
    lh::PersistentGroup pb(ex, /*tag_block=*/0);
    pb.add(q);
    try {
      pb.exchange();
      FAIL() << "second plan on the same live tag block did not throw";
    } catch (const licomk::CommError& e) {
      EXPECT_NE(std::string(e.what()).find("tag collision"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("PersistentGroup"), std::string::npos) << e.what();
    }
    // The live plan is unaffected.
    fill_3d(p, 12);
    fill_3d(rp, 12);
    pa.exchange();
    ex_ref.update(rp);
    expect_identical_3d(p, rp);
    // Another block coexists with the live plan.
    fill_3d(q, 23);
    lh::PersistentGroup pc(ex, /*tag_block=*/1);
    pc.add(q);
    pc.exchange();
    // Dropping the plan releases the claim: block 0 is free again.
    pa.invalidate_plan();
    fill_3d(q, 24);
    lh::PersistentGroup pd(ex, /*tag_block=*/0);
    pd.add(q);
    pd.exchange();
    EXPECT_EQ(pd.plan_builds(), 1u);
  });
}

TEST(GroupExchange, TagBasePartitionsTwoTenantsOnOneCommunicator) {
  // Two exchangers (two "tenants") over the SAME communicator, both using
  // tag_block 0: with distinct tag bases their interleaved rounds must not
  // mix. set_tag_base() is refused while a plan holds a claim.
  ld::Decomposition d(16, 10, 2, 2);
  lc::Runtime::run(4, [&](lc::Communicator& c) {
    lh::HaloExchanger ex_a(d, c, c.rank());
    lh::HaloExchanger ex_b(d, c, c.rank());
    lh::HaloExchanger ex_ref(d, c, c.rank());
    ex_b.set_tag_base(licomk::core::LicomModel::kHaloTagBlocks);
    lh::BlockField3D a("a", d.block(c.rank()), 3);
    lh::BlockField3D b("b", d.block(c.rank()), 3);
    lh::BlockField3D ra("ra", d.block(c.rank()), 3);
    lh::BlockField3D rb("rb", d.block(c.rank()), 3);
    fill_3d(a, 11);
    fill_3d(b, 22);
    fill_3d(ra, 11);
    fill_3d(rb, 22);
    lh::PersistentGroup ga(ex_a, /*tag_block=*/0);
    lh::PersistentGroup gb(ex_b, /*tag_block=*/0);
    ga.add(a, lh::FoldSign::Antisymmetric);
    gb.add(b, lh::FoldSign::Symmetric);
    ga.begin();
    EXPECT_THROW(ex_a.set_tag_base(8), licomk::Error);  // claim held by ga's plan
    gb.begin();
    gb.finish();
    ga.finish();
    ga.invalidate_plan();
    ex_a.set_tag_base(8);  // fine again once the claim is released
    ex_ref.update(ra, lh::FoldSign::Antisymmetric);
    ex_ref.update(rb, lh::FoldSign::Symmetric);
    expect_identical_3d(a, ra);
    expect_identical_3d(b, rb);
  });
}

TEST(GroupExchange, LifecycleGuards) {
  ld::Decomposition d(16, 10, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::BlockField3D f("f", d.block(0), 2);
    fill_3d(f, 1);
    lh::PersistentGroup group(ex);
    group.add(f, lh::FoldSign::Symmetric, lh::Halo3DMethod::TransposeVerticalMajor);

    EXPECT_THROW(group.finish(), licomk::InvalidArgument);  // nothing begun
    group.begin();
    EXPECT_THROW(group.begin(), licomk::InvalidArgument);           // already in flight
    EXPECT_THROW(group.exchange_zonal(), licomk::InvalidArgument);  // mid-flight
    group.finish();
    EXPECT_THROW(group.finish(), licomk::InvalidArgument);  // double finish

    // Enrolling mid-flight is rejected (it would invalidate the plan the
    // in-flight exchange is using).
    lh::BlockField3D g("g", d.block(0), 2);
    fill_3d(g, 2);
    f.mark_dirty();
    group.begin();
    EXPECT_THROW(group.add(g), licomk::InvalidArgument);
    group.finish();
  });
}

TEST(GroupExchange, EmptyGroupIsANoOp) {
  ld::Decomposition d(16, 10, 1, 1);
  lc::Runtime::run(1, [&](lc::Communicator& c) {
    lh::HaloExchanger ex(d, c, 0);
    lh::PersistentGroup group(ex);
    group.exchange();
    group.exchange_zonal();
    EXPECT_EQ(ex.stats().messages, 0u);
    EXPECT_EQ(ex.stats().batches, 0u);
    EXPECT_EQ(group.plan_builds(), 0u);
  });
}
