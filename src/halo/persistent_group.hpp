// persistent_group.hpp — the multi-field halo exchange engine (paper §V-D).
//
// The per-field HaloExchanger sends one message per field per direction; the
// hot phases of a step (barotropic subcycle, tracer loop) exchange many
// fields back to back, so the message COUNT — not the byte volume — becomes
// the bottleneck at scale. A PersistentGroup enrolls a set of fields once and
// resolves everything that does not change between rounds ONCE into a
// cached plan (the MPI persistent-request idiom: MPI_Send_init /
// MPI_Recv_init at plan build, MPI_Start / MPI_Wait per exchange); each round
// then only packs, starts, and waits:
//
//   * per-peer message fusion — every box headed to the same peer in the
//     same phase travels in ONE message, fields concatenated in enrollment
//     order inside each box, each packed with its own Halo3DMethod strides
//     (e.g. with px == 2 the west and east zonal strips go to the same rank:
//     one message instead of two). The box order inside a fused message is
//     canonical — both sides derive it from the decomposition alone, so no
//     header is needed. Unpacking applies each field's own FoldSign across
//     the tripolar seam.
//   * self-copy elimination — a "message" whose peer is this rank (px == 1
//     zonal periodicity, a fold partner straddling the mirror midpoint)
//     never touches the communicator: it is packed into a staging buffer
//     and unpacked locally through the exact same box kernels.
//   * pre-registered buffers — each message's pack/unpack buffer is sized
//     once and bound to a comm::PersistentRequest; exchanges reuse them.
//     With CRC verification on, one trailing CRC-64 word covers the whole
//     fused payload.
//   * a deferred send-buffer pool — each send op owns a 2-deep ring of
//     (buffer, request) pairs. finish() does NOT wait for sends; the next
//     begin() waits only the ring slot it is about to refill, so a start()
//     never blocks on buffer reuse and send completion overlaps the
//     caller's compute between exchanges.
//
// Ghost values are bit-identical to sequential per-field update() calls
// (asserted in test_persistent_group across layouts, fold signs, 3-D methods
// and CRC modes): every (field, box) is packed and unpacked with exactly the
// parameters the per-field path uses — fusion and self-copies only change
// which wire message carries the bytes.
//
// begin()/finish() split a round exactly like begin_update/finish_update
// split a single field: begin packs and posts the meridional + fold sends,
// interior computation overlaps, finish receives and runs the zonal phase.
// exchange_zonal() refreshes only the east/west ghosts (one fused message per
// zonal peer): stencils that read only same-row neighbors between full
// exchanges — the polar filter's smoothing passes — skip the meridional +
// fold traffic they never read.
//
// The plan caches geometry and buffer sizes, NOT field addresses: each
// begin() re-resolves the enrolled fields' buffers, so prognostic rotation
// (buffer swaps between enrolled fields) needs no rebuild. The plan is built
// lazily by the first round in which at least one field participates (an
// all-skipped round allocates nothing and claims no tags), and invalidated by
// add() (enrollment change) and by a verify_crc flip on the underlying
// exchanger (message layout changes); a decomposition change means a new
// HaloExchanger and therefore a new group. Plan-cache traffic is observable
// via plan_builds()/plan_hits() and the process-wide
// "halo.persistent.plan_builds"/"halo.persistent.plan_hits" counters.
//
// Participation: the redundancy eliminator skips fields unchanged since
// their last exchange; sender and receiver agree because participation is
// symmetric across ranks (every rank runs the same sequence on fields marked
// dirty in lockstep). Persistent messages have fixed sizes, so the fast path
// requires every enrolled field to participate; a round where only a subset
// does falls back to plain sends with the same fused layout sized to the
// participating fields (counted in "halo.persistent.partial_exchanges").
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "halo/halo_exchange.hpp"

namespace licomk::halo {

/// A reusable set of fields exchanged together. The group holds pointers:
/// field objects must outlive it and stay at the same address; swapping
/// buffer *contents* between enrolled fields is fine. A plan holds its tag
/// claim for its whole lifetime, so groups whose plans are alive at the same
/// time on one exchanger must use distinct tag_blocks.
class PersistentGroup {
 public:
  explicit PersistentGroup(HaloExchanger& exchanger, int tag_block = 0);
  ~PersistentGroup();
  PersistentGroup(const PersistentGroup&) = delete;
  PersistentGroup& operator=(const PersistentGroup&) = delete;

  /// Enroll a field. Invalidates the cached plan (rebuilt lazily at the
  /// next exchange). Throws while an exchange is in flight.
  void add(BlockField2D& field, FoldSign sign = FoldSign::Symmetric);
  void add(BlockField3D& field, FoldSign sign = FoldSign::Symmetric,
           Halo3DMethod method = Halo3DMethod::TransposeVerticalMajor);

  /// Post the meridional + fold phase: pack, start the persistent sends
  /// (waiting only ring slots still in flight from the PREVIOUS round),
  /// start the persistent receives. Interior compute may overlap until
  /// finish(); enrolled fields must not be written in between.
  void begin();
  /// Complete phase 1 (wait receives, verify, unpack), run the zonal phase
  /// 2 the same way. Send requests are left in flight (deferred pool).
  /// Throws if begin() was not called, or if a participating field's buffer
  /// changed since begin().
  void finish();
  /// Full exchange, no overlap: begin(); finish().
  void exchange();

  /// East/west-only refresh of ALL enrolled fields (no redundancy
  /// elimination — versions are neither consulted nor recorded, so the next
  /// full exchange can never be wrongly skipped while meridional ghosts are
  /// stale), one fused message per zonal peer. Cannot be called while
  /// begin() is in flight.
  void exchange_zonal();

  std::size_t size() const { return slots_.size(); }

  /// Plan-cache observability (per group; process-wide totals go to the
  /// "halo.persistent.*" telemetry counters).
  std::uint64_t plan_builds() const { return plan_builds_; }
  std::uint64_t plan_hits() const { return plan_hits_; }
  std::uint64_t self_copies() const { return self_copies_; }
  std::uint64_t partial_exchanges() const { return partial_exchanges_; }

  /// Drop the cached plan (drains in-flight deferred sends first). Called
  /// by add(); exposed so tests can force a rebuild.
  void invalidate_plan();

 private:
  struct Slot {
    BlockField2D* f2 = nullptr;  ///< exactly one of f2/f3 is set
    BlockField3D* f3 = nullptr;
    FoldSign sign = FoldSign::Symmetric;
    Halo3DMethod method = Halo3DMethod::HorizontalMajor;
    int nz = 1;  ///< fixed at enrollment (2-D: 1; 3-D: field.nz())
    // Resolved at begin()/exchange_zonal() time (rotations swap buffers):
    bool participating = false;
    double* base = nullptr;
  };
  enum class Phase { Idle, Begun };

  /// A rectangular source box packed into a message, in sender-local
  /// halo-inclusive coordinates (same parameters as pack_box).
  struct PackBox {
    int j0, nj, i0, ni;
    bool fold = false;  ///< fold-seam box (fold_messages accounting)
  };
  /// A destination box scattered from a message (same parameters as
  /// unpack_box; fold selects the per-field FoldSign scale).
  struct UnpackBox {
    int j0, nj, i0, ni;
    long long dst_sj, dst_si;
    bool fold = false;
  };
  struct ZeroBox {
    int j0, nj, i0, ni;
  };

  /// One fused outbound message: every box this rank sends to `peer` in one
  /// phase, with a 2-deep deferred ring of pre-registered (buffer, request)
  /// pairs so starting a new round never blocks on the previous round's
  /// buffer.
  struct SendOp {
    int peer = -1;
    int tag = 0;
    std::vector<PackBox> boxes;
    std::size_t payload = 0;  ///< doubles, all slots, CRC word excluded
    struct RingSlot {
      std::vector<double> buf;
      comm::PersistentRequest req;
    };
    std::array<RingSlot, 2> ring;
    int cursor = 0;
  };
  /// One fused inbound message, same canonical box order as the sender.
  struct RecvOp {
    int peer = -1;
    int tag = 0;
    std::vector<UnpackBox> boxes;
    std::size_t payload = 0;
    std::vector<double> buf;
    comm::PersistentRequest req;
  };
  /// A peer-is-self "message": packed into staging and unpacked locally with
  /// the identical payload layout a wire message would have used.
  struct CopyOp {
    std::vector<PackBox> pack;
    std::vector<UnpackBox> unpack;
    std::vector<double> staging;
  };
  struct PhasePlan {
    std::vector<SendOp> sends;
    std::vector<RecvOp> recvs;
    std::vector<CopyOp> copies;
    std::vector<ZeroBox> zeros;
  };

  void ensure_plan();
  void build_plan();
  void drain_sends();
  /// Effective tag block: local block offset by the exchanger's tenant base.
  int eff_block() const;
  /// The persistent tag range is claimed for the PLAN's lifetime, not per
  /// exchange: registered persistent requests (and deferred ring sends) keep
  /// the tags live between rounds. Claimed in build_plan(), released by
  /// invalidate_plan()/destruction; an overlap with any live claim is a hard
  /// CommError.
  void claim_tags();
  void release_tags() noexcept;
  void resolve(Slot& slot);
  /// Doubles one box contributes for the currently participating slots.
  std::size_t box_elements(int nj, int ni) const;
  /// Doubles one box contributes when every slot participates (plan sizing).
  std::size_t box_elements_full(int nj, int ni) const;
  /// Post one phase: pack + start (or plain-send) every send op, start the
  /// persistent receives. Returns without waiting for anything inbound.
  void post_phase(PhasePlan& plan);
  /// Complete one phase: run self copies and zero boxes, wait + verify +
  /// unpack every receive. Deferred sends stay in flight.
  void complete_phase(PhasePlan& plan);
  void pack_message(const std::vector<PackBox>& boxes, double* out);
  void unpack_message(const std::vector<UnpackBox>& boxes, const double* in);
  void seal_crc(double* buf, std::size_t payload) const;
  void check_crc(const double* buf, std::size_t payload, int src) const;
  std::size_t message_doubles(std::size_t payload) const;

  HaloExchanger& ex_;
  int tag_block_;
  std::vector<Slot> slots_;
  Phase phase_ = Phase::Idle;
  std::size_t n_participating_ = 0;
  bool round_all_participating_ = true;

  bool plan_valid_ = false;
  bool tags_claimed_ = false;
  bool plan_crc_ = false;  ///< verify_crc the plan's buffers were sized for
  std::array<PhasePlan, 2> plan_;
  std::uint64_t plan_builds_ = 0;
  std::uint64_t plan_hits_ = 0;
  std::uint64_t self_copies_ = 0;
  std::uint64_t partial_exchanges_ = 0;
};

}  // namespace licomk::halo
