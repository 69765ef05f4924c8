// halo_exchange.hpp — the halo update engine (paper §V-D).
//
// The halo update has two components the paper optimizes separately:
//   1. pack/unpack — gathering boundary strips into contiguous message
//      buffers (and scattering them back). These run as kxx kernels so they
//      execute on the accelerator/CPEs ("the Kokkos was employed to
//      accelerate the optimized packing/unpacking routines").
//   2. halo exchange — the point-to-point messages: east/west (periodic),
//      north/south, and the tripolar north-fold seam, where ghost rows map to
//      the mirrored columns of the partner block with a sign flip for
//      velocity fields.
// 3-D updates support two methods: HorizontalMajor packs level-by-level in
// the field's native layout; TransposeVerticalMajor stages halo strips
// through a vertical-major transpose (Fig. 5a/b) so the vertical dimension is
// contiguous in the message — the optimization that removes the 3-D halo
// bottleneck as vertical levels grow.
//
// A version-based redundancy eliminator skips exchanges of fields unchanged
// since their last update (the paper's redundant pack/unpack elimination).
// Skip entries are keyed on (base pointer, allocation id): a new field
// allocated at a freed field's address never inherits the stale entry.
//
// Geometry lives in one place: the constructor builds a box table (which box
// goes to which peer, in which phase, across which fold seam) and every
// exchange walks it. The per-field update() sends one message per table
// entry; PersistentGroup (persistent_group.hpp) fuses the same entries into
// one message per peer per phase and shares this class's pack/unpack/skip
// machinery and wire check.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "comm/communicator.hpp"
#include "decomp/decomposition.hpp"
#include "halo/block_field.hpp"
#include "kxx/view.hpp"

namespace licomk::halo {

class PersistentGroup;

enum class Halo3DMethod {
  HorizontalMajor,         ///< native layout, k slowest in the message
  TransposeVerticalMajor,  ///< Fig. 5 transpose, k fastest in the message
};

/// A rectangle of a block field in halo-inclusive local coordinates: rows
/// [j0, j0 + nj), columns [i0, i0 + ni), every level.
struct HaloBox {
  int j0 = 0, nj = 0, i0 = 0, ni = 0;
};

/// One entry of the box table: a box exchanged with `peer` as one per-field
/// message with tag `tag`. A send entry's box is the interior strip this
/// rank packs; a receive entry's box is the ghost strip the peer's message
/// fills. `fold` marks the tripolar seam: a fold receive is mirrored (the
/// message's rows and columns run backwards through the box) and scaled by
/// the field's FoldSign.
struct BoxLink {
  int peer = -1;
  int tag = 0;
  HaloBox box;
  bool fold = false;
};

/// The halo geometry of one exchange phase: 0 = meridional + tripolar fold,
/// 1 = zonal over the full meridional extent (it reads phase 0's ghosts).
struct PhaseBoxes {
  std::vector<BoxLink> sends;  ///< this rank's sends, in canonical sender order
  /// The boxes from any one peer are in that peer's send order, so a fused
  /// message needs no header.
  std::vector<BoxLink> recvs;
  std::vector<HaloBox> zeros;  ///< ghosts beyond a closed boundary
};
using BoxTable = std::array<PhaseBoxes, 2>;

struct HaloStats {
  std::uint64_t exchanges = 0;        ///< field exchanges that did work
  std::uint64_t skipped = 0;          ///< updates elided as redundant
  std::uint64_t messages = 0;         ///< point-to-point messages actually sent
  std::uint64_t bytes = 0;
  std::uint64_t packed_elements = 0;  ///< elements through pack kernels
  std::uint64_t unpacked_elements = 0;
  std::uint64_t fold_messages = 0;
  /// Messages a per-field update() of the same work would have sent; the
  /// aggregation win is equiv_messages / messages.
  std::uint64_t equiv_messages = 0;
  std::uint64_t batches = 0;         ///< PersistentGroup exchanges that did work
  std::uint64_t batched_fields = 0;  ///< field exchanges carried by those groups
  /// Peer-is-self transfers a PersistentGroup turned into local copies
  /// instead of messages (px == 1 zonal wrap, self fold partners).
  std::uint64_t self_copies = 0;
};

/// Per-rank halo updater. Construct once per (decomposition, rank) and reuse;
/// it is not thread-safe across concurrent updates of the same instance.
class HaloExchanger {
 public:
  /// `verify_crc` enables per-message integrity: pack appends a CRC-64/XZ
  /// of the message payload as one trailing word; unpack recomputes and
  /// verifies it before scattering into the field. A mismatch (e.g. an
  /// injected in-flight bit flip) bumps "resilience.halo_crc_failures" and
  /// throws comm::CommError, which poisons the World so the run supervisor
  /// recovers instead of silently integrating corrupted ghost cells. All
  /// ranks of a run must agree on it (the message layout changes). A fused
  /// group message carries one CRC word for its whole multi-field payload.
  HaloExchanger(const decomp::Decomposition& decomp, comm::Communicator comm, int rank,
                bool verify_crc = false);

  /// Full 2-D halo update (both phases). `sign` selects the north-fold
  /// transformation (velocities flip sign across the seam).
  void update(BlockField2D& field, FoldSign sign = FoldSign::Symmetric);

  /// Full 3-D halo update.
  void update(BlockField3D& field, FoldSign sign = FoldSign::Symmetric,
              Halo3DMethod method = Halo3DMethod::TransposeVerticalMajor);

  /// --- split-phase update: computation/communication overlap (§V-D) ------
  /// begin_update packs and posts the meridional boundary sends; unrelated
  /// interior computation can run while those messages are in flight;
  /// finish_update receives, completes the zonal phase, and unpacks. The
  /// field must not be written between the calls. Results are identical to
  /// update() (asserted in test_halo).
  ///
  /// Lifecycle: a Pending is Null (default-constructed), Skipped (the begun
  /// exchange was elided as redundant), Active, or Finished. finish_update
  /// on a Null or already-Finished pending throws InvalidArgument — the
  /// silent-UB alternatives (double finish, finishing a pending that was
  /// never begun) were real bugs. Finishing a Skipped pending is a no-op
  /// (then Finished). An Active pending holds a View handle onto the field's
  /// buffer, so the data stays alive even if the field is destroyed; finish
  /// verifies the field still owns that same allocation and throws if the
  /// field was reallocated or swapped in between.
  class Pending {
   public:
    Pending() = default;
    /// True while a begun (non-skipped) exchange awaits finish_update.
    bool active() const { return state_ == State::Active; }

   private:
    friend class HaloExchanger;
    enum class State { Null, Skipped, Active, Finished };
    State state_ = State::Null;
    kxx::View<double, 3> view_;  ///< liveness anchor for the field's buffer
    const BlockField3D* field_ = nullptr;
    std::uint64_t alloc_id_ = 0;
    int nz_ = 0;
    FoldSign sign_ = FoldSign::Symmetric;
    Halo3DMethod method_ = Halo3DMethod::TransposeVerticalMajor;
  };
  Pending begin_update(BlockField3D& field, FoldSign sign = FoldSign::Symmetric,
                       Halo3DMethod method = Halo3DMethod::TransposeVerticalMajor);
  void finish_update(Pending& pending);

  /// Enable/disable redundant-exchange elimination (default on).
  void set_eliminate_redundant(bool on) { eliminate_redundant_ = on; }

  bool verify_crc() const { return verify_crc_; }

  /// Tenant tag-space partitioning: every PersistentGroup on this exchanger
  /// computes its message tags from (tag_base + local tag_block), so
  /// concurrent model instances can be given disjoint tag ranges without
  /// touching any group call site. The forecast farm assigns each tenant
  /// `tenant_index * LicomModel::kHaloTagBlocks`; standalone runs keep 0.
  /// Must be set before any group exchange on this exchanger.
  void set_tag_base(int base);
  int tag_base() const { return tag_base_; }

  const HaloStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  int rank() const { return rank_; }
  const decomp::BlockExtent& extent() const { return extent_; }

  /// Messages one full per-field exchange costs on this rank: the send
  /// entries of the box table, the per-field equivalent behind
  /// equiv_messages.
  int full_message_count() const;

  /// This rank's box table, built once at construction.
  const BoxTable& box_table() const { return table_; }

 private:
  friend class PersistentGroup;

  /// Redundancy-eliminator entry: the version last exchanged from a given
  /// base address, qualified by the owning field's allocation id so address
  /// reuse after free cannot alias a stale version (ISSUE 5 bugfix).
  struct SkipEntry {
    std::uint64_t alloc_id = 0;
    std::uint64_t version = 0;
  };

  /// Live tag-range registry. A group claims its inclusive tag range
  /// [first, last] when it builds its plan and releases it when the plan is
  /// dropped; two live owners whose ranges overlap are a hard CommError that
  /// names both owners — the silent alternative is FIFO cross-matching one
  /// group's payload into another group's ghost cells.
  void claim_tag_range(int first, int last, const std::string& owner);
  void release_tag_range(int first) noexcept;

  void build_box_table(const decomp::Decomposition& decomp);
  void require_block(const decomp::BlockExtent& e) const;
  bool should_skip(const void* key, std::uint64_t alloc_id, std::uint64_t version);
  void do_update(double* base, int nz, FoldSign sign, Halo3DMethod method);
  /// Per-field path: one message per send entry of a phase; then every
  /// receive entry and zero box of it.
  void send_phase(const PhaseBoxes& p, double* base, int nz, Halo3DMethod method);
  void recv_phase(const PhaseBoxes& p, double* base, int nz, FoldSign sign, Halo3DMethod method);
  void finish_phases(double* base, int nz, FoldSign sign, Halo3DMethod method);
  /// Pack/unpack one (nz, box) halo box to/from a contiguous buffer (kxx
  /// box-copy kernel); shared by per-field messages and groups. A fold
  /// unpack walks the box backwards in j and i.
  void pack_box(const double* base, int nz, Halo3DMethod method, const HaloBox& b, double* out);
  void unpack_box(double* base, int nz, Halo3DMethod method, const HaloBox& b, bool fold,
                  double scale, const double* in);
  void zero_box(double* base, int nz, const HaloBox& b);
  /// The wire check both paths share. A message is `payload` doubles plus,
  /// with verify_crc on, one trailing CRC word: seal_crc writes it;
  /// check_message rejects a received message whose byte count or CRC is
  /// wrong with a CommError naming the source and tag.
  std::size_t wire_doubles(std::size_t payload) const { return payload + (verify_crc_ ? 1 : 0); }
  void seal_crc(double* msg, std::size_t payload) const;
  void check_message(const double* msg, std::size_t payload, std::size_t got_bytes, int src,
                     int tag) const;
  /// Nonblocking send + request tracking: every per-field message goes
  /// through isend, with the Request parked in inflight_sends_ until the
  /// next drain point (the end of the phases that posted it). The comm
  /// layer's buffered sends complete at post time, so the drain is
  /// bookkeeping — but call sites are structured for genuinely asynchronous
  /// transports: no buffer is touched between post and drain.
  void post_send(const void* buf, std::size_t bytes, int dest, int tag);
  void drain_sends();

  comm::Communicator comm_;
  int rank_;
  decomp::BlockExtent extent_;
  bool verify_crc_;
  BoxTable table_;

  bool eliminate_redundant_ = true;
  int tag_base_ = 0;
  struct TagClaim {
    int first;
    int last;
    std::string owner;
  };
  std::vector<TagClaim> live_tag_claims_;
  std::unordered_map<const void*, SkipEntry> last_version_;
  std::vector<comm::Request> inflight_sends_;
  HaloStats stats_;
};

}  // namespace licomk::halo
