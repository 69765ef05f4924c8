#include "halo/halo_exchange.hpp"

#include <algorithm>
#include <cstring>

#include "halo/box_copy.hpp"
#include "halo/halo_internal.hpp"
#include "kxx/kxx.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"

KXX_REGISTER_FOR_1D(halo_box_copy, licomk::halo::detail::BoxCopy);

namespace licomk::halo {

using detail::BoxCopy;
using detail::box_copy;
using detail::BufStrides;
using detail::buffer_strides;
using detail::note_counter;
using detail::note_message;

HaloExchanger::HaloExchanger(const decomp::Decomposition& decomp, comm::Communicator comm,
                             int rank, bool verify_crc)
    : comm_(comm), rank_(rank), extent_(decomp.block(rank)), verify_crc_(verify_crc) {
  LICOMK_REQUIRE(extent_.nx() >= decomp::kHaloWidth && extent_.ny() >= decomp::kHaloWidth,
                 "block smaller than the halo width");
  build_box_table(decomp);
}

/// Sends are listed in the canonical sender order (phase 0: to south, to
/// north, then one fold box per partner by ascending block column; phase 1:
/// to west, to east). A receive is the mirror of some peer's send — my north
/// neighbor's "to south" box fills my north ghost rows, and so on — and the
/// receives are listed in that same canonical order, so the boxes from any
/// one peer come in that peer's send order.
void HaloExchanger::build_box_table(const decomp::Decomposition& decomp) {
  const int h = decomp::kHaloWidth;
  const int nx = extent_.nx();
  const int ny = extent_.ny();
  const int nxt = nx + 2 * h;
  const int nyt = ny + 2 * h;
  const decomp::Neighbors n = decomp.neighbors(rank_);
  const bool north = n.north >= 0 && !n.north_is_fold;

  PhaseBoxes& mer = table_[0];
  if (n.south >= 0) mer.sends.push_back({n.south, detail::kTagToSouth, {h, h, h, nx}, false});
  if (north) mer.sends.push_back({n.north, detail::kTagToNorth, {ny, h, h, nx}, false});
  if (north) mer.recvs.push_back({n.north, detail::kTagToSouth, {h + ny, h, h, nx}, false});
  if (n.south >= 0) {
    mer.recvs.push_back({n.south, detail::kTagToNorth, {0, h, h, nx}, false});
  } else {
    mer.zeros.push_back({0, h, 0, nxt});
  }
  if (n.north_is_fold) {
    // Fold partners: the top-row blocks owning the mirrors (global column m
    // pairs with nxg-1-m) of my columns [lo, hi). I send those columns' top
    // rows; the partner's mirrored copy fills my ghost rows above them.
    const int nxg = decomp.nx();
    for (int bx = 0; bx < decomp.px(); ++bx) {
      const int r = decomp.rank_of(bx, decomp.py() - 1);
      const decomp::BlockExtent e = decomp.block(r);
      const int lo = std::max(nxg - e.i1, extent_.i0);
      const int hi = std::min(nxg - e.i0, extent_.i1);
      if (lo >= hi) continue;
      const int i0 = h + (lo - extent_.i0);
      mer.sends.push_back({r, detail::kTagFold, {ny, h, i0, hi - lo}, true});
      mer.recvs.push_back({r, detail::kTagFold, {h + ny, h, i0, hi - lo}, true});
    }
  } else if (!north) {
    mer.zeros.push_back({h + ny, h, 0, nxt});
  }

  PhaseBoxes& zon = table_[1];
  if (n.west >= 0) zon.sends.push_back({n.west, detail::kTagToWest, {0, nyt, h, h}, false});
  if (n.east >= 0) zon.sends.push_back({n.east, detail::kTagToEast, {0, nyt, nx, h}, false});
  if (n.east >= 0) zon.recvs.push_back({n.east, detail::kTagToWest, {0, nyt, h + nx, h}, false});
  if (n.west >= 0) zon.recvs.push_back({n.west, detail::kTagToEast, {0, nyt, 0, h}, false});
  if (n.west < 0) zon.zeros.push_back({0, nyt, 0, h});
  if (n.east < 0) zon.zeros.push_back({0, nyt, h + nx, h});
}

int HaloExchanger::full_message_count() const {
  return static_cast<int>(table_[0].sends.size() + table_[1].sends.size());
}

void HaloExchanger::require_block(const decomp::BlockExtent& e) const {
  LICOMK_REQUIRE(e.cells() == extent_.cells() && e.i0 == extent_.i0 && e.j0 == extent_.j0,
                 "field extent does not match this exchanger's block");
}

void HaloExchanger::set_tag_base(int base) {
  LICOMK_REQUIRE(base >= 0, "HaloExchanger tag_base must be >= 0");
  LICOMK_REQUIRE(live_tag_claims_.empty(),
                 "cannot change the tag_base while a group plan holds a tag claim");
  tag_base_ = base;
}

void HaloExchanger::claim_tag_range(int first, int last, const std::string& owner) {
  for (const TagClaim& c : live_tag_claims_) {
    if (first <= c.last && c.first <= last) {
      throw CommError("halo tag collision on rank " + std::to_string(rank_) + ": " + owner +
                      " claims tags [" + std::to_string(first) + ", " + std::to_string(last) +
                      "] while " + c.owner + " holds [" + std::to_string(c.first) + ", " +
                      std::to_string(c.last) +
                      "] — two live groups would FIFO-match each other's messages; give "
                      "them distinct tag_blocks (or tenants distinct tag_bases)");
    }
  }
  live_tag_claims_.push_back(TagClaim{first, last, owner});
}

void HaloExchanger::release_tag_range(int first) noexcept {
  for (std::size_t k = 0; k < live_tag_claims_.size(); ++k) {
    if (live_tag_claims_[k].first == first) {
      live_tag_claims_.erase(live_tag_claims_.begin() + static_cast<std::ptrdiff_t>(k));
      return;
    }
  }
}

bool HaloExchanger::should_skip(const void* key, std::uint64_t alloc_id,
                                std::uint64_t version) {
  if (!eliminate_redundant_) return false;
  auto [it, inserted] = last_version_.try_emplace(key, SkipEntry{alloc_id, 0});
  if (!inserted && it->second.alloc_id != alloc_id) {
    // Address reuse: a different allocation now lives at this base pointer.
    // The old entry is stale — never let the new field inherit its version.
    it->second = SkipEntry{alloc_id, 0};
  }
  if (!inserted && it->second.version == version) {
    stats_.skipped += 1;
    note_counter("halo.skipped", 1);
    return true;
  }
  it->second.version = version;
  return false;
}

void HaloExchanger::update(BlockField2D& field, FoldSign sign) {
  require_block(field.extent());
  if (should_skip(field.view().data(), field.alloc_id(), field.version())) return;
  do_update(field.view().data(), 1, sign, Halo3DMethod::HorizontalMajor);
}

void HaloExchanger::update(BlockField3D& field, FoldSign sign, Halo3DMethod method) {
  require_block(field.extent());
  if (should_skip(field.view().data(), field.alloc_id(), field.version())) return;
  do_update(field.view().data(), field.nz(), sign, method);
}

void HaloExchanger::pack_box(const double* base, int nz, Halo3DMethod method, const HaloBox& b,
                             double* out) {
  const long long nxt = extent_.nx() + 2 * decomp::kHaloWidth;
  const long long nyt = extent_.ny() + 2 * decomp::kHaloWidth;
  BufStrides bs = buffer_strides(method, nz, b.nj, b.ni);
  BoxCopy op;
  op.src = base + static_cast<long long>(b.j0) * nxt + b.i0;
  op.dst = out;
  op.n1 = b.nj;
  op.n2 = b.ni;
  op.ss0 = nxt * nyt;
  op.ss1 = nxt;
  op.ss2 = 1;
  op.ds0 = bs.s0;
  op.ds1 = bs.s1;
  op.ds2 = bs.s2;
  box_copy(op, nz);
  const std::uint64_t elements = static_cast<std::uint64_t>(nz) * b.nj * b.ni;
  stats_.packed_elements += elements;
  note_counter("halo.packed_elements", elements);
}

void HaloExchanger::unpack_box(double* base, int nz, Halo3DMethod method, const HaloBox& b,
                               bool fold, double scale, const double* in) {
  const long long nxt = extent_.nx() + 2 * decomp::kHaloWidth;
  const long long nyt = extent_.ny() + 2 * decomp::kHaloWidth;
  BufStrides bs = buffer_strides(method, nz, b.nj, b.ni);
  // Across the fold the message's first row is the partner's row farthest
  // from the seam (my outermost ghost row) and its columns ascend where mine
  // descend: start at the box's far corner and walk backwards.
  const long long j = fold ? b.j0 + b.nj - 1 : b.j0;
  const long long i = fold ? b.i0 + b.ni - 1 : b.i0;
  BoxCopy op;
  op.src = in;
  op.dst = base + j * nxt + i;
  op.n1 = b.nj;
  op.n2 = b.ni;
  op.ss0 = bs.s0;
  op.ss1 = bs.s1;
  op.ss2 = bs.s2;
  op.ds0 = nxt * nyt;
  op.ds1 = fold ? -nxt : nxt;
  op.ds2 = fold ? -1 : 1;
  op.scale = scale;
  box_copy(op, nz);
  const std::uint64_t elements = static_cast<std::uint64_t>(nz) * b.nj * b.ni;
  stats_.unpacked_elements += elements;
  note_counter("halo.unpacked_elements", elements);
}

void HaloExchanger::zero_box(double* base, int nz, const HaloBox& b) {
  const long long nxt = extent_.nx() + 2 * decomp::kHaloWidth;
  const long long nyt = extent_.ny() + 2 * decomp::kHaloWidth;
  const long long plane = nxt * nyt;
  for (int k = 0; k < nz; ++k)
    for (int j = b.j0; j < b.j0 + b.nj; ++j)
      std::fill_n(base + k * plane + static_cast<long long>(j) * nxt + b.i0, b.ni, 0.0);
}

void HaloExchanger::seal_crc(double* msg, std::size_t payload) const {
  if (!verify_crc_) return;
  util::Crc64 crc;
  crc.update(msg, payload * sizeof(double));
  const std::uint64_t value = crc.value();
  std::memcpy(msg + payload, &value, sizeof(value));
}

void HaloExchanger::check_message(const double* msg, std::size_t payload, std::size_t got_bytes,
                                  int src, int tag) const {
  auto where = [&] {
    return " on rank " + std::to_string(rank_) + " (from rank " + std::to_string(src) +
           ", tag " + std::to_string(tag) + ")";
  };
  const std::size_t expected = wire_doubles(payload) * sizeof(double);
  if (got_bytes != expected) {
    throw CommError("halo message size mismatch" + where() + ": got " +
                    std::to_string(got_bytes) + " bytes, expected " + std::to_string(expected) +
                    " — ranks disagree on the message layout (a group's enrolled/dirty fields)");
  }
  if (!verify_crc_) return;
  util::Crc64 crc;
  crc.update(msg, payload * sizeof(double));
  std::uint64_t stored = 0;
  std::memcpy(&stored, msg + payload, sizeof(stored));
  if (crc.value() != stored) {
    note_counter("resilience.halo_crc_failures", 1);
    throw CommError("halo message CRC mismatch" + where() + ": in-flight corruption detected");
  }
}

void HaloExchanger::post_send(const void* buf, std::size_t bytes, int dest, int tag) {
  inflight_sends_.push_back(comm_.isend(buf, bytes, dest, tag));
  stats_.messages += 1;
  stats_.bytes += bytes;
  note_message(bytes);
}

void HaloExchanger::drain_sends() {
  comm_.wait_all(std::span<comm::Request>(inflight_sends_));
  inflight_sends_.clear();
}

void HaloExchanger::send_phase(const PhaseBoxes& p, double* base, int nz,
                               Halo3DMethod method) {
  for (const BoxLink& l : p.sends) {
    const std::size_t payload = static_cast<std::size_t>(nz) * l.box.nj * l.box.ni;
    std::vector<double> buf(wire_doubles(payload));
    pack_box(base, nz, method, l.box, buf.data());
    seal_crc(buf.data(), payload);
    post_send(buf.data(), buf.size() * sizeof(double), l.peer, l.tag);
    if (l.fold) {
      stats_.fold_messages += 1;
      note_counter("halo.fold_messages", 1);
    }
  }
}

void HaloExchanger::recv_phase(const PhaseBoxes& p, double* base, int nz, FoldSign sign,
                               Halo3DMethod method) {
  for (const HaloBox& z : p.zeros) zero_box(base, nz, z);
  const double fold_scale = sign == FoldSign::Symmetric ? 1.0 : -1.0;
  for (const BoxLink& l : p.recvs) {
    const std::size_t payload = static_cast<std::size_t>(nz) * l.box.nj * l.box.ni;
    std::vector<double> buf(wire_doubles(payload));
    const comm::Status st = comm_.recv(buf.data(), buf.size() * sizeof(double), l.peer, l.tag);
    check_message(buf.data(), payload, st.bytes, l.peer, l.tag);
    unpack_box(base, nz, method, l.box, l.fold, l.fold ? fold_scale : 1.0, buf.data());
  }
}

/// Phase 0 receives + the full zonal phase 1 (which depends on phase 0's
/// unpacked ghosts).
void HaloExchanger::finish_phases(double* base, int nz, FoldSign sign, Halo3DMethod method) {
  recv_phase(table_[0], base, nz, sign, method);
  send_phase(table_[1], base, nz, method);
  recv_phase(table_[1], base, nz, sign, method);
  drain_sends();
}

void HaloExchanger::do_update(double* base, int nz, FoldSign sign, Halo3DMethod method) {
  telemetry::ScopedSpan span("halo_exchange", "halo", {}, nz);
  stats_.exchanges += 1;
  stats_.equiv_messages += static_cast<std::uint64_t>(full_message_count());
  note_counter("halo.exchanges", 1);
  send_phase(table_[0], base, nz, method);
  finish_phases(base, nz, sign, method);
}

HaloExchanger::Pending HaloExchanger::begin_update(BlockField3D& field, FoldSign sign,
                                                   Halo3DMethod method) {
  require_block(field.extent());
  Pending p;
  if (should_skip(field.view().data(), field.alloc_id(), field.version())) {
    p.state_ = Pending::State::Skipped;
    return p;
  }
  p.state_ = Pending::State::Active;
  p.view_ = field.view();
  p.field_ = &field;
  p.alloc_id_ = field.alloc_id();
  p.nz_ = field.nz();
  p.sign_ = sign;
  p.method_ = method;
  stats_.exchanges += 1;
  stats_.equiv_messages += static_cast<std::uint64_t>(full_message_count());
  note_counter("halo.exchanges", 1);
  {
    telemetry::ScopedSpan span("halo_begin", "halo", {}, p.nz_);
    send_phase(table_[0], p.view_.data(), p.nz_, p.method_);
  }
  return p;
}

void HaloExchanger::finish_update(Pending& pending) {
  switch (pending.state_) {
    case Pending::State::Null:
      throw licomk::InvalidArgument(
          "finish_update on a pending that was never begun (default-constructed)");
    case Pending::State::Finished:
      throw licomk::InvalidArgument("finish_update called twice on the same pending");
    case Pending::State::Skipped:
      pending.state_ = Pending::State::Finished;
      return;
    case Pending::State::Active:
      break;
  }
  // The begun exchange posted messages from pending.view_'s buffer; the
  // receives below unpack into it. The field must still own that exact
  // allocation — a swap/move/reallocation in between means the caller would
  // silently scatter ghosts into a dead (but View-kept-alive) buffer.
  LICOMK_REQUIRE(pending.field_ != nullptr &&
                     pending.field_->view().data() == pending.view_.data() &&
                     pending.field_->alloc_id() == pending.alloc_id_,
                 "finish_update: the field no longer owns the buffer this exchange was begun "
                 "on (moved, swapped, or reallocated between begin_update and finish_update)");
  telemetry::ScopedSpan span("halo_finish", "halo", {}, pending.nz_);
  finish_phases(pending.view_.data(), pending.nz_, pending.sign_, pending.method_);
  pending.state_ = Pending::State::Finished;
}

}  // namespace licomk::halo
