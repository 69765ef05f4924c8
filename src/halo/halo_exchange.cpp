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
                             int rank)
    : decomp_(decomp), comm_(comm), rank_(rank), extent_(decomp.block(rank)),
      neigh_(decomp.neighbors(rank)) {
  LICOMK_REQUIRE(extent_.nx() >= decomp::kHaloWidth && extent_.ny() >= decomp::kHaloWidth,
                 "block smaller than the halo width");
  top_row_fold_ = decomp.tripolar() && extent_.j1 == decomp.ny();
  if (top_row_fold_) {
    // Partners owning my mirrored column interval on the top block row.
    int nxg = decomp.nx();
    int lo = nxg - extent_.i1;
    int hi = nxg - extent_.i0;
    int py = decomp.py();
    for (int bx = 0; bx < decomp.px(); ++bx) {
      int r = decomp.rank_of(bx, py - 1);
      decomp::BlockExtent e = decomp.block(r);
      int a = std::max(lo, e.i0);
      int b = std::min(hi, e.i1);
      if (a < b) fold_partners_.push_back(FoldPartner{r, a, b});
    }
  }
}

int HaloExchanger::full_message_count() const {
  int n = 0;
  if (neigh_.south >= 0) ++n;
  if (neigh_.north >= 0 && !neigh_.north_is_fold) ++n;
  n += static_cast<int>(fold_partners_.size());
  if (neigh_.west >= 0) ++n;
  if (neigh_.east >= 0) ++n;
  return n;
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
  LICOMK_REQUIRE(field.extent().cells() == extent_.cells() && field.extent().i0 == extent_.i0 &&
                     field.extent().j0 == extent_.j0,
                 "field extent does not match this exchanger's block");
  if (should_skip(field.view().data(), field.alloc_id(), field.version())) return;
  do_update(field.view().data(), 1, sign, Halo3DMethod::HorizontalMajor);
}

void HaloExchanger::update(BlockField3D& field, FoldSign sign, Halo3DMethod method) {
  LICOMK_REQUIRE(field.extent().cells() == extent_.cells() && field.extent().i0 == extent_.i0 &&
                     field.extent().j0 == extent_.j0,
                 "field extent does not match this exchanger's block");
  if (should_skip(field.view().data(), field.alloc_id(), field.version())) return;
  do_update(field.view().data(), field.nz(), sign, method);
}

void HaloExchanger::pack_box(const double* base, int nz, Halo3DMethod method, int j0, int nj,
                             int i0, int ni, double* out) {
  const long long nxt = extent_.nx() + 2 * decomp::kHaloWidth;
  const long long nyt = extent_.ny() + 2 * decomp::kHaloWidth;
  BufStrides bs = buffer_strides(method, nz, nj, ni);
  BoxCopy op;
  op.src = base + static_cast<long long>(j0) * nxt + i0;
  op.dst = out;
  op.n1 = nj;
  op.n2 = ni;
  op.ss0 = nxt * nyt;
  op.ss1 = nxt;
  op.ss2 = 1;
  op.ds0 = bs.s0;
  op.ds1 = bs.s1;
  op.ds2 = bs.s2;
  box_copy(op, nz);
  const std::uint64_t elements = static_cast<std::uint64_t>(nz) * nj * ni;
  stats_.packed_elements += elements;
  note_counter("halo.packed_elements", elements);
}

void HaloExchanger::unpack_box(double* base, int nz, Halo3DMethod method, int j0, int nj,
                               int i0, int ni, long long dst_sj, long long dst_si, double scale,
                               const double* in) {
  const long long nxt = extent_.nx() + 2 * decomp::kHaloWidth;
  const long long nyt = extent_.ny() + 2 * decomp::kHaloWidth;
  BufStrides bs = buffer_strides(method, nz, nj, ni);
  BoxCopy op;
  op.src = in;
  op.dst = base + static_cast<long long>(j0) * nxt + i0;
  op.n1 = nj;
  op.n2 = ni;
  op.ss0 = bs.s0;
  op.ss1 = bs.s1;
  op.ss2 = bs.s2;
  op.ds0 = nxt * nyt;
  op.ds1 = dst_sj;
  op.ds2 = dst_si;
  op.scale = scale;
  box_copy(op, nz);
  const std::uint64_t elements = static_cast<std::uint64_t>(nz) * nj * ni;
  stats_.unpacked_elements += elements;
  note_counter("halo.unpacked_elements", elements);
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

void HaloExchanger::send_box(double* base, int nz, Halo3DMethod method, int dest, int tag,
                             int j0, int nj, int i0, int ni) {
  const size_t payload = static_cast<size_t>(nz) * nj * ni;
  // With CRC verification on, the message carries one trailing word holding
  // the CRC-64 of the packed payload.
  std::vector<double> buf(payload + (verify_crc_ ? 1 : 0));
  pack_box(base, nz, method, j0, nj, i0, ni, buf.data());
  if (verify_crc_) {
    util::Crc64 crc;
    crc.update(buf.data(), payload * sizeof(double));
    std::uint64_t value = crc.value();
    std::memcpy(&buf[payload], &value, sizeof(value));
  }
  post_send(buf.data(), buf.size() * sizeof(double), dest, tag);
}

void HaloExchanger::recv_box(double* base, int nz, Halo3DMethod method, int src, int tag,
                             int j0, int nj, int i0, int ni, long long dst_sj, long long dst_si,
                             double scale) {
  const size_t payload = static_cast<size_t>(nz) * nj * ni;
  std::vector<double> buf(payload + (verify_crc_ ? 1 : 0));
  comm_.recv(buf.data(), buf.size() * sizeof(double), src, tag);
  if (verify_crc_) {
    util::Crc64 crc;
    crc.update(buf.data(), payload * sizeof(double));
    std::uint64_t stored = 0;
    std::memcpy(&stored, &buf[payload], sizeof(stored));
    if (crc.value() != stored) {
      note_counter("resilience.halo_crc_failures", 1);
      throw CommError("halo message CRC mismatch on rank " + std::to_string(rank_) +
                            " (from rank " + std::to_string(src) + ", tag " +
                            std::to_string(tag) + "): in-flight corruption detected");
    }
  }
  unpack_box(base, nz, method, j0, nj, i0, ni, dst_sj, dst_si, scale, buf.data());
}

void HaloExchanger::zero_box(double* base, int nz, int j0, int nj, int i0, int ni) {
  const long long nxt = extent_.nx() + 2 * decomp::kHaloWidth;
  const long long nyt = extent_.ny() + 2 * decomp::kHaloWidth;
  const long long plane = nxt * nyt;
  for (int k = 0; k < nz; ++k)
    for (int j = j0; j < j0 + nj; ++j)
      std::fill_n(base + k * plane + static_cast<long long>(j) * nxt + i0, ni, 0.0);
}

/// Phase 1 sends: north/south + fold, interior columns. This is the portion
/// begin_update posts before the caller's overlapped computation.
void HaloExchanger::send_phase1(double* base, int nz, Halo3DMethod method) {
  const int h = decomp::kHaloWidth;
  const int nx = extent_.nx();
  const int ny = extent_.ny();
  if (neigh_.south >= 0)
    send_box(base, nz, method, neigh_.south, detail::kTagToSouth, h, h, h, nx);
  if (neigh_.north >= 0 && !neigh_.north_is_fold) {
    send_box(base, nz, method, neigh_.north, detail::kTagToNorth, h + ny - h, h, h, nx);
  }
  if (top_row_fold_) {
    const int nxg = decomp_.nx();
    for (const FoldPartner& p : fold_partners_) {
      // I send the mirror of the columns I receive: global [nxg - hi, nxg - lo).
      int g_lo = nxg - p.col_hi;
      int i_loc = h + (g_lo - extent_.i0);
      send_box(base, nz, method, p.rank, detail::kTagFold, h + ny - h, h, i_loc,
               p.col_hi - p.col_lo);
      stats_.fold_messages += 1;
      note_counter("halo.fold_messages", 1);
    }
  }
}

/// Phase 1 receives + the full zonal phase 2 (which depends on phase 1's
/// unpacked ghosts).
void HaloExchanger::finish_phases(double* base, int nz, FoldSign sign, Halo3DMethod method) {
  const int h = decomp::kHaloWidth;
  const int nx = extent_.nx();
  const int ny = extent_.ny();
  const long long nxt = nx + 2 * h;
  const long long nyt = ny + 2 * h;
  const double fold_scale = sign == FoldSign::Symmetric ? 1.0 : -1.0;

  if (neigh_.south >= 0) {
    recv_box(base, nz, method, neigh_.south, detail::kTagToNorth, 0, h, h, nx, nxt, 1, 1.0);
  } else {
    zero_box(base, nz, 0, h, 0, static_cast<int>(nxt));
  }
  if (neigh_.north >= 0 && !neigh_.north_is_fold) {
    recv_box(base, nz, method, neigh_.north, detail::kTagToSouth, h + ny, h, h, nx, nxt, 1,
             1.0);
  } else if (!top_row_fold_) {
    zero_box(base, nz, h + ny, h, 0, static_cast<int>(nxt));
  }
  if (top_row_fold_) {
    const int nxg = decomp_.nx();
    for (const FoldPartner& p : fold_partners_) {
      // Received buffer covers global columns [col_lo, col_hi), rows
      // (ny_g-2, ny_g-1) ascending. Ghost row d=1 (local h+ny) mirrors the
      // top row; d=2 mirrors the row below it. Columns mirror: global m maps
      // to local i = h + (nxg-1-m) - i0, so ascending m walks i downward.
      int ni = p.col_hi - p.col_lo;
      int i_start = h + (nxg - 1 - p.col_lo) - extent_.i0;
      recv_box(base, nz, method, p.rank, detail::kTagFold, h + ny + 1, h, i_start, ni, -nxt,
               -1, fold_scale);
    }
  }

  /// ---- Phase 2: east/west over the full meridional extent ----------------
  if (neigh_.west >= 0) {
    send_box(base, nz, method, neigh_.west, detail::kTagToWest, 0, static_cast<int>(nyt), h,
             h);
  }
  if (neigh_.east >= 0) {
    send_box(base, nz, method, neigh_.east, detail::kTagToEast, 0, static_cast<int>(nyt),
             h + nx - h, h);
  }
  if (neigh_.west >= 0) {
    recv_box(base, nz, method, neigh_.west, detail::kTagToEast, 0, static_cast<int>(nyt), 0, h,
             nxt, 1, 1.0);
  } else {
    zero_box(base, nz, 0, static_cast<int>(nyt), 0, h);
  }
  if (neigh_.east >= 0) {
    recv_box(base, nz, method, neigh_.east, detail::kTagToWest, 0, static_cast<int>(nyt),
             h + nx, h, nxt, 1, 1.0);
  } else {
    zero_box(base, nz, 0, static_cast<int>(nyt), h + nx, h);
  }
  drain_sends();
}

void HaloExchanger::do_update(double* base, int nz, FoldSign sign, Halo3DMethod method) {
  telemetry::ScopedSpan span("halo_exchange", "halo", {}, nz);
  stats_.exchanges += 1;
  stats_.equiv_messages += static_cast<std::uint64_t>(full_message_count());
  note_counter("halo.exchanges", 1);
  send_phase1(base, nz, method);
  finish_phases(base, nz, sign, method);
}

HaloExchanger::Pending HaloExchanger::begin_update(BlockField3D& field, FoldSign sign,
                                                   Halo3DMethod method) {
  LICOMK_REQUIRE(field.extent().cells() == extent_.cells() && field.extent().i0 == extent_.i0 &&
                     field.extent().j0 == extent_.j0,
                 "field extent does not match this exchanger's block");
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
    send_phase1(p.view_.data(), p.nz_, p.method_);
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
