#include "halo/persistent_group.hpp"

#include <algorithm>
#include <cstring>

#include "halo/halo_internal.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"

namespace licomk::halo {

using detail::note_counter;
using detail::note_message;
using detail::group_tag;

PersistentGroup::PersistentGroup(HaloExchanger& exchanger, int tag_block)
    : ex_(exchanger), tag_block_(tag_block) {
  LICOMK_REQUIRE(tag_block >= 0, "PersistentGroup tag_block must be >= 0");
}

PersistentGroup::~PersistentGroup() {
  try {
    drain_sends();
  } catch (...) {
    // A poisoned world can make the drain throw; destruction must not.
  }
  release_tags();
}

int PersistentGroup::eff_block() const { return ex_.tag_base_ + tag_block_; }

void PersistentGroup::claim_tags() {
  if (tags_claimed_) return;
  ex_.claim_tag_range(group_tag(eff_block(), 0), group_tag(eff_block(), 1),
                      "PersistentGroup(tag_block=" + std::to_string(tag_block_) +
                          ", tag_base=" + std::to_string(ex_.tag_base_) + ")");
  tags_claimed_ = true;
}

void PersistentGroup::release_tags() noexcept {
  if (!tags_claimed_) return;
  ex_.release_tag_range(group_tag(eff_block(), 0));
  tags_claimed_ = false;
}

void PersistentGroup::add(BlockField2D& field, FoldSign sign) {
  LICOMK_REQUIRE(phase_ == Phase::Idle, "cannot enroll fields while an exchange is in flight");
  LICOMK_REQUIRE(field.extent().cells() == ex_.extent_.cells() &&
                     field.extent().i0 == ex_.extent_.i0 && field.extent().j0 == ex_.extent_.j0,
                 "field extent does not match this exchanger's block");
  Slot s;
  s.f2 = &field;
  s.sign = sign;
  s.method = Halo3DMethod::HorizontalMajor;
  s.nz = 1;
  slots_.push_back(s);
  invalidate_plan();
}

void PersistentGroup::add(BlockField3D& field, FoldSign sign, Halo3DMethod method) {
  LICOMK_REQUIRE(phase_ == Phase::Idle, "cannot enroll fields while an exchange is in flight");
  LICOMK_REQUIRE(field.extent().cells() == ex_.extent_.cells() &&
                     field.extent().i0 == ex_.extent_.i0 && field.extent().j0 == ex_.extent_.j0,
                 "field extent does not match this exchanger's block");
  Slot s;
  s.f3 = &field;
  s.sign = sign;
  s.method = method;
  s.nz = field.nz();
  slots_.push_back(s);
  invalidate_plan();
}

void PersistentGroup::resolve(Slot& slot) {
  if (slot.f2 != nullptr) {
    slot.base = slot.f2->view().data();
  } else {
    slot.base = slot.f3->view().data();
  }
}

std::size_t PersistentGroup::box_elements(int nj, int ni) const {
  std::size_t n = 0;
  for (const Slot& s : slots_) {
    if (s.participating) n += static_cast<std::size_t>(s.nz) * nj * ni;
  }
  return n;
}

std::size_t PersistentGroup::box_elements_full(int nj, int ni) const {
  std::size_t n = 0;
  for (const Slot& s : slots_) n += static_cast<std::size_t>(s.nz) * nj * ni;
  return n;
}

std::size_t PersistentGroup::message_doubles(std::size_t payload) const {
  return payload + (plan_crc_ ? 1 : 0);
}

void PersistentGroup::seal_crc(double* buf, std::size_t payload) const {
  if (!plan_crc_) return;
  util::Crc64 crc;
  crc.update(buf, payload * sizeof(double));
  std::uint64_t value = crc.value();
  std::memcpy(buf + payload, &value, sizeof(value));
}

void PersistentGroup::check_crc(const double* buf, std::size_t payload, int src) const {
  if (!plan_crc_) return;
  util::Crc64 crc;
  crc.update(buf, payload * sizeof(double));
  std::uint64_t stored = 0;
  std::memcpy(&stored, buf + payload, sizeof(stored));
  if (crc.value() != stored) {
    note_counter("resilience.halo_crc_failures", 1);
    throw CommError("persistent halo CRC mismatch on rank " + std::to_string(ex_.rank_) +
                    " (from rank " + std::to_string(src) + "): in-flight corruption detected");
  }
}

void PersistentGroup::pack_message(const std::vector<PackBox>& boxes, double* out) {
  std::size_t off = 0;
  for (const PackBox& b : boxes) {
    for (Slot& s : slots_) {
      if (!s.participating) continue;
      ex_.pack_box(s.base, s.nz, s.method, b.j0, b.nj, b.i0, b.ni, out + off);
      off += static_cast<std::size_t>(s.nz) * b.nj * b.ni;
    }
  }
}

void PersistentGroup::unpack_message(const std::vector<UnpackBox>& boxes, const double* in) {
  std::size_t off = 0;
  for (const UnpackBox& b : boxes) {
    for (Slot& s : slots_) {
      if (!s.participating) continue;
      const double scale = b.fold ? (s.sign == FoldSign::Symmetric ? 1.0 : -1.0) : 1.0;
      ex_.unpack_box(s.base, s.nz, s.method, b.j0, b.nj, b.i0, b.ni, b.dst_sj, b.dst_si, scale,
                     in + off);
      off += static_cast<std::size_t>(s.nz) * b.nj * b.ni;
    }
  }
}

void PersistentGroup::invalidate_plan() {
  drain_sends();
  plan_ = {};
  plan_valid_ = false;
  release_tags();
}

void PersistentGroup::drain_sends() {
  for (PhasePlan& plan : plan_) {
    for (SendOp& op : plan.sends) {
      for (SendOp::RingSlot& slot : op.ring) {
        if (slot.req.started()) ex_.comm_.wait(slot.req);
      }
    }
  }
}

void PersistentGroup::ensure_plan() {
  if (plan_valid_ && plan_crc_ == ex_.verify_crc_) {
    ++plan_hits_;
    note_counter("halo.persistent.plan_hits", 1);
    return;
  }
  build_plan();
  plan_valid_ = true;
  ++plan_builds_;
  note_counter("halo.persistent.plan_builds", 1);
}

void PersistentGroup::build_plan() {
  drain_sends();
  plan_ = {};
  // The registered requests below keep this group's tags live until the plan
  // is dropped; surface a conflicting live owner now, not at match time.
  claim_tags();
  plan_crc_ = ex_.verify_crc_;

  const int h = decomp::kHaloWidth;
  const int nx = ex_.extent_.nx();
  const int ny = ex_.extent_.ny();
  const long long nxt = nx + 2 * h;
  const int nyt = ny + 2 * h;
  const int nxg = ex_.decomp_.nx();
  const int me = ex_.rank_;

  // Sender-order (peer, box) enumerations. The SENDER's enumeration order is
  // the canonical payload order of a fused message; the receiver reproduces
  // it below from the same decomposition facts, so no header is needed.
  struct SB {
    int peer;
    PackBox box;
  };
  struct RB {
    int peer;
    UnpackBox box;
  };

  std::array<std::vector<SB>, 2> sends;
  std::array<std::vector<RB>, 2> recvs;

  // ---- phase 0: meridional + fold (the per-field send_phase1 boxes) ------
  if (ex_.neigh_.south >= 0) {
    sends[0].push_back({ex_.neigh_.south, {h, h, h, nx, false}});
  }
  if (ex_.neigh_.north >= 0 && !ex_.neigh_.north_is_fold) {
    sends[0].push_back({ex_.neigh_.north, {h + ny - h, h, h, nx, false}});
  }
  if (ex_.top_row_fold_) {
    for (const HaloExchanger::FoldPartner& p : ex_.fold_partners_) {
      int g_lo = nxg - p.col_hi;
      int i_loc = h + (g_lo - ex_.extent_.i0);
      sends[0].push_back({p.rank, {h + ny - h, h, i_loc, p.col_hi - p.col_lo, true}});
    }
  }
  // Receives from each distinct phase-0 peer, boxes in THAT PEER's send
  // order: its "to south" box first, then its "to north" box, then its fold
  // box (fold partnership is symmetric under the column mirror).
  {
    std::vector<int> peers;
    auto push_peer = [&](int r) {
      if (r >= 0 && std::find(peers.begin(), peers.end(), r) == peers.end()) peers.push_back(r);
    };
    if (ex_.neigh_.north >= 0 && !ex_.neigh_.north_is_fold) push_peer(ex_.neigh_.north);
    push_peer(ex_.neigh_.south);
    if (ex_.top_row_fold_) {
      for (const HaloExchanger::FoldPartner& p : ex_.fold_partners_) push_peer(p.rank);
    }
    for (int peer : peers) {
      if (ex_.neigh_.north == peer && !ex_.neigh_.north_is_fold) {
        // peer's "to south" box: sent iff peer.south == me.
        recvs[0].push_back({peer, {h + ny, h, h, nx, nxt, 1, false}});
      }
      if (ex_.neigh_.south == peer) {
        // peer's "to north" box: sent iff peer.north == me (non-fold).
        recvs[0].push_back({peer, {0, h, h, nx, nxt, 1, false}});
      }
      if (ex_.top_row_fold_) {
        for (const HaloExchanger::FoldPartner& p : ex_.fold_partners_) {
          if (p.rank != peer) continue;
          int ni = p.col_hi - p.col_lo;
          int i_start = h + (nxg - 1 - p.col_lo) - ex_.extent_.i0;
          recvs[0].push_back({peer, {h + ny + 1, h, i_start, ni, -nxt, -1, true}});
        }
      }
    }
  }
  if (ex_.neigh_.south < 0) {
    plan_[0].zeros.push_back({0, h, 0, static_cast<int>(nxt)});
  }
  if (!(ex_.neigh_.north >= 0 && !ex_.neigh_.north_is_fold) && !ex_.top_row_fold_) {
    plan_[0].zeros.push_back({h + ny, h, 0, static_cast<int>(nxt)});
  }

  // ---- phase 1: zonal (the per-field phase-2 boxes) ----------------------
  if (ex_.neigh_.west >= 0) {
    sends[1].push_back({ex_.neigh_.west, {0, nyt, h, h, false}});
  }
  if (ex_.neigh_.east >= 0) {
    sends[1].push_back({ex_.neigh_.east, {0, nyt, h + nx - h, h, false}});
  }
  {
    std::vector<int> peers;
    auto push_peer = [&](int r) {
      if (r >= 0 && std::find(peers.begin(), peers.end(), r) == peers.end()) peers.push_back(r);
    };
    push_peer(ex_.neigh_.east);
    push_peer(ex_.neigh_.west);
    for (int peer : peers) {
      if (ex_.neigh_.east == peer) {
        // peer's "to west" box: sent iff peer.west == me; fills my east ghost.
        recvs[1].push_back({peer, {0, nyt, h + nx, h, nxt, 1, false}});
      }
      if (ex_.neigh_.west == peer) {
        // peer's "to east" box: sent iff peer.east == me; fills my west ghost.
        recvs[1].push_back({peer, {0, nyt, 0, h, nxt, 1, false}});
      }
    }
  }
  if (ex_.neigh_.west < 0) plan_[1].zeros.push_back({0, nyt, 0, h});
  if (ex_.neigh_.east < 0) plan_[1].zeros.push_back({0, nyt, h + nx, h});

  // ---- fold the enumerations into fused ops and register buffers ----------
  for (int phase = 0; phase < 2; ++phase) {
    PhasePlan& plan = plan_[static_cast<std::size_t>(phase)];
    const int tag = group_tag(eff_block(), phase);
    CopyOp copy;
    for (const SB& s : sends[static_cast<std::size_t>(phase)]) {
      if (s.peer == me) {
        copy.pack.push_back(s.box);
        continue;
      }
      auto it = std::find_if(plan.sends.begin(), plan.sends.end(),
                             [&](const SendOp& op) { return op.peer == s.peer; });
      if (it == plan.sends.end()) {
        plan.sends.emplace_back();
        it = plan.sends.end() - 1;
        it->peer = s.peer;
        it->tag = tag;
      }
      it->boxes.push_back(s.box);
    }
    for (const RB& r : recvs[static_cast<std::size_t>(phase)]) {
      if (r.peer == me) {
        copy.unpack.push_back(r.box);
        continue;
      }
      auto it = std::find_if(plan.recvs.begin(), plan.recvs.end(),
                             [&](const RecvOp& op) { return op.peer == r.peer; });
      if (it == plan.recvs.end()) {
        plan.recvs.emplace_back();
        it = plan.recvs.end() - 1;
        it->peer = r.peer;
        it->tag = tag;
      }
      it->boxes.push_back(r.box);
    }
    if (!copy.pack.empty() || !copy.unpack.empty()) {
      // A self-send and its matching self-receive come from the same
      // enumeration, so they pair positionally with identical box shapes.
      LICOMK_REQUIRE(copy.pack.size() == copy.unpack.size(),
                     "self-copy pack/unpack box mismatch (plan construction bug)");
      std::size_t staging = 0;
      for (const PackBox& b : copy.pack) staging += box_elements_full(b.nj, b.ni);
      copy.staging.assign(staging, 0.0);
      plan.copies.push_back(std::move(copy));
    }
    for (SendOp& op : plan.sends) {
      for (const PackBox& b : op.boxes) op.payload += box_elements_full(b.nj, b.ni);
      for (SendOp::RingSlot& slot : op.ring) {
        slot.buf.assign(message_doubles(op.payload), 0.0);
        slot.req = ex_.comm_.send_init(slot.buf.data(), slot.buf.size() * sizeof(double),
                                       op.peer, op.tag);
      }
    }
    for (RecvOp& op : plan.recvs) {
      for (const UnpackBox& b : op.boxes) op.payload += box_elements_full(b.nj, b.ni);
      op.buf.assign(message_doubles(op.payload), 0.0);
      op.req =
          ex_.comm_.recv_init(op.buf.data(), op.buf.size() * sizeof(double), op.peer, op.tag);
    }
  }
}

void PersistentGroup::post_phase(PhasePlan& plan) {
  for (SendOp& op : plan.sends) {
    std::uint64_t msg_bytes = 0;
    if (round_all_participating_) {
      // Persistent fast path: reuse the pre-registered ring slot. Waiting is
      // only needed if the slot's previous send is still in flight — the
      // deferred-pool discipline that keeps start() from ever blocking on
      // buffer reuse.
      SendOp::RingSlot& slot = op.ring[static_cast<std::size_t>(op.cursor)];
      if (slot.req.started()) ex_.comm_.wait(slot.req);
      pack_message(op.boxes, slot.buf.data());
      seal_crc(slot.buf.data(), op.payload);
      ex_.comm_.start(slot.req);
      op.cursor ^= 1;
      msg_bytes = slot.buf.size() * sizeof(double);
    } else {
      // Partial round: message sizes depend on which fields participate, so
      // the fixed-size persistent requests cannot carry it. Same fused
      // layout, plain nonblocking send. Participation is symmetric across
      // ranks (fields go dirty in lockstep), so the receiver takes the same
      // branch this round and sizes match.
      std::size_t payload = 0;
      for (const PackBox& b : op.boxes) payload += box_elements(b.nj, b.ni);
      std::vector<double> buf(message_doubles(payload));
      pack_message(op.boxes, buf.data());
      seal_crc(buf.data(), payload);
      comm::Request req =
          ex_.comm_.isend(buf.data(), buf.size() * sizeof(double), op.peer, op.tag);
      ex_.comm_.wait(req);  // buffered send: completes immediately
      msg_bytes = buf.size() * sizeof(double);
    }
    ex_.stats_.messages += 1;
    ex_.stats_.bytes += msg_bytes;
    note_message(msg_bytes);
    for (const PackBox& b : op.boxes) {
      if (b.fold) {
        ex_.stats_.fold_messages += 1;
        note_counter("halo.fold_messages", 1);
      }
    }
  }
  if (round_all_participating_) {
    for (RecvOp& op : plan.recvs) ex_.comm_.start(op.req);
  }
}

void PersistentGroup::complete_phase(PhasePlan& plan) {
  for (CopyOp& op : plan.copies) {
    // The local leg of a peer-is-self "message": identical payload layout,
    // never touches the communicator, never counted as a message.
    pack_message(op.pack, op.staging.data());
    unpack_message(op.unpack, op.staging.data());
    ++self_copies_;
    ex_.stats_.self_copies += 1;
    note_counter("halo.persistent.self_copies", 1);
  }
  for (const ZeroBox& z : plan.zeros) {
    for (Slot& s : slots_) {
      if (s.participating) ex_.zero_box(s.base, s.nz, z.j0, z.nj, z.i0, z.ni);
    }
  }
  for (RecvOp& op : plan.recvs) {
    if (round_all_participating_) {
      ex_.comm_.wait(op.req);
      const std::size_t expected = op.buf.size() * sizeof(double);
      if (op.req.last_status().bytes != expected) {
        throw CommError("persistent halo message size mismatch on rank " +
                        std::to_string(ex_.rank_) + " (from rank " + std::to_string(op.peer) +
                        "): got " + std::to_string(op.req.last_status().bytes) +
                        " bytes, expected " + std::to_string(expected) +
                        " — ranks disagree on the group's enrolled/dirty fields");
      }
      check_crc(op.buf.data(), op.payload, op.peer);
      unpack_message(op.boxes, op.buf.data());
    } else {
      std::size_t payload = 0;
      for (const UnpackBox& b : op.boxes) payload += box_elements(b.nj, b.ni);
      std::vector<double> buf(message_doubles(payload));
      const std::size_t expected = buf.size() * sizeof(double);
      comm::Status st = ex_.comm_.recv(buf.data(), expected, op.peer, op.tag);
      if (st.bytes != expected) {
        throw CommError("persistent halo message size mismatch on rank " +
                        std::to_string(ex_.rank_) + " (from rank " + std::to_string(op.peer) +
                        "): got " + std::to_string(st.bytes) + " bytes, expected " +
                        std::to_string(expected) +
                        " — ranks disagree on the group's enrolled/dirty fields");
      }
      check_crc(buf.data(), payload, op.peer);
      unpack_message(op.boxes, buf.data());
    }
  }
}

void PersistentGroup::begin() {
  LICOMK_REQUIRE(phase_ == Phase::Idle,
                 "PersistentGroup::begin() while an exchange is already in flight");
  phase_ = Phase::Begun;
  n_participating_ = 0;
  for (Slot& s : slots_) {
    resolve(s);
    const std::uint64_t alloc_id = s.f2 != nullptr ? s.f2->alloc_id() : s.f3->alloc_id();
    const std::uint64_t version = s.f2 != nullptr ? s.f2->version() : s.f3->version();
    s.participating = !ex_.should_skip(s.base, alloc_id, version);
    if (s.participating) ++n_participating_;
  }
  // Nothing to send: no plan is built and no tags are claimed, so a group
  // whose fields are all current (halo_in after step 1) costs nothing.
  if (n_participating_ == 0) return;
  ensure_plan();
  round_all_participating_ = n_participating_ == slots_.size();
  if (!round_all_participating_) {
    ++partial_exchanges_;
    note_counter("halo.persistent.partial_exchanges", 1);
  }
  ex_.stats_.exchanges += n_participating_;
  ex_.stats_.equiv_messages +=
      n_participating_ * static_cast<std::uint64_t>(ex_.full_message_count());
  ex_.stats_.batches += 1;
  ex_.stats_.batched_fields += n_participating_;
  note_counter("halo.exchanges", n_participating_);
  telemetry::ScopedSpan span("halo_persistent_begin", "halo", {},
                             static_cast<long long>(n_participating_));
  post_phase(plan_[0]);
}

void PersistentGroup::finish() {
  LICOMK_REQUIRE(phase_ == Phase::Begun, "PersistentGroup::finish() without a begin()");
  phase_ = Phase::Idle;
  if (n_participating_ == 0) return;
  // The phase-0 sends were packed from the buffers resolved at begin(); the
  // unpacks below must land in those same buffers.
  for (const Slot& s : slots_) {
    if (!s.participating) continue;
    const double* now = s.f2 != nullptr ? s.f2->view().data() : s.f3->view().data();
    LICOMK_REQUIRE(now == s.base,
                   "PersistentGroup::finish(): an enrolled field's buffer changed between "
                   "begin() and finish() (moved, swapped, or reallocated)");
  }
  telemetry::ScopedSpan span("halo_persistent_finish", "halo", {},
                             static_cast<long long>(n_participating_));
  complete_phase(plan_[0]);
  post_phase(plan_[1]);
  complete_phase(plan_[1]);
}

void PersistentGroup::exchange() {
  begin();
  finish();
}

void PersistentGroup::exchange_zonal() {
  LICOMK_REQUIRE(phase_ == Phase::Idle,
                 "PersistentGroup::exchange_zonal() while an exchange is in flight");
  if (slots_.empty()) return;
  ensure_plan();
  for (Slot& s : slots_) {
    resolve(s);
    s.participating = true;
  }
  n_participating_ = slots_.size();
  round_all_participating_ = true;
  ex_.stats_.exchanges += slots_.size();
  ex_.stats_.equiv_messages +=
      slots_.size() * static_cast<std::uint64_t>(ex_.full_message_count());
  ex_.stats_.batches += 1;
  ex_.stats_.batched_fields += slots_.size();
  note_counter("halo.exchanges", slots_.size());
  telemetry::ScopedSpan span("halo_persistent_zonal", "halo", {},
                             static_cast<long long>(slots_.size()));
  post_phase(plan_[1]);
  complete_phase(plan_[1]);
}

}  // namespace licomk::halo
