#include "halo/persistent_group.hpp"

#include <algorithm>

#include "halo/halo_internal.hpp"
#include "telemetry/telemetry.hpp"

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
  ex_.require_block(field.extent());
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
  ex_.require_block(field.extent());
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

std::size_t PersistentGroup::payload_doubles(std::span<const BoxLink> links, bool all) const {
  std::size_t n = 0;
  for (const BoxLink& l : links) {
    for (const Slot& s : slots_) {
      if (all || s.participating) n += static_cast<std::size_t>(s.nz) * l.box.nj * l.box.ni;
    }
  }
  return n;
}

void PersistentGroup::pack_message(std::span<const BoxLink> links, double* out) {
  std::size_t off = 0;
  for (const BoxLink& l : links) {
    for (Slot& s : slots_) {
      if (!s.participating) continue;
      ex_.pack_box(s.base, s.nz, s.method, l.box, out + off);
      off += static_cast<std::size_t>(s.nz) * l.box.nj * l.box.ni;
    }
  }
}

void PersistentGroup::unpack_message(std::span<const BoxLink> links, const double* in) {
  std::size_t off = 0;
  for (const BoxLink& l : links) {
    for (Slot& s : slots_) {
      if (!s.participating) continue;
      const double scale = l.fold && s.sign == FoldSign::Antisymmetric ? -1.0 : 1.0;
      ex_.unpack_box(s.base, s.nz, s.method, l.box, l.fold, scale, in + off);
      off += static_cast<std::size_t>(s.nz) * l.box.nj * l.box.ni;
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
    for (MessageOp& op : plan.sends) {
      if (op.req.started()) ex_.comm_.wait(op.req);
    }
  }
}

void PersistentGroup::ensure_plan() {
  if (plan_valid_) {
    ++plan_hits_;
    note_counter("halo.persistent.plan_hits", 1);
    return;
  }
  build_plan();
  plan_valid_ = true;
  ++plan_builds_;
  note_counter("halo.persistent.plan_builds", 1);
}

void PersistentGroup::fuse(std::span<const BoxLink> links, std::vector<MessageOp>& ops,
                           std::span<const BoxLink>& self) const {
  // One allocation per op list, no regrowth: plans are built mid-step, where
  // stray small chunks pin heap memory (DESIGN §10, "Spans, not copies").
  ops.reserve(links.size());
  std::size_t a = 0;
  while (a < links.size()) {
    const int peer = links[a].peer;
    std::size_t b = a + 1;
    while (b < links.size() && links[b].peer == peer) ++b;
    LICOMK_REQUIRE(std::none_of(links.begin() + static_cast<std::ptrdiff_t>(b), links.end(),
                                [&](const BoxLink& l) { return l.peer == peer; }),
                   "box table lists one peer's entries in two runs");
    const std::span<const BoxLink> run = links.subspan(a, b - a);
    if (peer == ex_.rank_) {
      self = run;
    } else {
      ops.push_back(MessageOp{peer, run});
    }
    a = b;
  }
}

void PersistentGroup::build_plan() {
  drain_sends();
  plan_ = {};
  // The registered requests below keep this group's tags live until the plan
  // is dropped; surface a conflicting live owner now, not at match time.
  claim_tags();
  for (std::size_t phase = 0; phase < plan_.size(); ++phase) {
    const PhaseBoxes& boxes = ex_.box_table()[phase];
    PhasePlan& plan = plan_[phase];
    plan.tag = group_tag(eff_block(), static_cast<int>(phase));
    fuse(boxes.sends, plan.sends, plan.self.pack);
    fuse(boxes.recvs, plan.recvs, plan.self.unpack);
    // My sends to myself, in send order, are exactly my receives from myself
    // in that peer's (my) send order: they pair positionally.
    LICOMK_REQUIRE(plan.self.pack.size() == plan.self.unpack.size(),
                   "self-copy pack/unpack box mismatch (box table bug)");
    plan.self.staging.assign(payload_doubles(plan.self.pack, true), 0.0);
    for (MessageOp& op : plan.sends) {
      op.payload = payload_doubles(op.links, true);
      op.buf.assign(ex_.wire_doubles(op.payload), 0.0);
      op.req = ex_.comm_.send_init(op.buf.data(), op.buf.size() * sizeof(double), op.peer,
                                   plan.tag);
    }
    for (MessageOp& op : plan.recvs) {
      op.payload = payload_doubles(op.links, true);
      op.buf.assign(ex_.wire_doubles(op.payload), 0.0);
      op.req = ex_.comm_.recv_init(op.buf.data(), op.buf.size() * sizeof(double), op.peer,
                                   plan.tag);
    }
  }
}

void PersistentGroup::post_phase(PhasePlan& plan) {
  for (MessageOp& op : plan.sends) {
    // Persistent fast path: the one registered buffer is refilled only after
    // its previous start() is waited (bookkeeping: start() already copied the
    // payload out). A partial round's message sizes depend on which fields
    // participate, so the fixed-size persistent requests cannot carry it:
    // same fused layout, plain nonblocking send. Participation is symmetric
    // across ranks (fields go dirty in lockstep), so the receiver takes the
    // same branch this round and sizes match.
    double* msg = op.buf.data();
    std::size_t payload = op.payload;
    std::vector<double> partial;
    if (round_all_participating_) {
      if (op.req.started()) ex_.comm_.wait(op.req);
    } else {
      payload = payload_doubles(op.links, false);
      partial.resize(ex_.wire_doubles(payload));
      msg = partial.data();
    }
    pack_message(op.links, msg);
    ex_.seal_crc(msg, payload);
    const std::uint64_t msg_bytes = ex_.wire_doubles(payload) * sizeof(double);
    if (round_all_participating_) {
      ex_.comm_.start(op.req);
    } else {
      comm::Request req = ex_.comm_.isend(msg, msg_bytes, op.peer, plan.tag);
      ex_.comm_.wait(req);  // buffered send: completes immediately
    }
    ex_.stats_.messages += 1;
    ex_.stats_.bytes += msg_bytes;
    note_message(msg_bytes);
    for (const BoxLink& l : op.links) {
      if (l.fold) {
        ex_.stats_.fold_messages += 1;
        note_counter("halo.fold_messages", 1);
      }
    }
  }
  if (round_all_participating_) {
    for (MessageOp& op : plan.recvs) ex_.comm_.start(op.req);
  }
}

void PersistentGroup::complete_phase(int phase) {
  PhasePlan& plan = plan_[static_cast<std::size_t>(phase)];
  if (!plan.self.pack.empty()) {
    // The local leg of the peer-is-self entries: identical payload layout,
    // never touches the communicator, never counted as a message.
    pack_message(plan.self.pack, plan.self.staging.data());
    unpack_message(plan.self.unpack, plan.self.staging.data());
    ++self_copies_;
    ex_.stats_.self_copies += 1;
    note_counter("halo.persistent.self_copies", 1);
  }
  for (const HaloBox& z : ex_.box_table()[static_cast<std::size_t>(phase)].zeros) {
    for (Slot& s : slots_) {
      if (s.participating) ex_.zero_box(s.base, s.nz, z);
    }
  }
  for (MessageOp& op : plan.recvs) {
    const double* msg = op.buf.data();
    std::size_t payload = op.payload;
    std::size_t got = 0;
    std::vector<double> partial;
    if (round_all_participating_) {
      ex_.comm_.wait(op.req);
      got = op.req.last_status().bytes;
    } else {
      payload = payload_doubles(op.links, false);
      partial.resize(ex_.wire_doubles(payload));
      got = ex_.comm_.recv(partial.data(), partial.size() * sizeof(double), op.peer, plan.tag)
                .bytes;
      msg = partial.data();
    }
    ex_.check_message(msg, payload, got, op.peer, plan.tag);
    unpack_message(op.links, msg);
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
  complete_phase(0);
  post_phase(plan_[1]);
  complete_phase(1);
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
  complete_phase(1);
}

}  // namespace licomk::halo
