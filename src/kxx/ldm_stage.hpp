// ldm_stage.hpp — the LDM tile-staging pipeline for the AthreadSim backend.
//
// This is the paper's §V-C memory optimization: instead of dereferencing main
// memory element-by-element, the CPE entry stages each tile's input slabs
// into LDM with strided async DMA (one command per k-plane), re-points the
// functor copy's view members at the packed slabs, computes against LDM, and
// writes the output slabs back. With double buffering the gets for tile t+1
// are issued before tile t computes (prologue / steady state / epilogue, two
// LDM buffers per staged view), so transfers overlap compute — the overlap
// depth is sampled into `dma.async_in_flight_max`.
//
// Fallback: when a tile's worst-case footprint exceeds the free LDM, the
// kernel runs on main memory exactly like the unstaged path (correctness
// never depends on staging); the skipped traffic is accounted in
// `ldm.direct_bytes` and `kxx.ldm_stage_fallbacks`.
#pragma once

#include <cstddef>

#include "kxx/access.hpp"
#include "kxx/launch.hpp"
#include "swsim/athread.hpp"
#include "telemetry/telemetry.hpp"

namespace licomk::kxx::detail {

/// Per-tile slab geometry of one staged view (tile bounds plus declared halo
/// for inputs; exactly the tile for outputs).
struct SlabBox {
  long long lo[3];   ///< first global index staged, per dim
  long long ext[3];  ///< staged extent, per dim
  long long doubles() const { return ext[0] * ext[1] * ext[2]; }
  long long bytes() const { return doubles() * static_cast<long long>(sizeof(double)); }
};

inline SlabBox slab_for_tile(const StagedView& v, const long long lo[3], const long long hi[3],
                             bool with_halo) {
  SlabBox s;
  for (int dim = 0; dim < 3; ++dim) {
    int hlo = with_halo ? v.halo_lo[dim] : 0;
    int hhi = with_halo ? v.halo_hi[dim] : 0;
    s.lo[dim] = lo[dim] - hlo;
    s.ext[dim] = (hi[dim] - lo[dim]) + hlo + hhi;
  }
  return s;
}

/// Worst-case staged bytes of one view for any tile of this launch.
inline long long worst_slab_bytes(const CpeLaunch& d, const StagedView& v) {
  long long lo[3] = {0, 0, 0};
  long long hi[3];
  for (int dim = 0; dim < 3; ++dim) {
    hi[dim] = dim < d.num_dims ? std::min(d.tile[dim], d.end[dim] - d.begin[dim]) : 1;
  }
  bool with_halo = v.mode == AccessMode::In;
  return slab_for_tile(v, lo, hi, with_halo).bytes();
}

/// Stages the tiles assigned to the calling CPE for one For3D launch.
/// Instantiated per functor type from the rank-3 cpe_entry_for.
template <typename Functor>
class LdmStageRun {
 public:
  LdmStageRun(const CpeLaunch& d, Functor& f, AccessSpec& spec)
      : d_(d), f_(f), spec_(spec), ctx_(*swsim::this_cpe()) {}

  /// True when every staged buffer fits the CPE's free LDM.
  bool fits(int nbuf) const {
    long long total = 0;
    for (int i = 0; i < spec_.size(); ++i) {
      total += static_cast<long long>(nbuf) * worst_slab_bytes(d_, spec_.view(i));
    }
    return total >= 0 &&
           static_cast<std::size_t>(total) <= ctx_.ldm().capacity() - ctx_.ldm().in_use();
  }

  /// Direct execution with byte accounting: what staging would have moved is
  /// recorded as ldm.direct_bytes so the ablation can compare traffic.
  void run_direct(const TileAssignment& a) {
    long long direct_bytes = 0;
    for (long long t = a.first_tile; t < a.last_tile; ++t) {
      long long lo[3];
      long long hi[3];
      tile_bounds(d_, a, t, lo, hi);
      for (int i = 0; i < spec_.size(); ++i) {
        const StagedView& v = spec_.view(i);
        long long b = slab_for_tile(v, lo, hi, v.mode == AccessMode::In).bytes();
        direct_bytes += v.mode == AccessMode::InOut ? 2 * b : b;
      }
      for_each_index_in_tile(d_, a, t,
                             [&](long long i0, long long i1, long long i2) { f_(i0, i1, i2); });
    }
    if (telemetry::enabled() && direct_bytes > 0) {
      static telemetry::Counter& c = telemetry::counter("ldm.direct_bytes");
      c.add(static_cast<std::uint64_t>(direct_bytes));
    }
  }

  /// Staged execution; `nbuf` = 1 (synchronous slabs) or 2 (double-buffered).
  void run_staged(const TileAssignment& a, int nbuf) {
    if (a.first_tile >= a.last_tile) return;
    // Buffers are worst-case sized so remainder tiles reuse them; LIFO frees.
    double* buf[AccessSpec::kMaxViews][2] = {};
    int allocated = 0;
    for (int i = 0; i < spec_.size(); ++i) {
      for (int b = 0; b < nbuf; ++b) {
        buf[i][b] = static_cast<double*>(
            swsim::ldm_malloc(static_cast<std::size_t>(worst_slab_bytes(d_, spec_.view(i)))));
        ++allocated;
      }
    }
    swsim::DmaEngine& dma = ctx_.dma();
    try {
      pipeline(a, nbuf, buf, dma);
    } catch (...) {
      free_buffers(buf, nbuf, allocated);
      throw;
    }
    free_buffers(buf, nbuf, allocated);
    if (telemetry::enabled() && staged_bytes_ > 0) {
      static telemetry::Counter& c = telemetry::counter("ldm.staged_bytes");
      c.add(static_cast<std::uint64_t>(staged_bytes_));
    }
  }

 private:
  void free_buffers(double* buf[][2], int nbuf, int allocated) {
    for (int i = spec_.size() - 1; i >= 0 && allocated > 0; --i) {
      for (int b = nbuf - 1; b >= 0 && allocated > 0; --b, --allocated) {
        swsim::ldm_free(buf[i][b]);
      }
    }
  }

  /// Issue the strided gets staging tile t's inputs into parity `b`.
  void issue_gets(const TileAssignment& a, long long t, int b, double* buf[][2],
                  swsim::DmaEngine& dma) {
    long long lo[3];
    long long hi[3];
    tile_bounds(d_, a, t, lo, hi);
    for (int i = 0; i < spec_.size(); ++i) {
      const StagedView& v = spec_.view(i);
      if (v.mode == AccessMode::Out) continue;
      SlabBox s = slab_for_tile(v, lo, hi, v.mode == AccessMode::In);
      if (s.doubles() <= 0) continue;
      for (long long k = 0; k < s.ext[0]; ++k) {
        const double* src = v.base + (s.lo[0] + k) * v.plane + s.lo[1] * v.row + s.lo[2];
        dma.iget_strided(buf[i][b] + k * s.ext[1] * s.ext[2], src,
                         static_cast<std::size_t>(s.ext[2]) * sizeof(double),
                         static_cast<std::size_t>(s.ext[1]),
                         static_cast<std::size_t>(v.row) * sizeof(double), get_reply_[b]);
        gets_issued_[b] += 1;
        staged_bytes_ += s.ext[1] * s.ext[2] * static_cast<long long>(sizeof(double));
      }
    }
  }

  /// Issue the strided puts writing tile t's outputs back from parity `b`.
  void issue_puts(const TileAssignment& a, long long t, int b, double* buf[][2],
                  swsim::DmaEngine& dma) {
    long long lo[3];
    long long hi[3];
    tile_bounds(d_, a, t, lo, hi);
    for (int i = 0; i < spec_.size(); ++i) {
      const StagedView& v = spec_.view(i);
      if (v.mode == AccessMode::In) continue;
      SlabBox s = slab_for_tile(v, lo, hi, /*with_halo=*/false);
      if (s.doubles() <= 0) continue;
      // InOut slabs are halo-free, so the get and put geometry coincide.
      auto* base = const_cast<double*>(v.base);
      for (long long k = 0; k < s.ext[0]; ++k) {
        double* dst = base + (s.lo[0] + k) * v.plane + s.lo[1] * v.row + s.lo[2];
        dma.iput_strided(dst, buf[i][b] + k * s.ext[1] * s.ext[2],
                         static_cast<std::size_t>(s.ext[2]) * sizeof(double),
                         static_cast<std::size_t>(s.ext[1]),
                         static_cast<std::size_t>(v.row) * sizeof(double), put_reply_[b]);
        puts_issued_[b] += 1;
        staged_bytes_ += s.ext[1] * s.ext[2] * static_cast<long long>(sizeof(double));
      }
    }
  }

  void wait_gets(int b, swsim::DmaEngine& dma) {
    if (gets_issued_[b] > get_reply_[b].acknowledged) dma.wait(get_reply_[b], gets_issued_[b]);
  }
  void wait_puts(int b, swsim::DmaEngine& dma) {
    if (puts_issued_[b] > put_reply_[b].acknowledged) dma.wait(put_reply_[b], puts_issued_[b]);
  }

  /// Re-point the functor copy's staged views at the parity-`b` slabs of
  /// tile t, run the tile, restore the main-memory pointers.
  void compute(const TileAssignment& a, long long t, int b, double* buf[][2]) {
    long long lo[3];
    long long hi[3];
    tile_bounds(d_, a, t, lo, hi);
    for (int i = 0; i < spec_.size(); ++i) {
      const StagedView& v = spec_.view(i);
      SlabBox s = slab_for_tile(v, lo, hi, v.mode == AccessMode::In);
      long long plane = s.ext[1] * s.ext[2];
      long long row = s.ext[2];
      // Virtual origin: global (i0,i1,i2) indexing lands inside the slab.
      v.patch(buf[i][b] - s.lo[0] * plane - s.lo[1] * row - s.lo[2], plane, row);
    }
    for_each_index_in_tile(d_, a, t,
                           [&](long long i0, long long i1, long long i2) { f_(i0, i1, i2); });
    for (int i = 0; i < spec_.size(); ++i) spec_.view(i).restore();
  }

  /// Record how many async transfers are in flight while this tile computes.
  void sample_overlap(swsim::DmaEngine& dma) {
    dma.record_overlap();
    if (telemetry::enabled()) {
      static telemetry::Counter& c = telemetry::counter("dma.async_in_flight_max");
      c.record_max(dma.pending_async());
    }
  }

  void pipeline(const TileAssignment& a, int nbuf, double* buf[][2], swsim::DmaEngine& dma) {
    issue_gets(a, a.first_tile, 0, buf, dma);
    for (long long t = a.first_tile; t < a.last_tile; ++t) {
      const int b = nbuf == 2 ? static_cast<int>((t - a.first_tile) & 1) : 0;
      wait_gets(b, dma);
      if (nbuf == 2 && t + 1 < a.last_tile) issue_gets(a, t + 1, 1 - b, buf, dma);
      wait_puts(b, dma);  // the parity-b out slabs are free again (tile t-2 landed)
      sample_overlap(dma);
      compute(a, t, b, buf);
      issue_puts(a, t, b, buf, dma);
      if (nbuf == 1) {
        wait_puts(0, dma);
        if (t + 1 < a.last_tile) issue_gets(a, t + 1, 0, buf, dma);
      }
    }
    wait_puts(0, dma);
    if (nbuf == 2) wait_puts(1, dma);
  }

  const CpeLaunch& d_;
  Functor& f_;
  AccessSpec& spec_;
  swsim::CpeContext& ctx_;
  swsim::DmaReply get_reply_[2];
  swsim::DmaReply put_reply_[2];
  int gets_issued_[2] = {0, 0};
  int puts_issued_[2] = {0, 0};
  long long staged_bytes_ = 0;
};

/// Entry point used by the rank-3 cpe_entry_for for descriptor-carrying functors.
/// Works on a private functor copy so pointer patching never leaks into the
/// MPE-side functor other CPEs read.
template <typename Functor>
void staged_entry_for(const CpeLaunch& d) {
  Functor f = *static_cast<const Functor*>(d.functor);
  AccessSpec spec;
  f.kxx_access(spec);
  const int cpe = swsim::this_cpe()->id();
  TileAssignment a = assign_tiles(d, cpe, swsim::CoreGroup::kNumCpes);
  LdmStageRun<Functor> run(d, f, spec);
  const int nbuf = d.staging == 2 ? 2 : 1;
  if (d.staging == 0 || spec.size() == 0 || !run.fits(nbuf)) {
    if (d.staging != 0) {
      if (telemetry::enabled()) {
        static telemetry::Counter& c = telemetry::counter("kxx.ldm_stage_fallbacks");
        c.add(1);
      }
    }
    run.run_direct(a);
    return;
  }
  run.run_staged(a, nbuf);
}

}  // namespace licomk::kxx::detail
