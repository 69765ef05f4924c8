#include "core/vmix.hpp"

#include <algorithm>
#include <cstring>

#include "core/constants.hpp"
#include "core/field_ref.hpp"
#include "decomp/load_balance.hpp"
#include "kxx/kxx.hpp"

namespace licomk::core {

namespace {
constexpr double kRiMin = -2.0;
constexpr double kRiMax = 50.0;
constexpr double kShearEps = 1e-10;  ///< floor on S^2 (1/s^2)
constexpr double kKappaCap = 0.5;    ///< m^2/s

constexpr int kTagVmixRequest = 30;
constexpr int kTagVmixResponse = 31;
}  // namespace

// --- the closure, written once over i-lanes ----------------------------------
//
// Every function below is the packed form of a scalar closure; its N = 1
// instance IS the scalar function (canuto_sm, canuto_mixing, ...). Branches
// become int[N] lane masks and bitwise kxx::select of both arms, each arm
// the scalar branch's own expression, so every lane is bit-identical to the
// branchy scalar code (DESIGN.md §12.1-12.2). std::clamp(v, lo, hi) is
// std::min(std::max(v, lo), hi) and kxx::min/max follow std::min/max lane by
// lane, so the clamps and caps keep their bits too.
namespace vmix {

template <int N>
using P = kxx::Pack<double, N>;

template <int N>
__attribute__((always_inline)) inline P<N> clamp(const P<N>& v, double lo, double hi) {
  return kxx::min(kxx::max(v, P<N>(lo)), P<N>(hi));
}

/// The stable-branch mask ri >= 0 per lane; true when every lane is stable.
/// The pack-uniform test skips the unstable arm, whose divisions the select
/// would discard anyway: stable stratification (ri >= 0) is the common case,
/// and the closure is bound by its divisions.
template <int N>
__attribute__((always_inline)) inline bool stable_lanes(const P<N>& ri, int (&stable)[N]) {
  int all = 1;
  for (int l = 0; l < N; ++l) {
    stable[l] = ri[l] >= 0.0;
    all &= stable[l];
  }
  return all != 0;
}

template <int N>
__attribute__((always_inline)) inline P<N> canuto_sm(const P<N>& ri_in) {
  const P<N> ri = clamp(ri_in, kRiMin, kRiMax);
  int stable[N];
  const bool all_stable = stable_lanes(ri, stable);
  // Stable: rational quasi-equilibrium fit, neutral value 0.107, monotone
  // decay, effective cutoff near the closure's critical Ri (~1).
  const P<N> sm = 0.107 * (1.0 + 2.0 * ri) / (1.0 + 10.0 * ri + 30.0 * ri * ri);
  if (all_stable) return sm;
  // Unstable: enhanced momentum mixing, saturating.
  return kxx::select(stable, sm, 0.107 * (1.0 + 9.0 * (-ri) / (1.0 - 1.5 * ri)));
}

template <int N>
__attribute__((always_inline)) inline P<N> canuto_sh(const P<N>& ri_in) {
  const P<N> ri = clamp(ri_in, kRiMin, kRiMax);
  int stable[N];
  const bool all_stable = stable_lanes(ri, stable);
  // Heat stability function decays faster than momentum: the turbulent
  // Prandtl number sm/sh grows with Ri, a signature of the Canuto closure.
  const P<N> sh = 0.134 / (1.0 + 14.0 * ri + 60.0 * ri * ri);
  if (all_stable) return sh;
  return kxx::select(stable, sh, 0.134 * (1.0 + 12.0 * (-ri) / (1.0 - 1.5 * ri)));
}

/// (N², S², mixing length of the interface) → (km, kt) for either scheme.
/// Statically unstable lanes (N² < 0) take the convective adjustment value.
template <int N>
__attribute__((always_inline)) inline void closure(VMixScheme scheme, const P<N>& n2,
                                                   const P<N>& shear2, double l, P<N>& km,
                                                   P<N>& kt) {
  const P<N> s2 = kxx::max(shear2, P<N>(kShearEps));
  const P<N> cap(kKappaCap);
  if (scheme == VMixScheme::Canuto) {
    const P<N> ri = n2 / s2;
    const P<N> q = l * l * kxx::sqrt(s2);  // l^2 |S|, the closure's velocity scale
    km = kxx::min(canuto_sm(ri) * q + kKappaBackgroundM, cap);
    kt = kxx::min(canuto_sh(ri) * q + kKappaBackgroundT, cap);
  } else {
    const P<N> ri = clamp(n2 / s2, 0.0, kRiMax);
    constexpr double nu0 = 0.01;  // PP81 peak viscosity, m^2/s
    const P<N> denom = 1.0 + 5.0 * ri;
    const P<N> nu = nu0 / (denom * denom);
    km = kxx::min(nu + kKappaBackgroundM, cap);
    kt = kxx::min(nu / denom + kKappaBackgroundT, cap);
  }
  int convective[N];
  for (int lane = 0; lane < N; ++lane) convective[lane] = n2[lane] < 0.0;
  const P<N> conv(kConvectiveKappa);
  km = kxx::select(convective, conv, km);
  kt = kxx::select(convective, conv, kt);
}

/// B-grid: the average of the four corner values around T columns i0.. at k.
template <int N>
__attribute__((always_inline)) inline P<N> corner_avg(const CF3& f, long long k, long long j,
                                                      long long i0) {
  return 0.25 * (kxx::pack_load<N>(f.ptr(k, j, i0)) + kxx::pack_load<N>(f.ptr(k, j - 1, i0)) +
                 kxx::pack_load<N>(f.ptr(k, j, i0 - 1)) +
                 kxx::pack_load<N>(f.ptr(k, j - 1, i0 - 1)));
}

/// N² (brunt_vaisala_sq's expression) and the squared shear of the
/// corner-averaged velocities at interface k, between cells k and k + 1.
template <int N>
__attribute__((always_inline)) inline void interface_inputs(const CF3& rho, const CF3& u,
                                                            const CF3& v, double dzc, long long k,
                                                            long long j, long long i0, P<N>& n2,
                                                            P<N>& s2) {
  n2 = -(kGravity / kRho0) *
       (kxx::pack_load<N>(rho.ptr(k, j, i0)) - kxx::pack_load<N>(rho.ptr(k + 1, j, i0))) / dzc;
  const P<N> dudz = (corner_avg<N>(u, k, j, i0) - corner_avg<N>(u, k + 1, j, i0)) / dzc;
  const P<N> dvdz = (corner_avg<N>(v, k, j, i0) - corner_avg<N>(v, k + 1, j, i0)) / dzc;
  s2 = dudz * dudz + dvdz * dvdz;
}

/// The mixing kernel over interfaces (k, j, i): pointwise, because N² and S²
/// at interface k depend only on levels k and k + 1. Writes every dispatched
/// face — the coefficients where k + 1 < levels(j, i), 0 elsewhere (land,
/// below the bottom, and columns shipped to another rank). Partial i-tails
/// run the scalar body (pack_op<1>) per live lane.
struct VMixK {
  CI2 levels;
  CF3 rho, u, v;
  F3 km, kt;
  const double* dzc = nullptr;  ///< per-interface center spacing
  const double* lm = nullptr;   ///< per-interface mixing length
  VMixScheme scheme = VMixScheme::Canuto;

  void operator()(long long k, long long j, long long i) const {
    pack_op<1>(k, j, i, kxx::Mask<1>::all_true());
  }

  template <int N>
  void pack_op(long long k, long long j, long long i0, const kxx::Mask<N>& tail) const {
    if constexpr (N > 1) {
      if (!tail.all()) {
        for (int l = 0; l < N; ++l)
          if (tail[l]) pack_op<1>(k, j, i0 + l, kxx::Mask<1>::all_true());
        return;
      }
    }
    int live[N];
    int any = 0;
    for (int l = 0; l < N; ++l) {
      live[l] = k + 1 < levels(j, i0 + l);
      any |= live[l];
    }
    const P<N> zero(0.0);
    if (!any) {
      kxx::pack_store<N>(km.ptr(k, j, i0), zero);
      kxx::pack_store<N>(kt.ptr(k, j, i0), zero);
      return;
    }
    P<N> n2, s2, km_p, kt_p;
    interface_inputs<N>(rho, u, v, dzc[k], k, j, i0, n2, s2);
    closure<N>(scheme, n2, s2, lm[k], km_p, kt_p);
    kxx::pack_store<N>(km.ptr(k, j, i0), kxx::select(live, km_p, zero));
    kxx::pack_store<N>(kt.ptr(k, j, i0), kxx::select(live, kt_p, zero));
  }
};

/// The same closure over a received plane-major request of shipped columns
/// (Fig. 4): `levels[c]`, then the N² and S² planes at `planes`, which it
/// overwrites in place with the km and kt planes of the response (each
/// element is read before it is written, and only by its own lane).
/// Dispatched as 2-D (interface k, column c), c contiguous.
struct VMixShippedK {
  const double* levels = nullptr;
  double* planes = nullptr;
  const double* lm = nullptr;
  long long cols = 0;
  long long nface = 0;
  VMixScheme scheme = VMixScheme::Canuto;

  void operator()(long long k, long long c) const {
    pack_op<1>(k, c, kxx::Mask<1>::all_true());
  }

  template <int N>
  void pack_op(long long k, long long c0, const kxx::Mask<N>& tail) const {
    if constexpr (N > 1) {
      if (!tail.all()) {
        for (int l = 0; l < N; ++l)
          if (tail[l]) pack_op<1>(k, c0 + l, kxx::Mask<1>::all_true());
        return;
      }
    }
    int live[N];
    for (int l = 0; l < N; ++l) live[l] = static_cast<double>(k + 1) < levels[c0 + l];
    double* first = planes + k * cols + c0;  // N² in, km out
    double* second = first + nface * cols;   // S² in, kt out
    P<N> km_p, kt_p;
    closure<N>(scheme, kxx::pack_load<N>(first), kxx::pack_load<N>(second), lm[k], km_p, kt_p);
    const P<N> zero(0.0);
    kxx::pack_store<N>(first, kxx::select(live, km_p, zero));
    kxx::pack_store<N>(second, kxx::select(live, kt_p, zero));
  }
};

}  // namespace vmix
}  // namespace licomk::core

KXX_REGISTER_FOR_3D(vmix_coeffs, licomk::core::vmix::VMixK);
KXX_REGISTER_FOR_2D(vmix_shipped, licomk::core::vmix::VMixShippedK);

namespace licomk::core {

double canuto_sm(double ri) { return vmix::canuto_sm<1>(vmix::P<1>(ri))[0]; }

double canuto_sh(double ri) { return vmix::canuto_sh<1>(vmix::P<1>(ri))[0]; }

double mixing_length(double z) {
  constexpr double kKappaVonKarman = 0.4;
  constexpr double kL0 = 30.0;  // asymptotic length, m
  double lz = kKappaVonKarman * std::max(z, 0.5);
  return lz * kL0 / (lz + kL0);
}

MixingCoeffs canuto_mixing(double n2, double shear2, double z_below_surface) {
  vmix::P<1> km, kt;
  vmix::closure<1>(VMixScheme::Canuto, vmix::P<1>(n2), vmix::P<1>(shear2),
                   mixing_length(z_below_surface), km, kt);
  return MixingCoeffs{km[0], kt[0]};
}

MixingCoeffs richardson_mixing(double n2, double shear2) {
  vmix::P<1> km, kt;
  vmix::closure<1>(VMixScheme::Richardson, vmix::P<1>(n2), vmix::P<1>(shear2), 0.0, km, kt);
  return MixingCoeffs{km[0], kt[0]};
}

VerticalMixer::VerticalMixer(const LocalGrid& grid, comm::Communicator comm, VMixScheme scheme,
                             bool load_balance)
    : grid_(grid),
      comm_(comm),
      scheme_(scheme),
      load_balance_(load_balance) {
  const auto& vg = grid_.vertical();
  for (int k = 0; k + 1 < grid_.nz(); ++k) {
    dzc_.push_back(vg.depth(k + 1) - vg.depth(k));
    lm_.push_back(mixing_length(vg.interface_depth(k + 1)));
  }
}

void VerticalMixer::build_plan() {
  planned_ = true;
  const int h = decomp::kHaloWidth;
  const size_t nface = static_cast<size_t>(grid_.nz() - 1);
  auto for_each_sea_column = [&](auto&& fn) {  // the census order: interior, row-major
    for (int j = h; j < h + grid_.ny(); ++j)
      for (int i = h; i < h + grid_.nx(); ++i)
        if (grid_.kmt(j, i) > 1) fn(j, i);
  };
  long long keep = 0;
  for_each_sea_column([&](int, int) { ++keep; });

  // Census + plan (Fig. 4): the census never changes, so neither does the
  // plan.
  if (load_balance_ && comm_.size() > 1) {
    const long long mine = keep;
    auto counts_raw = comm_.allgatherv(&mine, sizeof(long long));
    std::vector<long long> census(static_cast<size_t>(comm_.size()));
    for (int r = 0; r < comm_.size(); ++r) {
      std::memcpy(&census[static_cast<size_t>(r)], counts_raw[static_cast<size_t>(r)].data(),
                  sizeof(long long));
    }
    size_t largest = 0;
    for (const auto& t : decomp::balance_work(census).transfers) {
      if (t.from == comm_.rank()) {
        out_.push_back(Outbound{t.to, t.count, {}, {}});
        keep -= t.count;
      }
      if (t.to == comm_.rank()) in_.push_back(Inbound{t.from, t.count});
      if (t.from == comm_.rank() || t.to == comm_.rank())
        largest = std::max(largest, static_cast<size_t>(t.count));
    }
    msg_.resize(largest * (1 + 2 * nface));
  }

  // Surplus columns ship from the tail of the census order, to the peers in
  // transfer order, and leave the retained-levels view.
  if (!out_.empty()) {
    const auto& kmt = grid_.kmt_view();
    retained_ = kxx::View<int, 2>("vmix_retained", kmt.extent(0), kmt.extent(1));
    std::copy(kmt.data(), kmt.data() + kmt.size(), retained_.data());
  }
  long long seen = 0;
  size_t peer = 0;
  for_each_sea_column([&](int j, int i) {
    if (seen++ < keep) return;
    if (static_cast<long long>(out_[peer].j.size()) == out_[peer].columns) ++peer;
    Outbound& o = out_[peer];
    o.j.push_back(j);
    o.i.push_back(i);
    retained_(static_cast<size_t>(j), static_cast<size_t>(i)) = 0;
  });
  shipped_out_ = 0;
  for (const Outbound& o : out_) shipped_out_ += o.columns;
  received_ = 0;
  for (const Inbound& in : in_) received_ += in.columns;
  local_columns_ = keep + received_;
}

void VerticalMixer::compute(OceanState& state) {
  if (!planned_) build_plan();
  const int h = decomp::kHaloWidth;
  const long long nface = grid_.nz() - 1;
  const CF3 rho = cref(state.rho);
  const CF3 u = cref(state.u_cur);
  const CF3 v = cref(state.v_cur);

  // 1. Pack and ship the surplus columns' N² and S², plane-major.
  for (const Outbound& o : out_) {
    const long long cols = o.columns;
    double* n2 = msg_.data() + cols;
    double* s2 = n2 + nface * cols;
    for (long long c = 0; c < cols; ++c) {
      const int j = o.j[static_cast<size_t>(c)];
      const int i = o.i[static_cast<size_t>(c)];
      const int nlev = grid_.kmt(j, i);
      msg_[static_cast<size_t>(c)] = static_cast<double>(nlev);
      for (int k = 0; k < nface; ++k) {
        vmix::P<1> n2_k(0.0), s2_k(0.0);
        if (k + 1 < nlev) {
          vmix::interface_inputs<1>(rho, u, v, dzc_[static_cast<size_t>(k)], k, j, i, n2_k,
                                    s2_k);
        }
        n2[k * cols + c] = n2_k[0];
        s2[k * cols + c] = s2_k[0];
      }
    }
    comm_.send(msg_.data(), static_cast<size_t>(cols * (1 + 2 * nface)) * sizeof(double), o.to,
               kTagVmixRequest);
  }

  // 2. Every retained column: one packed kernel over the interior faces.
  const CI2 levels = cref(retained_.valid() ? retained_ : grid_.kmt_view());
  vmix::VMixK f{levels, rho,         u,          v,      mref(state.kappa_m), mref(state.kappa_t),
                dzc_.data(), lm_.data(), scheme_};
  kxx::parallel_for_packed(
      "vmix_coeffs",
      kxx::MDRangePolicy3({0, h, h}, {nface, h + grid_.ny(), h + grid_.nx()}), f);

  // 3. Serve incoming requests (before waiting on any response: deadlock-free)
  //    with the same closure over the received buffer.
  for (const Inbound& in : in_) {
    const long long cols = in.columns;
    comm_.recv(msg_.data(), static_cast<size_t>(cols * (1 + 2 * nface)) * sizeof(double),
               in.from, kTagVmixRequest);
    vmix::VMixShippedK g{msg_.data(), msg_.data() + cols, lm_.data(), cols, nface, scheme_};
    kxx::parallel_for_packed("vmix_shipped", kxx::MDRangePolicy2({0, 0}, {nface, cols}), g);
    comm_.send(msg_.data() + cols, static_cast<size_t>(cols * 2 * nface) * sizeof(double),
               in.from, kTagVmixResponse);
  }

  // 4. Collect the coefficients of the shipped columns and unpack them.
  for (const Outbound& o : out_) {
    const long long cols = o.columns;
    comm_.recv(msg_.data(), static_cast<size_t>(cols * 2 * nface) * sizeof(double), o.to,
               kTagVmixResponse);
    const double* km = msg_.data();
    const double* kt = km + nface * cols;
    for (long long c = 0; c < cols; ++c) {
      const int j = o.j[static_cast<size_t>(c)];
      const int i = o.i[static_cast<size_t>(c)];
      for (int k = 0; k + 1 < grid_.kmt(j, i); ++k) {
        state.kappa_m.at(k, j, i) = km[k * cols + c];
        state.kappa_t.at(k, j, i) = kt[k * cols + c];
      }
    }
  }

  state.kappa_m.mark_dirty();
  state.kappa_t.mark_dirty();
}

}  // namespace licomk::core
