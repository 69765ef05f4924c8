#include "core/polar_filter.hpp"

#include <algorithm>
#include <cmath>

#include "core/field_ref.hpp"
#include "kxx/kxx.hpp"
#include "util/error.hpp"

namespace licomk::core {
namespace polar {

/// One 1-2-1 zonal smoothing pass over the rows (rows[r], k) of up to
/// kMaxFields fields, dispatched over (r, field, k); a 2-D field is the
/// nz = 1 instance (plane unused). Each row is swept in i order: the flux
/// through a cell's east face is computed from pre-pass values before that
/// cell is updated, and carried to the next cell as its west-face flux. Land
/// faces (either side below the level's bottom) carry no flux. The
/// conservative form conducts by the mean face area and divides by the cell
/// area, so ∑ q·A along a row is preserved to round-off.
struct PolarFilterK {
  /// The largest filtered group the model drives: the subcycle's η, ū, v̄.
  static constexpr int kMaxFields = 3;

  CI2 kmt;
  CF2 area;
  const int* rows = nullptr;  ///< local rows j (halo-inclusive) to smooth
  long long i_begin = 0;      ///< interior i range [i_begin, i_end)
  long long i_end = 0;
  F3 q[kMaxFields];
  int nz[kMaxFields] = {};
  int conservative[kMaxFields] = {};

  void operator()(long long r, long long f, long long k) const {
    if (k >= nz[f]) return;
    const long long j = rows[r];
    const F3& qf = q[f];
    const bool cons = conservative[f] != 0;
    auto east_flux = [&](long long i) {
      if (k >= kmt(j, i) || k >= kmt(j, i + 1)) return 0.0;
      const double conduct = cons ? 0.125 * (area(j, i) + area(j, i + 1)) : 0.25;
      return conduct * (qf(k, j, i + 1) - qf(k, j, i));
    };
    double west = east_flux(i_begin - 1);
    for (long long i = i_begin; i < i_end; ++i) {
      const double east = east_flux(i);
      if (k < kmt(j, i)) {
        const double div = east - west;
        qf(k, j, i) += cons ? div / area(j, i) : div;
      }
      west = east;
    }
  }
};

}  // namespace polar
}  // namespace licomk::core

KXX_REGISTER_FOR_3D(polar_filter, licomk::core::polar::PolarFilterK);

namespace licomk::core {

namespace {
constexpr int kMaxPasses = 12;
constexpr int kH = decomp::kHaloWidth;

/// Passes for a global row: ratio of the threshold-row spacing to this row's
/// minimum spacing, scaled by `strength`. Pure function of the global grid,
/// so every rank derives the same global pass schedule — the apply() loop
/// count must be uniform or the pairwise halo updates inside it mismatch.
int passes_for_global_row(const grid::HorizontalGrid& h, int gj, double threshold_lat,
                          double strength) {
  double lat = h.lat_t(gj, 0);
  if (std::fabs(lat) <= threshold_lat) return 0;
  double dx_row = 1e30;
  for (int i = 0; i < h.nx(); ++i) dx_row = std::min(dx_row, h.dx_u(gj, i));
  double dx_thr = grid::kEarthRadius * std::cos(threshold_lat * grid::kPi / 180.0) *
                  (2.0 * grid::kPi / h.nx());
  double ratio = dx_thr / std::max(dx_row, 1.0);
  if (ratio <= 1.0) return 0;
  return std::min(kMaxPasses, static_cast<int>(std::ceil(strength * ratio)));
}
}  // namespace

PolarFilter::PolarFilter(const LocalGrid& grid, double threshold_lat, double strength)
    : grid_(grid) {
  LICOMK_REQUIRE(threshold_lat > 0.0 && threshold_lat < 90.0, "bad filter threshold");
  passes_.assign(static_cast<size_t>(grid_.ny_total()), 0);
  const auto& h = grid_.global().h();
  // Loop bound: the GLOBAL maximum, identical on every rank.
  for (int gj = 0; gj < h.ny(); ++gj) {
    max_passes_ = std::max(max_passes_, passes_for_global_row(h, gj, threshold_lat, strength));
  }
  // Per-local-row schedule for the rows this rank owns.
  const auto& e = grid_.extent();
  for (int lj = kH; lj < kH + grid_.ny(); ++lj) {
    int gj = e.j0 + (lj - kH);
    passes_[static_cast<size_t>(lj)] = passes_for_global_row(h, gj, threshold_lat, strength);
    local_max_passes_ = std::max(local_max_passes_, passes_[static_cast<size_t>(lj)]);
    if (passes_[static_cast<size_t>(lj)] > 0) rows_.push_back(lj);
  }
  std::stable_sort(rows_.begin(), rows_.end(), [&](int a, int b) {
    return passes_[static_cast<size_t>(a)] > passes_[static_cast<size_t>(b)];
  });
}

void PolarFilter::smooth(const std::vector<FilteredField>& fields, int pass) const {
  LICOMK_REQUIRE(fields.size() <= polar::PolarFilterK::kMaxFields,
                 "PolarFilter smooths at most 3 fields together");
  // rows_ runs from most passes to fewest, so the rows that still smooth at
  // `pass` are a prefix of it; none (no dispatch) once pass >= local_max_passes_.
  const long long n = std::partition_point(rows_.begin(), rows_.end(), [&](int j) {
                        return passes_[static_cast<size_t>(j)] > pass;
                      }) - rows_.begin();
  polar::PolarFilterK k{cref(grid_.kmt_view()), cref(grid_.area_view()), rows_.data(), kH,
                        kH + grid_.nx()};
  int nz_max = 0;
  for (size_t f = 0; f < fields.size(); ++f) {
    const FilteredField& ff = fields[f];
    if (ff.f2 != nullptr) {
      // A 2-D field is the nz = 1 instance (its plane stride is never read).
      k.q[f] = F3{ff.f2->view().data(), 0, ff.f2->nx_total()};
      k.nz[f] = 1;
      ff.f2->mark_dirty();
    } else {
      k.q[f] = mref(*ff.f3);
      k.nz[f] = ff.f3->nz();
      ff.f3->mark_dirty();
    }
    k.conservative[f] = ff.conservative ? 1 : 0;
    nz_max = std::max(nz_max, k.nz[f]);
  }
  if (n > 0 && nz_max > 0) {
    const long long nf = static_cast<long long>(fields.size());
    kxx::parallel_for("polar_filter", kxx::MDRangePolicy3({0, 0, 0}, {n, nf, nz_max}), k);
  }
}

void PolarFilter::apply(const std::vector<FilteredField>& fields,
                        halo::PersistentGroup& group) const {
  if (max_passes_ == 0 || fields.empty()) return;
  for (int pass = 0; pass < max_passes_; ++pass) {
    smooth(fields, pass);
    if (pass + 1 < max_passes_) {
      // A zonal refresh at pass p only matters if somebody on this row band
      // smooths at pass p+1. `passes_for_global_row` is a pure function of
      // the global row, and east/west partners own the same rows, so the
      // skip decision is symmetric across every pairwise zonal exchange.
      if (local_max_passes_ > pass + 1) group.exchange_zonal();
    } else {
      group.exchange();
    }
  }
}

}  // namespace licomk::core
