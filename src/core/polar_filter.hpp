// polar_filter.hpp — high-latitude zonal filtering.
//
// On a (tri)polar grid the zonal spacing collapses toward the fold, so the
// CFL limit of the split-explicit barotropic sub-cycle would force absurdly
// small time steps. LICOM's lineage (like other B-grid z-level models)
// filters the zonal grid-scale components of the prognostic fields poleward
// of a threshold latitude instead. This module implements that filter as
// repeated 1-2-1 zonal smoothing passes — an approximation of the classical
// Fourier truncation — with the pass count growing as the zonal spacing
// shrinks relative to the threshold row. Each pass is one kxx row kernel
// (PolarFilterK) over the fields filtered together, so the filter runs on
// every backend.
//
// Tracers and the free surface use the conservative (flux-form,
// area-weighted) variant, so the filter preserves ∑ q·A along each row to
// round-off; velocities use the plain stencil. Land cells never exchange.
#pragma once

#include <vector>

#include "core/local_grid.hpp"
#include "halo/persistent_group.hpp"

namespace licomk::core {

/// One field of a grouped PolarFilter::apply. Its fold sign and 3-D halo
/// method are the ones the driving group enrolled it with.
struct FilteredField {
  FilteredField(halo::BlockField2D& f, bool conservative) : f2(&f), conservative(conservative) {}
  FilteredField(halo::BlockField3D& f, bool conservative) : f3(&f), conservative(conservative) {}

  halo::BlockField2D* f2 = nullptr;  ///< exactly one of f2/f3 is set
  halo::BlockField3D* f3 = nullptr;
  bool conservative = false;
};

class PolarFilter {
 public:
  /// `threshold_lat` — filtering starts poleward of this latitude (deg).
  /// `strength` — multiplies the pass count (tuning for stability margins).
  PolarFilter(const LocalGrid& grid, double threshold_lat = 60.0, double strength = 2.0);

  /// True if any local row needs filtering (fast skip for tropical blocks).
  bool active() const { return max_passes_ > 0; }
  int max_passes() const { return max_passes_; }
  /// Maximum pass count over the rows THIS rank owns (≤ max_passes()). Rows
  /// beyond it are never smoothed locally, so once a pass index reaches it
  /// this rank's east/west ghosts stop changing — the persistent-group apply
  /// uses that to skip the tail's intermediate zonal refreshes.
  int local_max_passes() const { return local_max_passes_; }

  /// Number of smoothing passes applied to local halo-inclusive row `j`.
  int passes_for_row(int j) const { return passes_[static_cast<size_t>(j)]; }

  /// One smoothing pass of up to three fields together: one PolarFilterK
  /// dispatch ("polar_filter") over the interior rows whose schedule smooths
  /// at `pass` (none when no local row does). Reads the east/west ghosts of
  /// those rows, refreshes no halo, and marks every field dirty.
  void smooth(const std::vector<FilteredField>& fields, int pass) const;

  /// Filter a set of up to three fields together, driven through an already-enrolled
  /// halo group (the model's subcycle, bclinc and tracer groups). The group
  /// must contain exactly the filtered fields. Intermediate passes refresh
  /// only the east/west ghosts (the 1-2-1 stencil reads nothing else), and
  /// stop once `pass+1 >= local_max_passes_`: neither this rank nor its
  /// east/west partners — which share the same global rows, hence the same
  /// pass schedule — smooth again before the closing full exchange rebuilds
  /// every ghost. On exit every field's complete halo is valid and each field
  /// is bit-identical to smoothing it alone with a full exchange after every
  /// pass (the smoothing of each field is independent of the others).
  void apply(const std::vector<FilteredField>& fields,
             halo::PersistentGroup& group) const;

 private:
  const LocalGrid& grid_;
  std::vector<int> passes_;  ///< per local row (halo-inclusive indexing)
  std::vector<int> rows_;    ///< local rows with passes, most passes first
  int max_passes_ = 0;
  int local_max_passes_ = 0;  ///< max of passes_ over locally owned rows
};

}  // namespace licomk::core
