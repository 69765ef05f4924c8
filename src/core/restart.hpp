// restart.hpp — self-checking checkpoint/restart of the model state.
//
// Production OGCM runs span months of wall time; LICOM runs are driven by
// restart chains. This module writes/reads a self-describing binary snapshot
// of one rank's prognostic state (both leapfrog time levels, so a restarted
// run continues bit-identically — verified in test_model).
//
// Format v3: a fixed header (magic, version, grid shape, extent, sim time,
// accumulated step wall time, CRC-64/XZ of everything after the header),
// then a per-field CRC-64 table (one entry per prognostic field, in
// core::prognostic_field_names() order), then the fields' full halo-inclusive
// storage. The field-level CRCs are what lets the resilience stack verify a
// checkpoint *per field* end-to-end: the redistributor proves that re-slicing
// a generation onto a different decomposition preserved every field exactly,
// and a reader can name the corrupted field instead of just "bad file".
// Writes are atomic — data is staged to "<path>.tmp", fsync'd, then renamed
// into place — so a crash mid-write can never leave a half-written file at
// the final path, and the payload CRC lets readers detect any corruption that
// happens after the rename. Multi-rank runs write one file per rank
// (`<prefix>.rankN.lrs`), the standard file-per-process pattern.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/local_grid.hpp"
#include "core/state.hpp"

namespace licomk::core {

struct RestartInfo {
  double sim_seconds = 0.0;
  long long steps = 0;
  /// Rank-local wall seconds accumulated inside step() up to this snapshot.
  /// Restoring it keeps sypd() consistent across supervisor relaunches:
  /// backoff sleeps and inter-attempt downtime never enter the denominator,
  /// the same way checkpoint hooks are excluded from the live accumulation.
  double step_wall_s = 0.0;
};

/// Everything a reader can learn about a checkpoint without touching model
/// state: the interior shape, the block origin, the stored time info, and the
/// per-field CRC table (prognostic_field_names() order).
struct RestartFileInfo {
  RestartInfo info;
  int nx = 0, ny = 0, nz = 0;
  int i0 = 0, j0 = 0;
  std::vector<std::uint64_t> field_crcs;
};

/// One rank's checkpoint payload in raw form: full halo-inclusive storages in
/// canonical field order. This is the redistributor's currency — it can
/// re-slice checkpoints without instantiating grids or models.
struct RawRestart {
  RestartFileInfo header;
  std::vector<std::vector<double>> fields3;  ///< 8 fields, nz*(ny+2h)*(nx+2h) each
  std::vector<std::vector<double>> fields2;  ///< 6 fields, (ny+2h)*(nx+2h) each
};

/// Write a checkpoint for this rank, atomically (stage + fsync + rename).
/// Throws licomk::Error on I/O failure. `rank` and `write_op` only matter
/// under fault injection: they are forwarded to the restart.write hook so a
/// schedule can target "generation G on rank R" (see resilience/).
void write_restart(const std::string& path, const LocalGrid& grid, const OceanState& state,
                   const RestartInfo& info, int rank = -1, std::uint64_t write_op = 0);

/// Read a checkpoint written by write_restart into an allocated state of the
/// same configuration. Validates magic/version/shape, the payload CRC, and
/// every per-field CRC; throws licomk::Error on any mismatch. Returns the
/// stored time info.
RestartInfo read_restart(const std::string& path, const LocalGrid& grid, OceanState& state);

/// Cheap integrity check: validate magic/version and recompute the payload
/// CRC without touching any model state. Returns the stored time info when
/// the file verifies, std::nullopt when it is missing, foreign, truncated,
/// or corrupt, including a header shape that is non-positive or implies more
/// payload than the file holds (a CRC mismatch or a payload overrunning the
/// file bumps the "resilience.crc_failures" counter).
std::optional<RestartInfo> verify_restart(const std::string& path);

/// verify_restart plus the header: shape, extent, and the field CRC table.
/// The checkpoint manager uses the extent to reject generations written under
/// a different decomposition; the redistributor uses the CRC table to prove
/// field-level integrity end-to-end.
std::optional<RestartFileInfo> inspect_restart(const std::string& path);

/// Read the full raw payload (all field storages) of a verified checkpoint.
/// Throws licomk::Error when the file is missing, foreign, or corrupt; the
/// header shape is validated against the file size before any field buffer
/// is allocated.
RawRestart read_restart_raw(const std::string& path);

/// Write a checkpoint from raw field storages (the redistributor's output
/// path). Storage sizes must match the shape in `header`; the CRC tables are
/// recomputed, not trusted. Atomic like write_restart.
void write_restart_raw(const std::string& path, const RestartFileInfo& header,
                       const std::vector<std::vector<double>>& fields3,
                       const std::vector<std::vector<double>>& fields2, int rank = -1,
                       std::uint64_t write_op = 0);

/// Per-rank restart path: "<prefix>.rank<r>.lrs".
std::string restart_rank_path(const std::string& prefix, int rank);

}  // namespace licomk::core
