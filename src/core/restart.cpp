#include "core/restart.hpp"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "decomp/decomposition.hpp"
#include "resilience/fault_injector.hpp"
#include "telemetry/telemetry.hpp"
#include "util/crc64.hpp"
#include "util/error.hpp"

namespace licomk::core {

namespace {
constexpr char kMagic[8] = {'L', 'I', 'C', 'O', 'M', 'K', 'R', 'S'};
constexpr std::int32_t kVersion = 3;  // v3 = v2 + step wall time + per-field CRC table
constexpr std::int32_t kNumFields3 = 8;
constexpr std::int32_t kNumFields2 = 6;

struct Header {
  char magic[8];
  std::int32_t version;
  std::int32_t nx, ny, nz;          // interior shape
  std::int32_t i0, j0;              // block origin (decomposition check)
  std::int32_t field_count;
  double sim_seconds;
  long long steps;
  double step_wall_s;               // v3: rank-local step wall time (sypd continuity)
  std::uint64_t payload_crc;        // CRC-64/XZ over every byte after the header
};

/// One field's storage as raw bytes (both write paths funnel through this).
struct FieldSpan {
  const double* data;
  std::size_t count;
};

void note_crc_failure() {
  if (telemetry::enabled()) {
    static telemetry::Counter& c = telemetry::counter("resilience.crc_failures");
    c.add(1);
  }
}

std::vector<FieldSpan> state_spans(const OceanState& state) {
  std::vector<FieldSpan> spans;
  for (const auto* f : prognostic_fields3(state)) spans.push_back({f->view().data(), f->view().size()});
  for (const auto* f : prognostic_fields2(state)) spans.push_back({f->view().data(), f->view().size()});
  return spans;
}

/// Expected storage element counts for a (nx, ny, nz) block, halo included.
/// Only called on a header whose shape payload_fits() accepted (or one the
/// program built itself), so the products cannot overflow.
std::size_t storage2(const Header& h) {
  const std::size_t hw2 = 2 * decomp::kHaloWidth;
  return (static_cast<std::size_t>(h.ny) + hw2) * (static_cast<std::size_t>(h.nx) + hw2);
}
std::size_t storage3(const Header& h) { return static_cast<std::size_t>(h.nz) * storage2(h); }

/// True when every field the header's shape implies fits in `bytes`, the
/// bytes left in the file: kNumFields3 * nz + kNumFields2 planes of
/// (ny + 2h) * (nx + 2h) doubles. Checked by division so that no product of
/// untrusted dimensions is ever formed. Dimensions must already be positive.
bool payload_fits(const Header& h, std::uint64_t bytes) {
  const std::uint64_t hw2 = 2 * decomp::kHaloWidth;
  const std::uint64_t plane = (static_cast<std::uint64_t>(h.ny) + hw2) *
                              (static_cast<std::uint64_t>(h.nx) + hw2);  // < 2^64: each < 2^32
  const std::uint64_t planes = static_cast<std::uint64_t>(kNumFields3) * h.nz + kNumFields2;
  return plane <= bytes / sizeof(double) / planes;
}

void write_restart_impl(const std::string& path, Header h, const std::vector<FieldSpan>& fields,
                        int rank, std::uint64_t write_op) {
  std::memcpy(h.magic, kMagic, sizeof(kMagic));
  h.version = kVersion;
  h.field_count = static_cast<std::int32_t>(fields.size());

  // Per-field CRC table, then the payload CRC over table + field bytes — the
  // exact byte stream that follows the header on disk.
  std::vector<std::uint64_t> table;
  table.reserve(fields.size());
  for (const FieldSpan& f : fields) {
    util::Crc64 c;
    c.update(f.data, f.count * sizeof(double));
    table.push_back(c.value());
  }
  util::Crc64 payload;
  payload.update(table.data(), table.size() * sizeof(std::uint64_t));
  for (const FieldSpan& f : fields) payload.update(f.data, f.count * sizeof(double));
  h.payload_crc = payload.value();

  // Stage to "<path>.tmp" so a crash anywhere before the rename leaves the
  // final path untouched (either absent or still holding the previous good
  // checkpoint). fsync before rename: the data must be durable before the
  // name points at it.
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) throw Error("cannot open restart file for writing: " + tmp);
  auto put = [&](const void* data, std::size_t bytes) {
    if (std::fwrite(data, 1, bytes, out) != bytes) {
      std::fclose(out);
      throw Error("short write to restart file: " + tmp);
    }
  };
  put(&h, sizeof(h));
  put(table.data(), table.size() * sizeof(std::uint64_t));
  for (const FieldSpan& f : fields) put(f.data, f.count * sizeof(double));
  if (std::fflush(out) != 0) {
    std::fclose(out);
    throw Error("flush failed for restart file: " + tmp);
  }
  ::fsync(::fileno(out));
  std::fclose(out);

  std::optional<resilience::FaultEvent> injected;
  if (resilience::armed()) {
    injected =
        resilience::fault_hooks::on_file_write(resilience::FaultSite::RestartWrite, rank, write_op);
    if (injected && injected->kind == resilience::FaultKind::CrashWrite) {
      // Crash between staging and publish: only the ".tmp" remains.
      throw resilience::InjectedFault("injected crash before restart rename: " + path);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw Error("cannot rename " + tmp + " -> " + path);
  }
  if (injected && injected->kind == resilience::FaultKind::TornWrite) {
    // Post-rename media loss: the published file is silently truncated. The
    // payload CRC is what lets verify_restart catch this.
    resilience::tear_file(path, injected->param);
  }
}

/// Read and sanity-check header + field CRC table. Returns false (not throw)
/// on any structural problem so verify/inspect can answer "is it intact?".
bool read_prelude(std::ifstream& in, const std::string& path, Header& h,
                  std::vector<std::uint64_t>& table, std::string* why) {
  in.read(reinterpret_cast<char*>(&h), sizeof(h));
  if (!in || std::memcmp(h.magic, kMagic, sizeof(kMagic)) != 0) {
    if (why != nullptr) *why = "not a LICOMK++ restart file: " + path;
    return false;
  }
  if (h.version != kVersion) {
    if (why != nullptr) {
      *why = "restart version mismatch in " + path + ": file has v" + std::to_string(h.version);
    }
    return false;
  }
  if (h.field_count != kNumFields3 + kNumFields2) {
    if (why != nullptr) *why = "unexpected field count in " + path;
    return false;
  }
  if (h.nx <= 0 || h.ny <= 0 || h.nz <= 0) {
    if (why != nullptr) {
      *why = "corrupt restart header in " + path + ": non-positive shape " +
             std::to_string(h.nx) + "x" + std::to_string(h.ny) + "x" + std::to_string(h.nz);
    }
    return false;
  }
  table.assign(static_cast<std::size_t>(h.field_count), 0);
  in.read(reinterpret_cast<char*>(table.data()),
          static_cast<std::streamsize>(table.size() * sizeof(std::uint64_t)));
  if (!in) {
    if (why != nullptr) *why = "truncated restart file: " + path;
    return false;
  }
  // Nothing is sized from the header before this check. A payload that
  // overruns the file is a torn write or a corrupt shape; either way the
  // checkpoint fails its integrity check, as a CRC mismatch would.
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff remaining = in.tellg() - body;
  in.seekg(body);
  if (!in || !payload_fits(h, static_cast<std::uint64_t>(remaining))) {
    note_crc_failure();
    if (why != nullptr) {
      *why = "truncated restart file or corrupt header in " + path + ": shape " +
             std::to_string(h.nx) + "x" + std::to_string(h.ny) + "x" + std::to_string(h.nz) +
             " needs more than the " + std::to_string(remaining) + " payload bytes present";
    }
    return false;
  }
  return true;
}

RestartFileInfo file_info(const Header& h, std::vector<std::uint64_t> table) {
  RestartFileInfo fi;
  fi.info = RestartInfo{h.sim_seconds, h.steps, h.step_wall_s};
  fi.nx = h.nx;
  fi.ny = h.ny;
  fi.nz = h.nz;
  fi.i0 = h.i0;
  fi.j0 = h.j0;
  fi.field_crcs = std::move(table);
  return fi;
}

}  // namespace

std::string restart_rank_path(const std::string& prefix, int rank) {
  return prefix + ".rank" + std::to_string(rank) + ".lrs";
}

void write_restart(const std::string& path, const LocalGrid& grid, const OceanState& state,
                   const RestartInfo& info, int rank, std::uint64_t write_op) {
  Header h{};
  h.nx = grid.nx();
  h.ny = grid.ny();
  h.nz = grid.nz();
  h.i0 = grid.extent().i0;
  h.j0 = grid.extent().j0;
  h.sim_seconds = info.sim_seconds;
  h.steps = info.steps;
  h.step_wall_s = info.step_wall_s;
  write_restart_impl(path, h, state_spans(state), rank, write_op);
}

void write_restart_raw(const std::string& path, const RestartFileInfo& header,
                       const std::vector<std::vector<double>>& fields3,
                       const std::vector<std::vector<double>>& fields2, int rank,
                       std::uint64_t write_op) {
  LICOMK_REQUIRE(fields3.size() == kNumFields3 && fields2.size() == kNumFields2,
                 "write_restart_raw: wrong field counts");
  Header h{};
  h.nx = header.nx;
  h.ny = header.ny;
  h.nz = header.nz;
  h.i0 = header.i0;
  h.j0 = header.j0;
  h.sim_seconds = header.info.sim_seconds;
  h.steps = header.info.steps;
  h.step_wall_s = header.info.step_wall_s;
  std::vector<FieldSpan> spans;
  for (const auto& f : fields3) {
    LICOMK_REQUIRE(f.size() == storage3(h), "write_restart_raw: 3-D storage size mismatch");
    spans.push_back({f.data(), f.size()});
  }
  for (const auto& f : fields2) {
    LICOMK_REQUIRE(f.size() == storage2(h), "write_restart_raw: 2-D storage size mismatch");
    spans.push_back({f.data(), f.size()});
  }
  write_restart_impl(path, h, spans, rank, write_op);
}

RestartInfo read_restart(const std::string& path, const LocalGrid& grid, OceanState& state) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open restart file: " + path);

  Header h{};
  std::vector<std::uint64_t> table;
  std::string why;
  if (!read_prelude(in, path, h, table, &why)) throw Error(why);
  if (h.nx != grid.nx() || h.ny != grid.ny() || h.nz != grid.nz() ||
      h.i0 != grid.extent().i0 || h.j0 != grid.extent().j0) {
    throw Error("restart shape/extent mismatch in " + path +
                " (was the decomposition or grid changed?)");
  }

  util::Crc64 payload;
  payload.update(table.data(), table.size() * sizeof(std::uint64_t));
  std::size_t field_idx = 0;
  auto read_block = [&](double* dst, std::size_t count, const std::string& name) {
    in.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(count * sizeof(double)));
    if (!in) throw Error("truncated restart file: " + path);
    util::Crc64 crc;
    crc.update(dst, count * sizeof(double));
    payload.update(dst, count * sizeof(double));
    if (crc.value() != table[field_idx]) {
      note_crc_failure();
      throw Error("restart field CRC mismatch for '" + name + "' in " + path +
                  " (corrupt checkpoint)");
    }
    field_idx += 1;
  };
  const auto& names = prognostic_field_names();
  for (auto* f : prognostic_fields3(state)) {
    read_block(f->view().data(), f->view().size(), names[field_idx]);
    f->mark_dirty();
  }
  for (auto* f : prognostic_fields2(state)) {
    read_block(f->view().data(), f->view().size(), names[field_idx]);
    f->mark_dirty();
  }
  if (payload.value() != h.payload_crc) {
    note_crc_failure();
    throw Error("restart payload CRC mismatch in " + path + " (corrupt checkpoint)");
  }
  return RestartInfo{h.sim_seconds, h.steps, h.step_wall_s};
}

std::optional<RestartFileInfo> inspect_restart(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;

  Header h{};
  std::vector<std::uint64_t> table;
  if (!read_prelude(in, path, h, table, nullptr)) return std::nullopt;

  util::Crc64 crc;
  crc.update(table.data(), table.size() * sizeof(std::uint64_t));
  std::vector<char> buf(1 << 16);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    std::streamsize got = in.gcount();
    if (got > 0) crc.update(buf.data(), static_cast<std::size_t>(got));
  }
  if (crc.value() != h.payload_crc) {
    note_crc_failure();
    return std::nullopt;
  }
  return file_info(h, std::move(table));
}

std::optional<RestartInfo> verify_restart(const std::string& path) {
  auto fi = inspect_restart(path);
  if (!fi) return std::nullopt;
  return fi->info;
}

RawRestart read_restart_raw(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open restart file: " + path);

  Header h{};
  std::vector<std::uint64_t> table;
  std::string why;
  if (!read_prelude(in, path, h, table, &why)) throw Error(why);

  RawRestart raw;
  util::Crc64 payload;
  payload.update(table.data(), table.size() * sizeof(std::uint64_t));
  std::size_t field_idx = 0;
  auto read_field = [&](std::size_t count) {
    std::vector<double> data(count);
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(count * sizeof(double)));
    if (!in) throw Error("truncated restart file: " + path);
    util::Crc64 crc;
    crc.update(data.data(), count * sizeof(double));
    payload.update(data.data(), count * sizeof(double));
    if (crc.value() != table[field_idx]) {
      note_crc_failure();
      throw Error("restart field CRC mismatch for '" + prognostic_field_names()[field_idx] +
                  "' in " + path);
    }
    field_idx += 1;
    return data;
  };
  for (int n = 0; n < kNumFields3; ++n) raw.fields3.push_back(read_field(storage3(h)));
  for (int n = 0; n < kNumFields2; ++n) raw.fields2.push_back(read_field(storage2(h)));
  if (payload.value() != h.payload_crc) {
    note_crc_failure();
    throw Error("restart payload CRC mismatch in " + path + " (corrupt checkpoint)");
  }
  raw.header = file_info(h, std::move(table));
  return raw;
}

}  // namespace licomk::core
