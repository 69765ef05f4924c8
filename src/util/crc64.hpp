// crc64.hpp — CRC-64/XZ payload checksums (reflected ECMA-182 polynomial).
//
// Used by the resilience layer to self-check `.lrs` checkpoints: a torn or
// bit-flipped restart file must be detected *before* a run resumes from it,
// not three simulated months later as a NaN. CRC-64/XZ is the variant GNU xz
// uses (poly 0x42F0E1EBA9EA3693 reflected, init/xorout all-ones); its check
// value over "123456789" is 0x995DC9BBDF1939FA, pinned in test_util.
#pragma once

#include <cstddef>
#include <cstdint>

namespace licomk::util {

/// CRC of one contiguous buffer.
std::uint64_t crc64(const void* data, std::size_t bytes);

/// crc64(A ‖ B) from crc64(A), crc64(B) and |B| in bytes, without touching
/// the data: CRC(A ‖ B) = CRC(A)·x^(8|B|) ⊕ CRC(B) mod P (zlib's crc32_combine
/// scheme at 64 bits). Costs about a microsecond, independent of |A|.
/// Throws InvalidArgument for len_b >= 2^61.
std::uint64_t crc64_combine(std::uint64_t crc_a, std::uint64_t crc_b, std::uint64_t len_b);

/// Streaming interface for multi-buffer payloads (checkpoint fields are
/// checksummed view-by-view without staging a copy).
class Crc64 {
 public:
  void update(const void* data, std::size_t bytes);
  std::uint64_t value() const { return state_ ^ 0xFFFFFFFFFFFFFFFFull; }

 private:
  std::uint64_t state_ = 0xFFFFFFFFFFFFFFFFull;
};

}  // namespace licomk::util
