// crc64_oracle.hpp — the byte-at-a-time CRC-64/XZ loop.
//
// util::Crc64 replaced this loop with a slicing-by-8 body, and the restart
// writer derives its payload CRC by combine instead of a second pass. The
// tests keep the old loop as the oracle for both: every CRC value, in memory
// and on disk, must equal what it computes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace licomk_test {

inline std::uint64_t crc64_bytewise(const void* data, std::size_t bytes) {
  std::uint64_t table[256];
  for (std::uint64_t n = 0; n < 256; ++n) {
    std::uint64_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xC96C5795D7870F42ull ^ (c >> 1)) : (c >> 1);
    table[n] = c;
  }
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = 0xFFFFFFFFFFFFFFFFull;
  for (std::size_t i = 0; i < bytes; ++i) c = table[(c ^ p[i]) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFFFFFFFFFull;
}

}  // namespace licomk_test
