#include "util/crc64.hpp"

#include <array>

#include "util/error.hpp"

namespace licomk::util {

namespace {

/// Reflected ECMA-182 polynomial (CRC-64/XZ).
constexpr std::uint64_t kPoly = 0xC96C5795D7870F42ull;

/// Slicing-by-8 tables: t[0] is the classic byte table; t[s][n] is the CRC
/// register after byte n followed by s zero bytes, so eight lookups advance
/// the register by one 8-byte word.
using Tables = std::array<std::array<std::uint64_t, 256>, 8>;

Tables make_tables() {
  Tables t{};
  for (std::uint64_t n = 0; n < 256; ++n) {
    std::uint64_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][n] = c;
  }
  for (std::size_t s = 1; s < 8; ++s) {
    for (std::size_t n = 0; n < 256; ++n) {
      const std::uint64_t c = t[s - 1][n];
      t[s][n] = t[0][c & 0xFF] ^ (c >> 8);
    }
  }
  return t;
}

const Tables& tables() {
  static const Tables t = make_tables();
  return t;
}

/// Product a·b mod P of two polynomials in the reflected representation
/// (bit 63 is x^0). `a` must be non-zero.
std::uint64_t multmodp(std::uint64_t a, std::uint64_t b) {
  std::uint64_t m = 1ull << 63;
  std::uint64_t p = 0;
  for (;;) {
    if (a & m) {
      p ^= b;
      if ((a & (m - 1)) == 0) break;
    }
    m >>= 1;
    b = (b & 1) ? (b >> 1) ^ kPoly : b >> 1;
  }
  return p;
}

/// x^(2^k) mod P for k = 0..63, by repeated squaring from x^1.
std::array<std::uint64_t, 64> make_x2n_table() {
  std::array<std::uint64_t, 64> t{};
  std::uint64_t p = 1ull << 62;  // x^1
  for (auto& e : t) {
    e = p;
    p = multmodp(p, p);
  }
  return t;
}

/// x^(8·bytes) mod P: one table product per set bit of `bytes`. The powers
/// x^(2^k) do not cycle with period 64 for this polynomial, so the table
/// covers lengths below 2^61 bytes (k = 3 + bit index <= 63).
std::uint64_t x8nmodp(std::uint64_t bytes) {
  static const std::array<std::uint64_t, 64> x2n = make_x2n_table();
  LICOMK_REQUIRE(bytes < (1ull << 61), "crc64_combine: length beyond 2^61 bytes");
  std::uint64_t p = 1ull << 63;  // x^0
  for (unsigned k = 3; bytes != 0; bytes >>= 1, ++k) {
    if (bytes & 1) p = multmodp(x2n[k], p);
  }
  return p;
}

}  // namespace

void Crc64::update(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  const Tables& t = tables();
  std::uint64_t c = state_;
  for (; bytes >= 8; p += 8, bytes -= 8) {
    // Little-endian word from bytes (one load on little-endian targets).
    std::uint64_t w = 0;
    for (int b = 0; b < 8; ++b) w |= static_cast<std::uint64_t>(p[b]) << (8 * b);
    c ^= w;
    c = t[7][c & 0xFF] ^ t[6][(c >> 8) & 0xFF] ^ t[5][(c >> 16) & 0xFF] ^
        t[4][(c >> 24) & 0xFF] ^ t[3][(c >> 32) & 0xFF] ^ t[2][(c >> 40) & 0xFF] ^
        t[1][(c >> 48) & 0xFF] ^ t[0][c >> 56];
  }
  for (; bytes > 0; ++p, --bytes) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  state_ = c;
}

std::uint64_t crc64(const void* data, std::size_t bytes) {
  Crc64 c;
  c.update(data, bytes);
  return c.value();
}

std::uint64_t crc64_combine(std::uint64_t crc_a, std::uint64_t crc_b, std::uint64_t len_b) {
  return multmodp(x8nmodp(len_b), crc_a) ^ crc_b;
}

}  // namespace licomk::util
