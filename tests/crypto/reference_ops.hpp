#pragma once

// Straightforward reference implementations that the optimized crypto layers
// are checked against: generic square-and-multiply exponentiation, bit-serial
// scalar reduction, and the double-and-add ladder. Slow and obviously
// correct; used by tests only.

#include <cstdint>

#include "crypto/ed25519.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/sc25519.hpp"

namespace repchain::crypto::reference {

/// a^e by left-to-right square-and-multiply over a little-endian byte
/// exponent, using only fe_mul.
inline Fe fe_pow(const Fe& a, const ByteArray<32>& exponent_le) {
  Fe result = fe_one();
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      result = fe_mul(result, result);
      if ((exponent_le[byte] >> bit) & 1) result = fe_mul(result, a);
    }
  }
  return result;
}

/// Exponent 2^k - c for a 32-byte little-endian exponent whose high byte is
/// `high` and low byte is `low`, all middle bytes 0xff.
inline ByteArray<32> exponent_all_ff(std::uint8_t low, std::uint8_t high) {
  ByteArray<32> e{};
  e[0] = low;
  for (int i = 1; i < 31; ++i) e[i] = 0xff;
  e[31] = high;
  return e;
}

/// x mod L for an n-limb little-endian x, by binary long division: one
/// shift, compare and subtract per input bit.
inline Scalar reduce_bits(const std::uint64_t* limbs, int nlimbs) {
  using u64 = std::uint64_t;
  constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0x0ULL,
                         0x1000000000000000ULL};
  u64 r[4] = {0, 0, 0, 0};
  for (int bit = nlimbs * 64 - 1; bit >= 0; --bit) {
    u64 carry = (limbs[bit / 64] >> (bit % 64)) & 1;
    for (int i = 0; i < 4; ++i) {
      const u64 next = r[i] >> 63;
      r[i] = (r[i] << 1) | carry;
      carry = next;
    }
    bool ge = true;
    for (int i = 3; i >= 0; --i) {
      if (r[i] != kL[i]) {
        ge = r[i] > kL[i];
        break;
      }
    }
    if (ge) {
      u64 borrow = 0;
      for (int i = 0; i < 4; ++i) {
        const unsigned __int128 cur = (unsigned __int128)r[i] - kL[i] - borrow;
        r[i] = static_cast<u64>(cur);
        borrow = static_cast<u64>(cur >> 64) & 1;
      }
    }
  }
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

/// [s]P by double-and-add over all 256 bits, doubling with the unified
/// addition so it shares no code with point_double.
inline Point scalar_mul(const Point& p, const Scalar& s) {
  const ByteArray<32> bits = sc_to_bytes(s);
  Point acc = point_identity();
  for (int byte = 31; byte >= 0; --byte) {
    for (int bit = 7; bit >= 0; --bit) {
      acc = point_add(acc, acc);
      if ((bits[byte] >> bit) & 1) acc = point_add(acc, p);
    }
  }
  return acc;
}

}  // namespace repchain::crypto::reference
