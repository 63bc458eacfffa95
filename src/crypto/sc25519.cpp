#include "crypto/sc25519.hpp"

namespace repchain::crypto {

namespace {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

// L = 2^252 + 27742317777372353535851937790883648493, little-endian limbs.
constexpr u64 kL[4] = {0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0x0ULL,
                       0x1000000000000000ULL};

// mu = floor(2^512 / L), the Barrett constant (260 bits).
constexpr u64 kMu[5] = {0xed9ce5a30a2c131bULL, 0x2106215d086329a7ULL, 0xffffffffffffffebULL,
                        0xffffffffffffffffULL, 0xfULL};

// Compare 256-bit values: a >= b.
bool ge256(const u64 a[4], const u64 b[4]) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] > b[i];
  }
  return true;
}

// r = r - L if r >= L, for r < 2^320, without a secret-dependent branch.
void sub_l_if_ge(u64 r[5]) {
  u64 d[5];
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 cur = (u128)r[i] - (i < 4 ? kL[i] : 0) - borrow;
    d[i] = static_cast<u64>(cur);
    borrow = static_cast<u64>(cur >> 64) & 1;
  }
  const u64 keep = 0 - borrow;  // all ones iff r < L
  for (int i = 0; i < 5; ++i) r[i] = (r[i] & keep) | (d[i] & ~keep);
}

// x mod L for a 512-bit little-endian x, by Barrett reduction with base 2^64
// and k = 4 limbs (HAC 14.42): q = floor(floor(x / 2^192) * mu / 2^320)
// underestimates floor(x / L) by at most 2, so r = x - q*L (computed mod
// 2^320) needs at most two conditional subtractions. Fully reduced output.
Scalar reduce_wide(const u64 x[8]) {
  // q3 = high five limbs of (x >> 192) * mu.
  u64 prod[10] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 5; ++j) {
      const u128 cur = (u128)x[3 + i] * kMu[j] + prod[i + j] + carry;
      prod[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    prod[i + 5] = carry;
  }
  const u64* q3 = prod + 5;

  // r = (x mod 2^320) - (q3 * L mod 2^320), mod 2^320.
  u64 ql[5] = {};
  for (int i = 0; i < 5; ++i) {
    u64 carry = 0;
    for (int j = 0; i + j < 5 && j < 4; ++j) {
      const u128 cur = (u128)q3[i] * kL[j] + ql[i + j] + carry;
      ql[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    if (i + 4 < 5) ql[i + 4] += carry;
  }
  u64 r[5];
  u64 borrow = 0;
  for (int i = 0; i < 5; ++i) {
    const u128 cur = (u128)x[i] - ql[i] - borrow;
    r[i] = static_cast<u64>(cur);
    borrow = static_cast<u64>(cur >> 64) & 1;
  }
  sub_l_if_ge(r);
  sub_l_if_ge(r);
  return Scalar{{r[0], r[1], r[2], r[3]}};
}

void load_limbs(const std::uint8_t* in, int nlimbs, u64* out) {
  for (int i = 0; i < nlimbs; ++i) {
    u64 v = 0;
    for (int b = 7; b >= 0; --b) v = (v << 8) | in[8 * i + b];
    out[i] = v;
  }
}
}  // namespace

Scalar sc_from_bytes_wide(const ByteArray<64>& in) {
  u64 limbs[8];
  load_limbs(in.data(), 8, limbs);
  return reduce_wide(limbs);
}

Scalar sc_from_bytes(const ByteArray<32>& in) {
  u64 limbs[8] = {};
  load_limbs(in.data(), 4, limbs);
  return reduce_wide(limbs);
}

bool sc_is_canonical(const ByteArray<32>& in) {
  u64 limbs[4];
  load_limbs(in.data(), 4, limbs);
  return !ge256(limbs, kL);
}

ByteArray<32> sc_to_bytes(const Scalar& s) {
  ByteArray<32> out{};
  for (int i = 0; i < 4; ++i) {
    for (int b = 0; b < 8; ++b) {
      out[8 * i + b] = static_cast<std::uint8_t>(s.v[i] >> (8 * b));
    }
  }
  return out;
}

Scalar sc_muladd(const Scalar& a, const Scalar& b, const Scalar& c) {
  // 512-bit product a*b + c via schoolbook multiplication.
  u64 wide[8] = {};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = (u128)a.v[i] * b.v[j] + wide[i + j] + carry;
      wide[i + j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    wide[i + 4] += carry;
  }
  // wide += c.
  u128 carry = 0;
  for (int i = 0; i < 8; ++i) {
    const u128 cur = (u128)wide[i] + (i < 4 ? c.v[i] : 0) + carry;
    wide[i] = static_cast<u64>(cur);
    carry = cur >> 64;
  }
  return reduce_wide(wide);
}

Scalar sc_add(const Scalar& a, const Scalar& b) {
  // a + b < 2L, so one conditional subtraction reduces it.
  u64 sum[5] = {};
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 cur = (u128)a.v[i] + b.v[i] + carry;
    sum[i] = static_cast<u64>(cur);
    carry = static_cast<u64>(cur >> 64);
  }
  sum[4] = carry;
  sub_l_if_ge(sum);
  return Scalar{{sum[0], sum[1], sum[2], sum[3]}};
}

Scalar sc_zero() { return Scalar{}; }

bool sc_equal(const Scalar& a, const Scalar& b) {
  u64 diff = 0;
  for (int i = 0; i < 4; ++i) diff |= a.v[i] ^ b.v[i];
  return diff == 0;
}

bool sc_is_zero(const Scalar& s) { return sc_equal(s, sc_zero()); }

}  // namespace repchain::crypto
