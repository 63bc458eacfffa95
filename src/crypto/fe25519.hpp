#pragma once

#include <cstdint>

#include "common/bytes.hpp"

namespace repchain::crypto {

/// Element of GF(2^255 - 19) in radix-2^51 representation (5 limbs).
/// Limbs are kept loosely reduced (< 2^52-ish) between operations; `carry`
/// normalizes, `to_bytes` produces the unique canonical encoding.
///
/// This is the arithmetic core of the from-scratch Ed25519 implementation
/// (see DESIGN.md: crypto substrate). The ring operations are constexpr and
/// defined here so the group layer inlines them and can build its static
/// tables at compile time.
struct Fe {
  std::uint64_t v[5] = {0, 0, 0, 0, 0};
};

namespace fe_detail {
using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (u64{1} << 51) - 1;

// 2p in radix-2^51 (used to keep subtraction non-negative).
constexpr u64 kTwoP0 = 0x0fffffffffffdaULL;     // 2*(2^51 - 19)
constexpr u64 kTwoP1234 = 0x0ffffffffffffeULL;  // 2*(2^51 - 1)

// Propagate carries so every limb fits in 51 bits (+ tiny excess in limb 1
// from the *19 wrap).
constexpr Fe carry(Fe f) {
  u64 c = 0;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
  c = f.v[1] >> 51; f.v[1] &= kMask51; f.v[2] += c;
  c = f.v[2] >> 51; f.v[2] &= kMask51; f.v[3] += c;
  c = f.v[3] >> 51; f.v[3] &= kMask51; f.v[4] += c;
  c = f.v[4] >> 51; f.v[4] &= kMask51; f.v[0] += c * 19;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
  return f;
}

// One carry step on every limb at once (the carries come from the input
// limbs, so the five steps are independent): limbs below 2^63 come out below
// 2^51 + 2^12 * 19. Enough between operations; `carry` finishes the job for
// encoding.
constexpr Fe carry_weak(const Fe& f) {
  Fe r;
  r.v[0] = (f.v[0] & kMask51) + (f.v[4] >> 51) * 19;
  r.v[1] = (f.v[1] & kMask51) + (f.v[0] >> 51);
  r.v[2] = (f.v[2] & kMask51) + (f.v[1] >> 51);
  r.v[3] = (f.v[3] & kMask51) + (f.v[2] >> 51);
  r.v[4] = (f.v[4] & kMask51) + (f.v[3] >> 51);
  return r;
}

// Reduce the five 102-bit column sums of a product to 51-bit limbs.
constexpr Fe carry_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe f;
  u64 c = 0;
  c = static_cast<u64>(t0 >> 51); f.v[0] = static_cast<u64>(t0) & kMask51; t1 += c;
  c = static_cast<u64>(t1 >> 51); f.v[1] = static_cast<u64>(t1) & kMask51; t2 += c;
  c = static_cast<u64>(t2 >> 51); f.v[2] = static_cast<u64>(t2) & kMask51; t3 += c;
  c = static_cast<u64>(t3 >> 51); f.v[3] = static_cast<u64>(t3) & kMask51; t4 += c;
  c = static_cast<u64>(t4 >> 51); f.v[4] = static_cast<u64>(t4) & kMask51;
  f.v[0] += c * 19;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
  return f;
}
}  // namespace fe_detail

constexpr Fe fe_zero() { return Fe{}; }
constexpr Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }
constexpr Fe fe_from_u64(std::uint64_t x) {
  return Fe{{x & fe_detail::kMask51, x >> 51, 0, 0, 0}};
}

/// Load from 32 little-endian bytes; the top (256th) bit is ignored, as in
/// RFC 8032 point decoding. Values in [p, 2^255) load unreduced; callers
/// that need canonical input compare against fe_to_bytes.
[[nodiscard]] Fe fe_from_bytes(const ByteArray<32>& in);

/// Store canonical (fully reduced) 32-byte little-endian encoding.
[[nodiscard]] ByteArray<32> fe_to_bytes(const Fe& f);

[[nodiscard]] constexpr Fe fe_add(const Fe& a, const Fe& b) {
  Fe f;
  for (int i = 0; i < 5; ++i) f.v[i] = a.v[i] + b.v[i];
  return fe_detail::carry_weak(f);
}

[[nodiscard]] constexpr Fe fe_sub(const Fe& a, const Fe& b) {
  Fe f;
  f.v[0] = a.v[0] + fe_detail::kTwoP0 - b.v[0];
  for (int i = 1; i < 5; ++i) f.v[i] = a.v[i] + fe_detail::kTwoP1234 - b.v[i];
  return fe_detail::carry_weak(f);
}

[[nodiscard]] constexpr Fe fe_neg(const Fe& a) { return fe_sub(fe_zero(), a); }

[[nodiscard]] constexpr Fe fe_mul(const Fe& a, const Fe& b) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3], b4 = b.v[4];
  const u64 b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19, b4_19 = b4 * 19;

  const u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
                  (u128)a3 * b2_19 + (u128)a4 * b1_19;
  const u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
                  (u128)a3 * b3_19 + (u128)a4 * b2_19;
  const u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
                  (u128)a3 * b4_19 + (u128)a4 * b3_19;
  const u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
                  (u128)a3 * b0 + (u128)a4 * b4_19;
  const u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
                  (u128)a3 * b1 + (u128)a4 * b0;
  return fe_detail::carry_wide(t0, t1, t2, t3, t4);
}

/// a^2 with the cross products doubled once: 15 partial products instead of
/// fe_mul's 25.
[[nodiscard]] constexpr Fe fe_sq(const Fe& a) {
  using fe_detail::u128;
  using fe_detail::u64;
  const u64 a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3], a4 = a.v[4];
  const u64 d0 = a0 * 2, d1 = a1 * 2, d2_19 = a2 * 2 * 19;
  const u64 a3_19 = a3 * 19, a4_19 = a4 * 19, d4_19 = a4_19 * 2;

  const u128 t0 = (u128)a0 * a0 + (u128)d4_19 * a1 + (u128)d2_19 * a3;
  const u128 t1 = (u128)d0 * a1 + (u128)d4_19 * a2 + (u128)a3 * a3_19;
  const u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)d4_19 * a3;
  const u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
  const u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
  return fe_detail::carry_wide(t0, t1, t2, t3, t4);
}

/// a^(2^n): n successive squarings.
[[nodiscard]] constexpr Fe fe_sq_n(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

namespace fe_detail {
/// The addition chain shared by inversion and pow22523: returns
/// a^(2^250 - 1) and stores a^11 in `a11`.
constexpr Fe pow_2_250_1(const Fe& a, Fe& a11) {
  const Fe a2 = fe_sq(a);
  const Fe a9 = fe_mul(fe_sq_n(a2, 2), a);
  a11 = fe_mul(a9, a2);
  const Fe e5 = fe_mul(fe_sq(a11), a9);          // 2^5 - 1
  const Fe e10 = fe_mul(fe_sq_n(e5, 5), e5);     // 2^10 - 1
  const Fe e20 = fe_mul(fe_sq_n(e10, 10), e10);  // 2^20 - 1
  const Fe e40 = fe_mul(fe_sq_n(e20, 20), e20);  // 2^40 - 1
  const Fe e50 = fe_mul(fe_sq_n(e40, 10), e10);  // 2^50 - 1
  const Fe e100 = fe_mul(fe_sq_n(e50, 50), e50);     // 2^100 - 1
  const Fe e200 = fe_mul(fe_sq_n(e100, 100), e100);  // 2^200 - 1
  return fe_mul(fe_sq_n(e200, 50), e50);             // 2^250 - 1
}
}  // namespace fe_detail

/// a^(2^255 - 21)  ==  a^(p-2)  ==  a^-1 (for a != 0). The ref10 addition
/// chain: 254 squarings and 11 multiplications.
[[nodiscard]] constexpr Fe fe_invert(const Fe& a) {
  Fe a11;
  const Fe e250 = fe_detail::pow_2_250_1(a, a11);
  return fe_mul(fe_sq_n(e250, 5), a11);
}

/// a^((p-5)/8) = a^(2^252 - 3); used in square-root extraction for point
/// decompression. 251 squarings and 11 multiplications.
[[nodiscard]] constexpr Fe fe_pow22523(const Fe& a) {
  Fe a11;
  const Fe e250 = fe_detail::pow_2_250_1(a, a11);
  return fe_mul(fe_sq_n(e250, 2), a);
}

/// Branch-free select: f = g if `flag` is 1, unchanged if it is 0.
constexpr void fe_cmov(Fe& f, const Fe& g, std::uint64_t flag) {
  const std::uint64_t mask = 0 - flag;
  for (int i = 0; i < 5; ++i) f.v[i] ^= mask & (f.v[i] ^ g.v[i]);
}

/// True iff canonical encodings match.
[[nodiscard]] bool fe_equal(const Fe& a, const Fe& b);
[[nodiscard]] bool fe_is_zero(const Fe& a);
/// Least significant bit of the canonical encoding (the "sign" of x in
/// RFC 8032 point compression).
[[nodiscard]] bool fe_is_negative(const Fe& a);

/// sqrt(-1) mod p = 2^((p-1)/4).
inline constexpr Fe kFeSqrtM1{{0x61b274a0ea0b0, 0x0d5a5fc8f189d, 0x7ef5e9cbd0c60,
                               0x78595a6804c9e, 0x2b8324804fc1d}};
/// Edwards curve constant d = -121665/121666 mod p, and 2d.
inline constexpr Fe kFeEdwardsD{{0x34dca135978a3, 0x1a8283b156ebd, 0x5e7a26001c029,
                                 0x739c663a03cbb, 0x52036cee2b6ff}};
inline constexpr Fe kFeEdwards2D{{0x69b9426b2f159, 0x35050762add7a, 0x3cf44c0038052,
                                  0x6738cc7407977, 0x2406d9dc56dff}};

}  // namespace repchain::crypto
