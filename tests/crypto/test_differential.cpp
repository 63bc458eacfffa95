// Differential tests: each optimized layer of the Ed25519 stack against the
// straightforward reference it replaced (reference_ops.hpp), over at least
// 10,000 random inputs from a fixed seed.

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/ed25519.hpp"
#include "reference_ops.hpp"

namespace repchain::crypto {
namespace {

constexpr int kInputs = 10'000;

template <std::size_t N>
ByteArray<N> random_array(Rng& rng) {
  ByteArray<N> out{};
  const Bytes raw = rng.bytes(N);
  std::copy(raw.begin(), raw.end(), out.begin());
  return out;
}

// Loosely reduced field element: random 51-bit limbs plus, on every other
// draw, an extra 2^51 in one limb, the way sums leave them.
Fe random_fe(Rng& rng, int i) {
  Fe f;
  for (auto& limb : f.v) limb = rng.next_u64() & ((std::uint64_t{1} << 51) - 1);
  if (i % 2 == 1) f.v[i % 5] += std::uint64_t{1} << 51;
  return f;
}

Scalar random_scalar(Rng& rng) { return sc_from_bytes_wide(random_array<64>(rng)); }

Point random_point(Rng& rng) { return point_base_mul(random_scalar(rng)); }

TEST(Differential, FeSqMatchesMulSelf) {
  Rng rng(0xf5);
  for (int i = 0; i < kInputs; ++i) {
    const Fe a = random_fe(rng, i);
    ASSERT_EQ(fe_to_bytes(fe_sq(a)), fe_to_bytes(fe_mul(a, a))) << "i=" << i;
  }
}

TEST(Differential, FeSqNMatchesRepeatedSq) {
  Rng rng(0xf6);
  for (int i = 0; i < kInputs; ++i) {
    const Fe a = random_fe(rng, i);
    const int n = i % 12;
    Fe expected = a;
    for (int k = 0; k < n; ++k) expected = fe_mul(expected, expected);
    ASSERT_EQ(fe_to_bytes(fe_sq_n(a, n)), fe_to_bytes(expected)) << "i=" << i;
  }
}

TEST(Differential, FeInvertAndPow22523MatchGenericPow) {
  const ByteArray<32> p_minus_2 = reference::exponent_all_ff(0xeb, 0x7f);  // 2^255 - 21
  const ByteArray<32> p_minus_5_over_8 = reference::exponent_all_ff(0xfd, 0x0f);  // 2^252 - 3
  Rng rng(0xf7);
  for (int i = 0; i < kInputs; ++i) {
    const Fe a = random_fe(rng, i);
    ASSERT_EQ(fe_to_bytes(fe_invert(a)), fe_to_bytes(reference::fe_pow(a, p_minus_2)))
        << "i=" << i;
    ASSERT_EQ(fe_to_bytes(fe_pow22523(a)),
              fe_to_bytes(reference::fe_pow(a, p_minus_5_over_8)))
        << "i=" << i;
  }
  EXPECT_EQ(fe_to_bytes(fe_invert(fe_zero())), ByteArray<32>{});
}

TEST(Differential, ScalarReductionMatchesBitSerial) {
  Rng rng(0x5c);
  std::vector<ByteArray<64>> inputs;
  // Edges: 0, 2^512 - 1, L - 1, L, L + 1, and L * 2^256.
  inputs.push_back(ByteArray<64>{});
  ByteArray<64> ones;
  ones.fill(0xff);
  inputs.push_back(ones);
  const Bytes l = from_hex("edd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  for (int delta : {-1, 0, 1}) {
    ByteArray<64> x{};
    std::copy(l.begin(), l.end(), x.begin());
    x[0] = static_cast<std::uint8_t>(x[0] + delta);  // 0xed +- 1: no carry
    inputs.push_back(x);
  }
  ByteArray<64> l_high{};
  std::copy(l.begin(), l.end(), l_high.begin() + 32);
  inputs.push_back(l_high);
  for (int i = 0; i < kInputs; ++i) {
    ByteArray<64> x = random_array<64>(rng);
    // Every fourth input is short (a 256-bit or 128-bit value), like the
    // sc_from_bytes and batch-coefficient reductions.
    if (i % 4 == 1) std::fill(x.begin() + 32, x.end(), 0);
    if (i % 4 == 2) std::fill(x.begin() + 16, x.end(), 0);
    inputs.push_back(x);
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const ByteArray<64>& x = inputs[i];
    std::uint64_t limbs[8];
    for (int l = 0; l < 8; ++l) {
      limbs[l] = 0;
      for (int b = 7; b >= 0; --b) limbs[l] = (limbs[l] << 8) | x[8 * l + b];
    }
    const Scalar expected = reference::reduce_bits(limbs, 8);
    ASSERT_TRUE(sc_equal(sc_from_bytes_wide(x), expected)) << "i=" << i;
    ByteArray<32> narrow{};
    std::copy(x.begin(), x.begin() + 32, narrow.begin());
    ASSERT_TRUE(sc_equal(sc_from_bytes(narrow), reference::reduce_bits(limbs, 4)))
        << "i=" << i;
  }
}

TEST(Differential, ScalarMulAddAndAddMatchBitSerial) {
  Rng rng(0x5d);
  for (int i = 0; i < kInputs; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng), c = random_scalar(rng);
    // a*b + c as a 512-bit integer, reduced bit by bit.
    std::uint64_t wide[8] = {};
    for (int x = 0; x < 4; ++x) {
      unsigned __int128 carry = 0;
      for (int y = 0; y < 4; ++y) {
        const unsigned __int128 cur =
            (unsigned __int128)a.v[x] * b.v[y] + wide[x + y] + carry;
        wide[x + y] = static_cast<std::uint64_t>(cur);
        carry = cur >> 64;
      }
      wide[x + 4] = static_cast<std::uint64_t>(carry);
    }
    unsigned __int128 carry = 0;
    for (int x = 0; x < 8; ++x) {
      const unsigned __int128 cur = (unsigned __int128)wide[x] + (x < 4 ? c.v[x] : 0) + carry;
      wide[x] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    ASSERT_TRUE(sc_equal(sc_muladd(a, b, c), reference::reduce_bits(wide, 8))) << "i=" << i;

    std::uint64_t sum[5] = {};
    carry = 0;
    for (int x = 0; x < 4; ++x) {
      const unsigned __int128 cur = (unsigned __int128)a.v[x] + b.v[x] + carry;
      sum[x] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    sum[4] = static_cast<std::uint64_t>(carry);
    ASSERT_TRUE(sc_equal(sc_add(a, b), reference::reduce_bits(sum, 5))) << "i=" << i;
  }
}

TEST(Differential, BaseMulMatchesLadder) {
  Rng rng(0xb0);
  for (int i = 0; i < kInputs; ++i) {
    // Mix full-width scalars with short and sparse ones, whose signed digits
    // hit the zero and extreme table entries.
    Scalar s = random_scalar(rng);
    if (i % 8 == 1) s.v[1] = s.v[2] = s.v[3] = 0;
    if (i % 8 == 2) s.v[0] = 0;
    if (i % 8 == 3) s = Scalar{{0x8888888888888888ULL, 0x8888888888888888ULL,
                                0x8888888888888888ULL, 0x0888888888888888ULL}};
    ASSERT_EQ(point_compress(point_base_mul(s)),
              point_compress(reference::scalar_mul(point_base(), s)))
        << "i=" << i;
  }
}

TEST(Differential, DoubleScalarMulMatchesSumOfLadders) {
  Rng rng(0xd5);
  for (int i = 0; i < kInputs; ++i) {
    const Scalar a = random_scalar(rng), b = random_scalar(rng);
    const Point p = random_point(rng);
    const Point expected =
        point_add(reference::scalar_mul(p, a), reference::scalar_mul(point_base(), b));
    ASSERT_TRUE(point_equal(point_double_scalar_mul(a, p, b), expected)) << "i=" << i;
  }
}

TEST(Differential, MultiScalarMulMatchesSumOfLadders) {
  // 2,500 sums of four terms (10,000 terms), with 128-bit scalars mixed in
  // as verify_batch's coefficients are.
  Rng rng(0x35);
  for (int i = 0; i < kInputs / 4; ++i) {
    std::vector<std::pair<Scalar, Point>> terms;
    Point expected = point_identity();
    for (int t = 0; t < 4; ++t) {
      Scalar s = random_scalar(rng);
      if (t % 2 == 1) s.v[2] = s.v[3] = 0;
      const Point p = random_point(rng);
      terms.emplace_back(s, p);
      expected = point_add(expected, reference::scalar_mul(p, s));
    }
    const Scalar b = random_scalar(rng);
    ASSERT_TRUE(point_equal(point_multi_scalar_mul(terms), expected)) << "i=" << i;
    const Point with_base = point_add(expected, reference::scalar_mul(point_base(), b));
    ASSERT_TRUE(point_equal(point_multi_scalar_mul(terms, b), with_base)) << "i=" << i;
  }
}

// RFC 8032 §5.1.3 decoding, with the square root taken by generic
// exponentiation: the reference the optimized decompression must agree with.
std::optional<Point> reference_decompress(const ByteArray<32>& in) {
  ByteArray<32> y_enc = in;
  y_enc[31] &= 0x7f;
  const Fe y = fe_from_bytes(in);
  if (fe_to_bytes(y) != y_enc) return std::nullopt;
  const Fe y2 = fe_mul(y, y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(kFeEdwardsD, y2), fe_one());
  // x = (u/v)^((p+3)/8), (p+3)/8 = 2^252 - 2.
  const Fe uv = fe_mul(u, reference::fe_pow(v, reference::exponent_all_ff(0xeb, 0x7f)));
  Fe x = reference::fe_pow(uv, reference::exponent_all_ff(0xfe, 0x0f));
  if (!fe_equal(fe_mul(v, fe_mul(x, x)), u)) {
    x = fe_mul(x, kFeSqrtM1);
    if (!fe_equal(fe_mul(v, fe_mul(x, x)), u)) return std::nullopt;
  }
  const bool sign = (in[31] & 0x80) != 0;
  if (fe_is_zero(x) && sign) return std::nullopt;
  if (fe_is_negative(x) != sign) x = fe_neg(x);
  return Point{x, y, fe_one(), fe_mul(x, y)};
}

TEST(Differential, DecompressAcceptRejectParity) {
  Rng rng(0xdc);
  int accepted = 0;
  for (int i = 0; i < kInputs; ++i) {
    ByteArray<32> enc = random_array<32>(rng);
    // Every eighth input is a y just above p - 19 or in [p, 2^255), where
    // canonicity decides.
    if (i % 8 == 7) {
      enc.fill(0xff);
      enc[31] = static_cast<std::uint8_t>(0x7f | (i & 16 ? 0x80 : 0));
      enc[0] = static_cast<std::uint8_t>(0xd0 + (i / 8) % 0x30);
    }
    const auto got = point_decompress(enc);
    const auto want = reference_decompress(enc);
    ASSERT_EQ(got.has_value(), want.has_value()) << "i=" << i << " " << to_hex(view(enc));
    if (got) {
      ++accepted;
      ASSERT_TRUE(point_equal(*got, *want)) << "i=" << i;
      ASSERT_EQ(point_compress(*got), enc) << "i=" << i;
    }
  }
  // About half of all y values are on the curve.
  EXPECT_GT(accepted, kInputs / 3);
  EXPECT_LT(accepted, 2 * kInputs / 3);
}

}  // namespace
}  // namespace repchain::crypto
