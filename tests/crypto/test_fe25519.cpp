#include "crypto/fe25519.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "reference_ops.hpp"

namespace repchain::crypto {
namespace {

Fe random_fe(Rng& rng) {
  ByteArray<32> b{};
  const Bytes raw = rng.bytes(32);
  std::copy(raw.begin(), raw.end(), b.begin());
  b[31] &= 0x7f;
  return fe_from_bytes(b);
}

TEST(Fe25519, ZeroAndOne) {
  EXPECT_TRUE(fe_is_zero(fe_zero()));
  EXPECT_FALSE(fe_is_zero(fe_one()));
  EXPECT_TRUE(fe_equal(fe_mul(fe_one(), fe_one()), fe_one()));
  EXPECT_TRUE(fe_equal(fe_add(fe_zero(), fe_one()), fe_one()));
}

TEST(Fe25519, BytesRoundTrip) {
  Rng rng(123);
  for (int i = 0; i < 50; ++i) {
    const Fe f = random_fe(rng);
    const auto enc = fe_to_bytes(f);
    const Fe g = fe_from_bytes(enc);
    EXPECT_TRUE(fe_equal(f, g));
    EXPECT_EQ(fe_to_bytes(g), enc);
  }
}

TEST(Fe25519, CanonicalEncodingReducesP) {
  // p itself encodes to zero: bytes of p = 2^255 - 19.
  ByteArray<32> p_bytes{};
  p_bytes[0] = 0xed;
  for (int i = 1; i < 31; ++i) p_bytes[i] = 0xff;
  p_bytes[31] = 0x7f;
  const Fe f = fe_from_bytes(p_bytes);
  EXPECT_TRUE(fe_is_zero(f));
  EXPECT_EQ(fe_to_bytes(f), ByteArray<32>{});
}

TEST(Fe25519, AddSubInverse) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng);
    const Fe b = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_sub(fe_add(a, b), b), a));
    EXPECT_TRUE(fe_equal(fe_add(fe_sub(a, b), b), a));
  }
}

TEST(Fe25519, NegationIsAdditiveInverse) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng);
    EXPECT_TRUE(fe_is_zero(fe_add(a, fe_neg(a))));
  }
}

TEST(Fe25519, MulCommutativeAssociativeDistributive) {
  Rng rng(13);
  for (int i = 0; i < 30; ++i) {
    const Fe a = random_fe(rng), b = random_fe(rng), c = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
    EXPECT_TRUE(fe_equal(fe_mul(fe_mul(a, b), c), fe_mul(a, fe_mul(b, c))));
    EXPECT_TRUE(
        fe_equal(fe_mul(a, fe_add(b, c)), fe_add(fe_mul(a, b), fe_mul(a, c))));
  }
}

TEST(Fe25519, SquareMatchesMul) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const Fe a = random_fe(rng);
    EXPECT_TRUE(fe_equal(fe_sq(a), fe_mul(a, a)));
  }
}

TEST(Fe25519, InvertIsMultiplicativeInverse) {
  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    Fe a = random_fe(rng);
    if (fe_is_zero(a)) a = fe_one();
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
  }
}

TEST(Fe25519, SmallIntegerArithmetic) {
  const Fe six = fe_from_u64(6);
  const Fe seven = fe_from_u64(7);
  EXPECT_TRUE(fe_equal(fe_mul(six, seven), fe_from_u64(42)));
  EXPECT_TRUE(fe_equal(fe_add(six, seven), fe_from_u64(13)));
}

TEST(Fe25519, LargeU64Load) {
  // 2^51 boundary straddling value loads correctly.
  const std::uint64_t big = (1ULL << 63) + 12345;
  const Fe f = fe_from_u64(big);
  const Fe viaAdd = [&] {
    Fe acc = fe_zero();
    const Fe two32 = fe_from_u64(1ULL << 32);
    Fe hi = fe_from_u64(big >> 32);
    acc = fe_mul(hi, two32);
    return fe_add(acc, fe_from_u64(big & 0xffffffffULL));
  }();
  EXPECT_TRUE(fe_equal(f, viaAdd));
}

TEST(Fe25519, SqrtM1SquaresToMinusOne) {
  const Fe s = kFeSqrtM1;
  EXPECT_TRUE(fe_equal(fe_sq(s), fe_neg(fe_one())));
}

TEST(Fe25519, EdwardsDMatchesDefinition) {
  // d * 121666 == -121665.
  const Fe lhs = fe_mul(kFeEdwardsD, fe_from_u64(121666));
  EXPECT_TRUE(fe_equal(lhs, fe_neg(fe_from_u64(121665))));
}

TEST(Fe25519, FermatLittleTheorem) {
  // a^(p-1) == 1 for a != 0 (via invert: a * a^(p-2)).
  Rng rng(23);
  Fe a = random_fe(rng);
  if (fe_is_zero(a)) a = fe_from_u64(2);
  const Fe a_inv = fe_invert(a);
  EXPECT_TRUE(fe_equal(fe_mul(a_inv, fe_mul(a, a)), a));
}

TEST(Fe25519, PowMatchesRepeatedMul) {
  const Fe a = fe_from_u64(3);
  ByteArray<32> exp{};
  exp[0] = 13;  // a^13
  Fe expected = fe_one();
  for (int i = 0; i < 13; ++i) expected = fe_mul(expected, a);
  EXPECT_TRUE(fe_equal(reference::fe_pow(a, exp), expected));
}

TEST(Fe25519, IsNegativeMatchesLsb) {
  EXPECT_FALSE(fe_is_negative(fe_zero()));
  EXPECT_TRUE(fe_is_negative(fe_one()));
  EXPECT_FALSE(fe_is_negative(fe_from_u64(2)));
}

}  // namespace
}  // namespace repchain::crypto
