#include "crypto/ed25519.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/sha512.hpp"
#include "crypto/keygen.hpp"
#include "reference_ops.hpp"

namespace repchain::crypto {
namespace {

Scalar scalar_from_u64(std::uint64_t x) {
  ByteArray<32> b{};
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(x >> (8 * i));
  return sc_from_bytes(b);
}

TEST(Ed25519Group, BasePointOnCurve) {
  // -x^2 + y^2 == 1 + d*x^2*y^2 for the affine base point.
  const Point& b = point_base();
  const Fe zinv = fe_invert(b.Z);
  const Fe x = fe_mul(b.X, zinv);
  const Fe y = fe_mul(b.Y, zinv);
  const Fe lhs = fe_sub(fe_sq(y), fe_sq(x));
  const Fe rhs = fe_add(fe_one(), fe_mul(kFeEdwardsD, fe_mul(fe_sq(x), fe_sq(y))));
  EXPECT_TRUE(fe_equal(lhs, rhs));
}

TEST(Ed25519Group, BasePointHasEvenX) {
  const auto enc = point_compress(point_base());
  EXPECT_EQ(enc[31] & 0x80, 0);
}

TEST(Ed25519Group, IdentityLaws) {
  const Point id = point_identity();
  const Point& b = point_base();
  EXPECT_TRUE(point_is_identity(id));
  EXPECT_TRUE(point_equal(point_add(b, id), b));
  EXPECT_TRUE(point_equal(point_add(id, b), b));
}

TEST(Ed25519Group, NegationCancels) {
  const Point& b = point_base();
  EXPECT_TRUE(point_is_identity(point_add(b, point_neg(b))));
}

TEST(Ed25519Group, AdditionCommutative) {
  const Point p = point_base_mul(scalar_from_u64(5));
  const Point q = point_base_mul(scalar_from_u64(11));
  EXPECT_TRUE(point_equal(point_add(p, q), point_add(q, p)));
}

TEST(Ed25519Group, AdditionAssociative) {
  const Point p = point_base_mul(scalar_from_u64(3));
  const Point q = point_base_mul(scalar_from_u64(7));
  const Point r = point_base_mul(scalar_from_u64(13));
  EXPECT_TRUE(
      point_equal(point_add(point_add(p, q), r), point_add(p, point_add(q, r))));
}

TEST(Ed25519Group, ScalarMulMatchesRepeatedAddition) {
  const Point& b = point_base();
  Point acc = point_identity();
  for (std::uint64_t k = 0; k <= 16; ++k) {
    EXPECT_TRUE(point_equal(point_base_mul(scalar_from_u64(k)), acc)) << "k=" << k;
    acc = point_add(acc, b);
  }
}

TEST(Ed25519Group, ScalarMulDistributes) {
  // (a+b)P == aP + bP.
  const Scalar a = scalar_from_u64(123456789);
  const Scalar b = scalar_from_u64(987654321);
  const Point lhs = point_base_mul(sc_add(a, b));
  const Point rhs = point_add(point_base_mul(a), point_base_mul(b));
  EXPECT_TRUE(point_equal(lhs, rhs));
}

TEST(Ed25519Group, OrderLAnnihilatesBase) {
  // [L]B == identity, checked via [L-1]B + B.
  ByteArray<32> lm1 = {};
  const Bytes l_minus_1 =
      from_hex("ecd3f55c1a631258d69cf7a2def9de1400000000000000000000000000000010");
  std::copy(l_minus_1.begin(), l_minus_1.end(), lm1.begin());
  const Point p = reference::scalar_mul(point_base(), sc_from_bytes(lm1));
  EXPECT_TRUE(point_is_identity(point_add(p, point_base())));
}

TEST(Ed25519Group, DoubleScalarMatchesTwoLadders) {
  Rng rng(777);
  for (int i = 0; i < 10; ++i) {
    ByteArray<64> wa{}, wb{};
    Bytes ra = rng.bytes(64), rb = rng.bytes(64);
    std::copy(ra.begin(), ra.end(), wa.begin());
    std::copy(rb.begin(), rb.end(), wb.begin());
    const Scalar a = sc_from_bytes_wide(wa);
    const Scalar b = sc_from_bytes_wide(wb);
    const Point p = point_base_mul(scalar_from_u64(9999 + i));

    const Point fast = point_double_scalar_mul(a, p, b);
    const Point slow = point_add(reference::scalar_mul(p, a), point_base_mul(b));
    EXPECT_TRUE(point_equal(fast, slow)) << "i=" << i;
  }
}

TEST(Ed25519Group, DoubleScalarZeroEdges) {
  const Scalar zero = sc_zero();
  const Scalar five = scalar_from_u64(5);
  const Point p = point_base_mul(scalar_from_u64(3));
  EXPECT_TRUE(point_is_identity(point_double_scalar_mul(zero, p, zero)));
  EXPECT_TRUE(point_equal(point_double_scalar_mul(zero, p, five), point_base_mul(five)));
  EXPECT_TRUE(
      point_equal(point_double_scalar_mul(five, p, zero), reference::scalar_mul(p, five)));
}

TEST(Ed25519Group, CompressDecompressRoundTrip) {
  for (std::uint64_t k : {1ULL, 2ULL, 3ULL, 99ULL, 0xdeadbeefULL}) {
    const Point p = point_base_mul(scalar_from_u64(k));
    const auto enc = point_compress(p);
    const auto q = point_decompress(enc);
    ASSERT_TRUE(q.has_value()) << "k=" << k;
    EXPECT_TRUE(point_equal(p, *q));
    EXPECT_EQ(point_compress(*q), enc);
  }
}

TEST(Ed25519Group, DecompressRejectsOffCurve) {
  // Brute scan: some encodings must be rejected (roughly half of y values
  // have no matching x).
  int rejected = 0;
  for (std::uint8_t y0 = 0; y0 < 50; ++y0) {
    ByteArray<32> enc{};
    enc[0] = y0;
    if (!point_decompress(enc)) ++rejected;
  }
  EXPECT_GT(rejected, 5);
}

TEST(Ed25519Group, DecompressRejectsMinusZeroX) {
  // y = 1 gives x = 0; the encoding with sign bit set must be rejected.
  ByteArray<32> enc{};
  enc[0] = 1;
  ASSERT_TRUE(point_decompress(enc).has_value());
  enc[31] |= 0x80;
  EXPECT_FALSE(point_decompress(enc).has_value());
}

// 32-byte encoding of y (little-endian) with bit 255 set to `sign`, where
// y is given as the low byte on top of an all-0xff body ending in 0x7f.
ByteArray<32> y_above_p(std::uint8_t low, bool sign) {
  ByteArray<32> enc;
  enc.fill(0xff);
  enc[0] = low;
  enc[31] = static_cast<std::uint8_t>(sign ? 0xff : 0x7f);
  return enc;
}

TEST(Ed25519Group, DecompressRejectsNonCanonicalY) {
  // RFC 8032 §5.1.3: y >= p must fail to decode. y = p + 1 would otherwise
  // alias the identity (y = 1), y = p the order-4 point (sqrt(-1), 0).
  EXPECT_FALSE(point_decompress(y_above_p(0xee, false)).has_value());  // y = p + 1
  EXPECT_FALSE(point_decompress(y_above_p(0xed, false)).has_value());  // y = p
  for (int low = 0xed; low <= 0xff; ++low) {
    for (bool sign : {false, true}) {
      EXPECT_FALSE(point_decompress(y_above_p(static_cast<std::uint8_t>(low), sign)))
          << "low=" << low << " sign=" << sign;
    }
  }
  // Their canonical twins (y = 1 and y = 0) decode.
  ByteArray<32> one{};
  one[0] = 1;
  EXPECT_TRUE(point_decompress(one).has_value());
  EXPECT_TRUE(point_decompress(ByteArray<32>{}).has_value());
}

TEST(Ed25519Sign, NonCanonicalREncodingRejected) {
  // A signature that satisfies the verification equation with R = identity,
  // once with R canonically encoded (y = 1) and once as y = p + 1. Only the
  // canonical one verifies, in verify and in verify_batch.
  PrivateSeed seed;
  seed.bytes.fill(7);
  const SigningKey key(seed);
  const Hash512 h = Sha512::hash(view(seed.bytes));
  ByteArray<32> a_bytes{};
  std::copy(h.begin(), h.begin() + 32, a_bytes.begin());
  a_bytes[0] &= 248;
  a_bytes[31] &= 127;
  a_bytes[31] |= 64;
  const Scalar a = sc_from_bytes(a_bytes);
  const Bytes msg = to_bytes("identity commitment");

  const auto sign_with_r = [&](const ByteArray<32>& r_enc) {
    // S = k * a with k = H(R || A || M): then [S]B = [k]A = R + [k]A.
    const Hash512 kh = sha512_concat({view(r_enc), view(key.public_key().bytes), msg});
    ByteArray<64> wide{};
    std::copy(kh.begin(), kh.end(), wide.begin());
    const ByteArray<32> s_enc = sc_to_bytes(sc_muladd(sc_from_bytes_wide(wide), a, sc_zero()));
    Signature sig;
    std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
    std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
    return sig;
  };
  ByteArray<32> canonical{};
  canonical[0] = 1;
  const Signature good = sign_with_r(canonical);
  const Signature aliased = sign_with_r(y_above_p(0xee, false));

  EXPECT_TRUE(verify(key.public_key(), msg, good));
  EXPECT_FALSE(verify(key.public_key(), msg, aliased));
  Rng rng(1010);
  const std::vector<BatchItem> good_batch{{key.public_key(), msg, good}};
  const std::vector<BatchItem> aliased_batch{{key.public_key(), msg, aliased}};
  EXPECT_TRUE(verify_batch(good_batch, rng));
  EXPECT_FALSE(verify_batch(aliased_batch, rng));
}

TEST(Ed25519Sign, NonCanonicalKeyVerifiesNothing) {
  // A key encoded as y = p + 1 does not decode, so nothing verifies under it.
  const VerifyingKey key(PublicKey{y_above_p(0xee, false)});
  EXPECT_FALSE(key.point().has_value());
  Rng rng(1011);
  const SigningKey signer(random_seed(rng));
  const Bytes msg = to_bytes("m");
  EXPECT_FALSE(verify(key, msg, signer.sign(msg)));
}

TEST(Ed25519Sign, SmallOrderKeyVerifiesNothing) {
  // The eight small-order points: the identity, the order-2 point, and the
  // points of order 4 and 8 with both x signs. Under a small-order A the
  // cofactored equation [8]([S]B - [k]A - R) == O holds for R = [r]B, S = r
  // and any message, so decoding refuses such keys.
  const char* const encodings[] = {
      "0100000000000000000000000000000000000000000000000000000000000000",
      "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
      "0000000000000000000000000000000000000000000000000000000000000000",
      "0000000000000000000000000000000000000000000000000000000000000080",
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
      "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
      "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
  };
  const Scalar r = scalar_from_u64(12345);
  const ByteArray<32> r_enc = point_compress(point_base_mul(r));
  Signature sig;
  std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
  const ByteArray<32> s_enc = sc_to_bytes(r);
  std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
  const Bytes msg = to_bytes("any message at all");
  Rng rng(1012);
  for (const char* hex : encodings) {
    PublicKey pub;
    const Bytes raw = from_hex(hex);
    std::copy(raw.begin(), raw.end(), pub.bytes.begin());
    const auto a = point_decompress(pub.bytes);
    ASSERT_TRUE(a.has_value()) << hex;
    ASSERT_TRUE(point_is_identity(point_mul_by_cofactor(*a))) << hex;
    // The equation alone would accept the forgery...
    const Hash512 kh = sha512_concat({view(r_enc), view(pub.bytes), msg});
    ByteArray<64> wide{};
    std::copy(kh.begin(), kh.end(), wide.begin());
    const Point lhs = point_double_scalar_mul(sc_from_bytes_wide(wide), point_neg(*a), r);
    EXPECT_TRUE(point_is_identity(
        point_mul_by_cofactor(point_add(lhs, point_neg(point_base_mul(r))))))
        << hex;
    // ...so the key decodes to nothing and verifies nothing.
    const VerifyingKey key(pub);
    EXPECT_FALSE(key.point().has_value()) << hex;
    EXPECT_FALSE(verify(key, msg, sig)) << hex;
    const std::vector<BatchItem> batch{{key, msg, sig}};
    EXPECT_FALSE(verify_batch(batch, rng)) << hex;
  }
}

TEST(Ed25519Sign, SignVerifyRoundTrip) {
  Rng rng(1001);
  for (int i = 0; i < 5; ++i) {
    const SigningKey key(random_seed(rng));
    const Bytes msg = to_bytes("message number " + std::to_string(i));
    const Signature sig = key.sign(msg);
    EXPECT_TRUE(verify(key.public_key(), msg, sig));
  }
}

TEST(Ed25519Sign, EmptyMessage) {
  Rng rng(1002);
  const SigningKey key(random_seed(rng));
  const Signature sig = key.sign(Bytes{});
  EXPECT_TRUE(verify(key.public_key(), Bytes{}, sig));
}

TEST(Ed25519Sign, DeterministicSignatures) {
  Rng rng(1003);
  const SigningKey key(random_seed(rng));
  const Bytes msg = to_bytes("determinism matters for the VRF");
  EXPECT_EQ(key.sign(msg), key.sign(msg));
}

TEST(Ed25519Sign, TamperedMessageRejected) {
  Rng rng(1004);
  const SigningKey key(random_seed(rng));
  Bytes msg = to_bytes("original payload");
  const Signature sig = key.sign(msg);
  msg[0] ^= 0x01;
  EXPECT_FALSE(verify(key.public_key(), msg, sig));
}

TEST(Ed25519Sign, TamperedSignatureRejected) {
  Rng rng(1005);
  const SigningKey key(random_seed(rng));
  const Bytes msg = to_bytes("payload");
  for (std::size_t byte : {0u, 31u, 32u, 63u}) {
    Signature sig = key.sign(msg);
    sig.bytes[byte] ^= 0x01;
    EXPECT_FALSE(verify(key.public_key(), msg, sig)) << "byte " << byte;
  }
}

TEST(Ed25519Sign, WrongKeyRejected) {
  Rng rng(1006);
  const SigningKey a(random_seed(rng));
  const SigningKey b(random_seed(rng));
  const Bytes msg = to_bytes("payload");
  EXPECT_FALSE(verify(b.public_key(), msg, a.sign(msg)));
}

TEST(Ed25519Sign, NonCanonicalSRejected) {
  Rng rng(1007);
  const SigningKey key(random_seed(rng));
  const Bytes msg = to_bytes("payload");
  Signature sig = key.sign(msg);
  // Force S >= L by setting the top byte to a value that pushes it over.
  sig.bytes[63] = 0xff;
  EXPECT_FALSE(verify(key.public_key(), msg, sig));
}

TEST(Ed25519Sign, DifferentSeedsDifferentKeys) {
  Rng rng(1008);
  const SigningKey a(random_seed(rng));
  const SigningKey b(random_seed(rng));
  EXPECT_NE(a.public_key(), b.public_key());
}

TEST(Ed25519Sign, SameSeedSameKey) {
  PrivateSeed seed;
  for (std::size_t i = 0; i < 32; ++i) seed.bytes[i] = static_cast<std::uint8_t>(i);
  const SigningKey a(seed), b(seed);
  EXPECT_EQ(a.public_key(), b.public_key());
  EXPECT_EQ(a.sign(to_bytes("x")), b.sign(to_bytes("x")));
}

TEST(Ed25519Sign, LongMessage) {
  Rng rng(1009);
  const SigningKey key(random_seed(rng));
  const Bytes msg = rng.bytes(10000);
  EXPECT_TRUE(verify(key.public_key(), msg, key.sign(msg)));
}

// RFC 8032 §7.1 known-answer vectors: seed -> public key, (seed, message) ->
// signature, and the signature verifies under the public key.
struct Rfc8032Vector {
  const char* name;
  const char* seed;
  const char* public_key;
  const char* message;
  const char* signature;
};

constexpr Rfc8032Vector kRfc8032Vectors[] = {
    {"TEST 1", "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
     "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a", "",
     "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
     "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"},
    {"TEST 2", "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
     "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c", "72",
     "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
     "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"},
    {"TEST 3", "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
     "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025", "af82",
     "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac"
     "18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"},
    {"TEST SHA(abc)", "833fe62409237b9d62ec77587520911e9a759cec1d19755b7da901b96dca3d42",
     "ec172b93ad5e563bf4932c70e1245034c35467ef2efd4d64ebf819683467e2bf",
     "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
     "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
     "dc2a4459e7369633a52b1bf277839a00201009a3efbf3ecb69bea2186c26b589"
     "09351fc9ac90b3ecfdfbc7c66431e0303dca179c138ac17ad9bef1177331a704"},
};

TEST(Ed25519Rfc8032, KnownAnswerVectors) {
  for (const Rfc8032Vector& v : kRfc8032Vectors) {
    SCOPED_TRACE(v.name);
    PrivateSeed seed;
    const Bytes seed_bytes = from_hex(v.seed);
    std::copy(seed_bytes.begin(), seed_bytes.end(), seed.bytes.begin());
    const Bytes message = from_hex(v.message);

    const SigningKey key(seed);
    EXPECT_EQ(to_hex(view(key.public_key().bytes)), v.public_key);
    const Signature sig = key.sign(message);
    EXPECT_EQ(to_hex(view(sig.bytes)), v.signature);
    EXPECT_TRUE(verify(key.public_key(), message, sig));
  }
}

}  // namespace
}  // namespace repchain::crypto
