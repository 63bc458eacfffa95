// Enrolled keys' fixed-base tables: the table entries against the reference
// ladder, the chunked multi-scalar multiplication against summed ladders,
// tabled verification against the untabled path on valid and adversarial
// signatures (fixed seeds, >= 10,000 inputs), and the lazy, shared,
// build-once behaviour of VerifyingKey::table().

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "crypto/batch_verify.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/keygen.hpp"
#include "crypto/sha512.hpp"
#include "reference_ops.hpp"

namespace repchain::crypto {
namespace {

constexpr int kInputs = 10'000;

Scalar random_scalar(Rng& rng) {
  ByteArray<64> wide{};
  const Bytes raw = rng.bytes(64);
  std::copy(raw.begin(), raw.end(), wide.begin());
  return sc_from_bytes_wide(wide);
}

// A random scalar below 2^bits (bits <= 256; reduced mod L).
Scalar random_scalar_bits(Rng& rng, int bits) {
  ByteArray<32> b{};
  const Bytes raw = rng.bytes(32);
  for (int i = 0; i < 32; ++i) {
    const int keep = std::clamp(bits - 8 * i, 0, 8);
    b[i] = static_cast<std::uint8_t>(raw[i] & ((1u << keep) - 1));
  }
  return sc_from_bytes(b);
}

// Whether the table entry a is the point p = (X : Y : Z : T): with x = X/Z,
// y = Y/Z and xy = T/Z, compare a's coordinates scaled by Z.
bool affine_is(const AffinePoint& a, const Point& p) {
  return fe_equal(fe_mul(a.yplusx, p.Z), fe_add(p.Y, p.X)) &&
         fe_equal(fe_mul(a.yminusx, p.Z), fe_sub(p.Y, p.X)) &&
         fe_equal(fe_mul(a.xy2d, p.Z), fe_mul(p.T, kFeEdwards2D));
}

// Ed25519 signing from a raw secret scalar a and a chosen R encoding:
// S = r + H(R || A || M) a.
Signature sign_raw(const Scalar& a, const PublicKey& pub, const Scalar& r,
                   const ByteArray<32>& r_enc, BytesView msg) {
  const Hash512 kh = sha512_concat({view(r_enc), view(pub.bytes), msg});
  ByteArray<64> wide{};
  std::copy(kh.begin(), kh.end(), wide.begin());
  const ByteArray<32> s_enc = sc_to_bytes(sc_muladd(sc_from_bytes_wide(wide), a, r));
  Signature sig;
  std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
  std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
  return sig;
}

// s + L as a 32-byte little-endian encoding (s < L, so no overflow).
ByteArray<32> add_order(const ByteArray<32>& s) {
  constexpr std::uint8_t kL[32] = {0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
                                   0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
                                   0,    0,    0,    0,    0,    0,    0,    0,
                                   0,    0,    0,    0,    0,    0,    0,    0x10};
  ByteArray<32> out{};
  unsigned carry = 0;
  for (int i = 0; i < 32; ++i) {
    const unsigned v = s[i] + kL[i] + carry;
    out[i] = static_cast<std::uint8_t>(v);
    carry = v >> 8;
  }
  return out;
}

// The eight small-order points (identity, order 2, orders 4 and 8 with both
// x signs).
const char* const kSmallOrder[] = {
    "0100000000000000000000000000000000000000000000000000000000000000",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
};

PublicKey public_key_from_hex(const char* hex) {
  PublicKey pub;
  const Bytes raw = from_hex(hex);
  std::copy(raw.begin(), raw.end(), pub.bytes.begin());
  return pub;
}

struct TestSigner {
  Scalar a;
  PublicKey pub;
  VerifyingKey one_shot;
  VerifyingKey enrolled;
};

std::vector<TestSigner> make_signers(Rng& rng, int n) {
  std::vector<TestSigner> out;
  for (int i = 0; i < n; ++i) {
    const Scalar a = random_scalar(rng);
    const PublicKey pub{point_compress(point_base_mul(a))};
    out.push_back({a, pub, VerifyingKey(pub), VerifyingKey::enrolled(pub)});
  }
  return out;
}

TEST(KeyTable, EntriesMatchReferenceLadder) {
  Rng rng(0x7ab1e);
  for (int i = 0; i < 8; ++i) {
    const Scalar a = random_scalar(rng);
    const VerifyingKey key = VerifyingKey::enrolled(PublicKey{point_compress(point_base_mul(a))});
    const PointTable* table = key.table();
    ASSERT_NE(table, nullptr);
    const Point minus_a = point_neg(*key.point());
    for (int c = 0; c < kMsmChunks; ++c) {
      for (int j = 0; j < 8; ++j) {
        ByteArray<32> m{};
        m[8 * c] = static_cast<std::uint8_t>(2 * j + 1);  // (2j+1) 2^(64c)
        const Point expected = reference::scalar_mul(minus_a, sc_from_bytes(m));
        EXPECT_TRUE(affine_is(table->odd[c][j], expected))
            << "i=" << i << " c=" << c << " j=" << j;
      }
    }
  }
}

TEST(KeyTable, MultiScalarMulWithTablesMatchesLadders) {
  // Scalar sizes around the chunk boundaries exercise the chain-length
  // choice: empty, within chunk 0, just past it, 128-bit (batch
  // coefficients) and full size.
  const int sizes[] = {0, 1, 5, 63, 64, 65, 128, 200, 256};
  Rng rng(0x7ab1f);
  for (int i = 0; i < 600; ++i) {
    std::vector<std::pair<Scalar, Point>> terms;
    std::vector<PointTable> tables;
    std::vector<Scalar> tabled_scalars;
    Point expected = point_identity();
    const int n_untabled = i % 3;
    const int n_tabled = (i / 3) % 3 + 1;
    for (int k = 0; k < n_untabled + n_tabled; ++k) {
      const Scalar s = random_scalar_bits(rng, sizes[rng.next_u64() % std::size(sizes)]);
      const Point p = point_base_mul(random_scalar(rng));
      expected = point_add(expected, reference::scalar_mul(p, s));
      if (k < n_untabled) {
        terms.emplace_back(s, p);
      } else {
        tables.push_back(point_table(p));
        tabled_scalars.push_back(s);
      }
    }
    std::vector<std::pair<Scalar, const PointTable*>> tabled;
    for (std::size_t k = 0; k < tables.size(); ++k) tabled.emplace_back(tabled_scalars[k], &tables[k]);
    const Scalar b = random_scalar_bits(rng, sizes[rng.next_u64() % std::size(sizes)]);
    expected = point_add(expected, reference::scalar_mul(point_base(), b));
    ASSERT_TRUE(point_equal(point_multi_scalar_mul(terms, tabled, b), expected)) << "i=" << i;
  }
}

TEST(KeyTable, TabledVerifyAgreesWithUntabled) {
  // Every input goes through the tabled key and the one-shot key; every
  // fourth also through a one-item batch, and every group of four inputs
  // through one batch mixing enrolled and one-shot keys.
  const Point torsion{fe_zero(), fe_neg(fe_one()), fe_one(), fe_zero()};  // order 2
  Rng rng(0x7ab20);
  std::vector<TestSigner> signers = make_signers(rng, 16);
  std::vector<TestSigner> small_order;
  for (const char* hex : kSmallOrder) {
    const PublicKey pub = public_key_from_hex(hex);
    small_order.push_back({sc_zero(), pub, VerifyingKey(pub), VerifyingKey::enrolled(pub)});
  }
  std::vector<BatchItem> group;
  std::vector<bool> group_verdicts;
  int accepted = 0;
  for (int i = 0; i < kInputs; ++i) {
    const int kind = i % 8;
    const TestSigner& signer =
        kind == 7 ? small_order[(i / 8) % small_order.size()] : signers[(i / 8) % signers.size()];
    Bytes msg = rng.bytes(1 + rng.next_u64() % 80);
    const Scalar r = random_scalar(rng);
    ByteArray<32> r_enc = point_compress(point_base_mul(r));
    if (kind == 4) r_enc = point_compress(point_add(point_base_mul(r), torsion));
    if (kind == 6) {  // y >= p: p + t for t in [0, 18]
      r_enc.fill(0xff);
      r_enc[0] = static_cast<std::uint8_t>(0xed + rng.next_u64() % 19);
      r_enc[31] = (rng.next_u64() & 1) ? 0xff : 0x7f;
    }
    Signature sig = sign_raw(signer.a, signer.pub, r, r_enc, msg);
    const std::uint64_t bit = rng.next_u64();
    switch (kind) {
      case 1:  // corrupted S
        sig.bytes[32 + (bit % 32)] ^= static_cast<std::uint8_t>(1u << ((bit >> 8) % 8));
        break;
      case 2:  // corrupted R
        sig.bytes[bit % 32] ^= static_cast<std::uint8_t>(1u << ((bit >> 8) % 8));
        break;
      case 3:  // corrupted message
        msg[bit % msg.size()] ^= static_cast<std::uint8_t>(1u << ((bit >> 8) % 8));
        break;
      case 5: {  // non-canonical S + L
        ByteArray<32> s_enc{};
        std::copy(sig.bytes.begin() + 32, sig.bytes.end(), s_enc.begin());
        const ByteArray<32> aliased = add_order(s_enc);
        std::copy(aliased.begin(), aliased.end(), sig.bytes.begin() + 32);
        break;
      }
      default:
        break;
    }

    const bool untabled = verify(signer.one_shot, msg, sig);
    const bool tabled = verify(signer.enrolled, msg, sig);
    ASSERT_EQ(tabled, untabled) << "i=" << i << " kind=" << kind;
    ASSERT_EQ(tabled, kind == 0 || kind == 4) << "i=" << i << " kind=" << kind;
    accepted += tabled ? 1 : 0;
    if (i % 4 == 0) {
      const std::vector<BatchItem> alone{{signer.enrolled, msg, sig}};
      ASSERT_EQ(verify_batch(alone, rng), tabled) << "i=" << i << " kind=" << kind;
    }
    group.push_back({i % 2 == 0 ? signer.enrolled : signer.one_shot, msg, sig});
    group_verdicts.push_back(tabled);
    if (group.size() == 4) {
      ASSERT_EQ(verify_batch_detailed(group, rng), group_verdicts) << "i=" << i;
      group.clear();
      group_verdicts.clear();
    }
  }
  EXPECT_EQ(accepted, kInputs / 4);
}

TEST(KeyTable, OneShotKeysBuildNoTable) {
  Rng rng(0x7ab21);
  const SigningKey signer(random_seed(rng));
  const Bytes msg = to_bytes("one-shot");
  const Signature sig = signer.sign(msg);

  const std::size_t before = key_tables_built();
  EXPECT_EQ(VerifyingKey(signer.public_key()).table(), nullptr);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(verify(signer.public_key(), msg, sig));
  const std::vector<BatchItem> batch{{signer.public_key(), msg, sig},
                                     {signer.public_key(), msg, sig}};
  EXPECT_TRUE(verify_batch(batch, rng));
  EXPECT_EQ(key_tables_built(), before);

  // Keys that verify nothing have nothing to expand, enrolled or not.
  EXPECT_EQ(VerifyingKey::enrolled(public_key_from_hex(kSmallOrder[4])).table(), nullptr);
  PublicKey off_curve;
  off_curve.bytes.fill(0xff);
  off_curve.bytes[0] = 0xee;
  off_curve.bytes[31] = 0x7f;  // y = p + 1: not canonical
  EXPECT_EQ(VerifyingKey::enrolled(off_curve).table(), nullptr);
  EXPECT_EQ(key_tables_built(), before);

  // An enrolled key builds on first use, once, and shares with its copies,
  // including copies taken before the build.
  const VerifyingKey enrolled = VerifyingKey::enrolled(signer.public_key());
  const VerifyingKey early_copy = enrolled;
  EXPECT_EQ(key_tables_built(), before);
  EXPECT_TRUE(verify(enrolled, msg, sig));
  EXPECT_EQ(key_tables_built(), before + 1);
  const VerifyingKey late_copy = enrolled;
  EXPECT_TRUE(verify(late_copy, msg, sig));
  EXPECT_TRUE(verify(early_copy, msg, sig));
  EXPECT_EQ(early_copy.table(), enrolled.table());
  EXPECT_EQ(late_copy.table(), enrolled.table());
  EXPECT_EQ(key_tables_built(), before + 1);
}

TEST(KeyTable, ConcurrentFirstUseBuildsOneTable) {
  // Four threads released together make the first verification through one
  // shared, not yet expanded key (two through the key itself, two through
  // copies taken inside the thread). All must agree with the one-shot
  // verdicts and exactly one table must be built.
  constexpr int kThreads = 4;
  Rng rng(0x7ab22);
  const SigningKey signer(random_seed(rng));
  std::vector<Bytes> msgs;
  std::vector<Signature> sigs;
  std::vector<bool> expected;
  for (int i = 0; i < 16; ++i) {
    msgs.push_back(rng.bytes(40));
    Signature sig = signer.sign(msgs.back());
    if (i % 3 == 1) sig.bytes[40] ^= 0x04;
    sigs.push_back(sig);
    expected.push_back(verify(signer.public_key(), msgs.back(), sig));
  }

  const VerifyingKey shared = VerifyingKey::enrolled(signer.public_key());
  const std::size_t before = key_tables_built();
  std::latch start(kThreads);
  std::vector<std::vector<bool>> verdicts(kThreads);
  std::vector<const PointTable*> tables(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const VerifyingKey copy = shared;
      const VerifyingKey& key = t % 2 == 0 ? shared : copy;
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        verdicts[t].push_back(verify(key, msgs[i], sigs[i]));
      }
      tables[t] = key.table();
    });
  }
  for (std::thread& th : threads) th.join();

  EXPECT_EQ(key_tables_built(), before + 1);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(verdicts[t], expected) << "thread " << t;
    EXPECT_NE(tables[t], nullptr);
    EXPECT_EQ(tables[t], tables[0]) << "thread " << t;
  }
}

}  // namespace
}  // namespace repchain::crypto
