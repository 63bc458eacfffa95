#include <gtest/gtest.h>

#include <string>

#include "crypto/sha256.hpp"
#include "crypto/sha512.hpp"

namespace repchain::crypto {
namespace {

Bytes msg(std::string_view s) { return to_bytes(s); }

// FIPS 180-4 / NIST CAVP known-answer vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(view(Sha256::hash(msg("")))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(view(Sha256::hash(msg("abc")))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(view(Sha256::hash(
                msg("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(msg(chunk));
  EXPECT_EQ(to_hex(view(h.finish())),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes data = msg("the quick brown fox jumps over the lazy dog, repeatedly");
  Sha256 inc;
  for (std::size_t i = 0; i < data.size(); ++i) {
    inc.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(inc.finish(), Sha256::hash(data));
}

TEST(Sha256, UnevenChunkingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<std::uint8_t>(i * 7));
  for (std::size_t split = 0; split <= data.size(); split += 37) {
    Sha256 h;
    h.update(BytesView(data.data(), split));
    h.update(BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), Sha256::hash(data)) << "split=" << split;
  }
}

TEST(Sha256, BoundarySizesDiffer) {
  // Messages straddling the 55/56/63/64-byte padding boundaries all hash
  // without error and produce distinct digests.
  std::set<std::string> seen;
  for (std::size_t n : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u, 129u}) {
    const Bytes data(n, 0x5a);
    seen.insert(to_hex(view(Sha256::hash(data))));
  }
  EXPECT_EQ(seen.size(), 11u);
}

TEST(Sha256, ConcatHelper) {
  const Bytes a = msg("ab"), b = msg("c");
  EXPECT_EQ(sha256_concat({a, b}), Sha256::hash(msg("abc")));
}

TEST(Sha512, EmptyString) {
  EXPECT_EQ(to_hex(view(Sha512::hash(msg("")))),
            "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
            "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e");
}

TEST(Sha512, Abc) {
  EXPECT_EQ(to_hex(view(Sha512::hash(msg("abc")))),
            "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
            "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f");
}

TEST(Sha512, TwoBlockMessage) {
  EXPECT_EQ(to_hex(view(Sha512::hash(msg(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")))),
            "8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
            "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909");
}

TEST(Sha512, MillionA) {
  Sha512 h;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(msg(chunk));
  EXPECT_EQ(to_hex(view(h.finish())),
            "e718483d0ce769644e2e42c7bc15b4638e1f98b13b2044285632a803afa973eb"
            "de0ff244877ea60a4cb0432ce577c31beb009c5c2c49aa2e4eadb217ad8cc09b");
}

TEST(Sha512, IncrementalMatchesOneShot) {
  const Bytes data = msg("incremental hashing should match one-shot hashing exactly");
  Sha512 inc;
  for (std::size_t i = 0; i < data.size(); ++i) {
    inc.update(BytesView(&data[i], 1));
  }
  EXPECT_EQ(inc.finish(), Sha512::hash(data));
}

TEST(Sha512, BoundarySizesDiffer) {
  std::set<std::string> seen;
  for (std::size_t n : {0u, 1u, 111u, 112u, 113u, 127u, 128u, 129u, 255u, 256u}) {
    const Bytes data(n, 0xa5);
    seen.insert(to_hex(view(Sha512::hash(data))));
  }
  EXPECT_EQ(seen.size(), 10u);
}

// Padding boundaries: 0x80 plus the length field fit in one block up to 55
// (SHA-256) / 111 (SHA-512) bytes and spill into a second block from 56 /
// 112. The message is bytes 0, 1, 2, ... (mod 256); digests from Python
// hashlib.
Bytes counting_bytes(std::size_t n) {
  Bytes data(n);
  for (std::size_t i = 0; i < n; ++i) data[i] = static_cast<std::uint8_t>(i);
  return data;
}

struct LengthVector {
  std::size_t length;
  const char* digest_hex;
};

TEST(Sha256, PaddingBoundaryKnownAnswers) {
  const LengthVector vectors[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59"},
      {56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562"},
      {63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488"},
      {64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108"},
      {111, "60780e9451bdc43cf4530ffc95cbb0c4eb24dae2c39f55f334d679e076c08065"},
      {112, "09373f127d34e61dbbaa8bc4499c87074f2ddb10e1b465f506d7d70a15011979"},
      {119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6"},
      {127, "92ca0fa6651ee2f97b884b7246a562fa71250fedefe5ebf270d31c546bfea976"},
      {128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5"},
  };
  for (const LengthVector& v : vectors) {
    EXPECT_EQ(to_hex(view(Sha256::hash(counting_bytes(v.length)))), v.digest_hex)
        << "length=" << v.length;
  }
}

TEST(Sha512, PaddingBoundaryKnownAnswers) {
  const LengthVector vectors[] = {
      {0, "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
          "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"},
      {55, "6856647f269c2ee3d8128f0b25427659d880641ef343300dd3cd4679168f58d6"
          "527fda70b4ebc854e2065e172b7d58c1536992c0810599259ba84a2b40c65414"},
      {56, "8b12b2f6fe400a51d29656e2b8c42a1bbfe6fcf3e425da430db05d1a2dda1479"
          "0dee20fa8b22d8762afffe4988a5c98a4430d22a17e41e23d90fa61ab75671a9"},
      {63, "9dc9c5598e55dc42955695320839788e353f1d7f6ba74df74c80a8a52f463c06"
          "97f57f68835d1418f4ce9b6530cd79bd0f4c6f7e13c93feb1218c0b65c2c0561"},
      {64, "ee4320ebaf3fdb4f2c832b137200c08e235e0fa7bbd0eb1740c7063ba8a0d151"
          "da77e003398e1714a955d475b05e3e950b639503b452ec185de4229bc4873949"},
      {111, "a1a111449b198d9b1f538bad7f3fc1022b3a5b1a5e90a0bc860de8512746cbc3"
          "1599e6c834de3a3235327af0b51ff57bf7acf1974a73014d9c3953812edc7c8d"},
      {112, "c5fbd731d19d2ae1180f001be72c2c1aaba1d7b094b3748880e24593b8e117a7"
          "50e11c1bd867cc2f96dace8c8b74abd2d5c4f236be444e77d30d1916174070b9"},
      {119, "43e497279c2ce805903a33b54b746ea92d607f7c4807986c849823b81097a909"
          "9b5896ac7cc66df3a93edc8a91b6f3971d6c7f5688daf635737760bd080e27b3"},
      {127, "eab89674feaa34e27aebeeff3c0a4d70070bb872d5e9f186cf1dbbdee517b6e3"
          "5724d629ff025a5b07185e911ada7e3c8acf830aa0e4f71777bd2d44f504f7f0"},
      {128, "1dffd5e3adb71d45d2245939665521ae001a317a03720a45732ba1900ca3b835"
          "1fc5c9b4ca513eba6f80bc7b1d1fdad4abd13491cb824d61b08d8c0e1561b3f7"},
  };
  for (const LengthVector& v : vectors) {
    EXPECT_EQ(to_hex(view(Sha512::hash(counting_bytes(v.length)))), v.digest_hex)
        << "length=" << v.length;
  }
}

}  // namespace
}  // namespace repchain::crypto
