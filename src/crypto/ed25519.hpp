#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "common/bytes.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/sc25519.hpp"

namespace repchain::crypto {

/// Point on edwards25519 in extended twisted Edwards coordinates
/// (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.
struct Point {
  Fe X, Y, Z, T;
};

[[nodiscard]] Point point_identity();
/// The standard base point B (y = 4/5, even x).
[[nodiscard]] const Point& point_base();

/// Unified addition (add-2008-hwcd-3): 9 multiplications, also valid for
/// P == Q.
[[nodiscard]] Point point_add(const Point& p, const Point& q);
/// Dedicated doubling (dbl-2008-hwcd): 4 multiplications + 4 squarings.
[[nodiscard]] Point point_double(const Point& p);
[[nodiscard]] Point point_neg(const Point& p);

/// [s]B by a fixed-base comb over a static table of 32 x 8 affine multiples
/// of B: 64 mixed additions and 4 doublings, with branch-free table
/// lookups, so the cost does not depend on the (secret) scalar. Used by
/// key generation, signing and VRF evaluation.
[[nodiscard]] Point point_base_mul(const Scalar& s);

/// A point with Z = 1 in the form a mixed addition consumes:
/// (y+x, y-x, 2dxy). Adding it costs 3 multiplications.
struct AffinePoint {
  Fe yplusx, yminusx, xy2d;
};

/// A scalar's 256 bit positions fall into four 64-bit chunks; chunk c's
/// digits are added against multiples of [2^(64c)]P, so a point with a
/// table needs only a 64-doubling chain for any scalar.
inline constexpr int kMsmChunks = 4;
inline constexpr int kMsmChunkBits = 64;

/// Fixed-base table of one point P: odd[c][j] = (2j+1) [2^(64c)] P for
/// c < 4, j < 8, the 32 affine points a width-5 signed-digit (wNAF)
/// recoding of any scalar adds against. 3.75 KiB; building it costs 192
/// doublings, 28 additions and one batch inversion.
struct PointTable {
  AffinePoint odd[kMsmChunks][8];
};

[[nodiscard]] PointTable point_table(const Point& p);

/// sum_i [s_i]P_i + sum_j [t_j]Q_j + [b]B in variable time, for public
/// scalars only. Each scalar is recoded once in wNAF (width 5; B's width
/// 8) and all terms share one doubling chain:
///  - P_i (`terms`) has no table: its odd multiples P, 3P, ..., 15P are
///    computed here in cached form, and its digits run the full chain
///    (~253 doublings for a full-size scalar, ~128 for a 128-bit one).
///  - Q_j (`tabled`) and B come with fixed-base tables (PointTable and a
///    static 4 x 64 table of odd multiples of [2^(64c)]B): digit p goes to
///    chunk p/64 at chain position p%64, so they need 64 doublings.
/// The chain is as long as the longest untabled scalar, or 64. A 253-bit
/// scalar costs ~42 additions (width 5), B's ~28 (width 8). The
/// verification hot path.
[[nodiscard]] Point point_multi_scalar_mul(
    std::span<const std::pair<Scalar, Point>> terms,
    std::span<const std::pair<Scalar, const PointTable*>> tabled, const Scalar& b);

/// point_multi_scalar_mul with untabled terms only.
[[nodiscard]] Point point_multi_scalar_mul(
    std::span<const std::pair<Scalar, Point>> terms, const Scalar& b = Scalar{});

/// [a]P + [b]B: point_multi_scalar_mul with one untabled term. A 253-bit
/// scalar costs ~253 doublings plus ~42 additions for P and ~28 for B.
[[nodiscard]] Point point_double_scalar_mul(const Scalar& a, const Point& p,
                                            const Scalar& b);

/// [8]P, the cofactor multiple: three doublings. Identity exactly when P
/// has small order (1, 2, 4 or 8).
[[nodiscard]] Point point_mul_by_cofactor(const Point& p);

/// Projective equality (x1 == x2 and y1 == y2 as affine points).
[[nodiscard]] bool point_equal(const Point& p, const Point& q);
[[nodiscard]] bool point_is_identity(const Point& p);

/// RFC 8032 point compression: 255-bit y plus the sign bit of x.
[[nodiscard]] ByteArray<32> point_compress(const Point& p);
/// Decompression; nullopt for encodings that are not on the curve, that
/// carry a non-canonical y >= p (RFC 8032 §5.1.3), or that set the sign bit
/// of x = 0.
[[nodiscard]] std::optional<Point> point_decompress(const ByteArray<32>& in);

/// 32-byte Ed25519 seed (the RFC 8032 private key).
struct PrivateSeed {
  ByteArray<32> bytes{};
};

/// Compressed public key.
struct PublicKey {
  ByteArray<32> bytes{};
  auto operator<=>(const PublicKey&) const = default;
};

/// 64-byte signature: R (32) || S (32).
struct Signature {
  ByteArray<64> bytes{};
  auto operator<=>(const Signature&) const = default;
};

/// Signing key with the expanded secret cached; deterministic signatures per
/// RFC 8032 (no signing-time randomness — also what makes the VRF well
/// defined, see vrf.hpp).
class SigningKey {
 public:
  explicit SigningKey(const PrivateSeed& seed);

  [[nodiscard]] const PublicKey& public_key() const { return public_; }
  [[nodiscard]] Signature sign(BytesView message) const;

 private:
  Scalar secret_scalar_;
  ByteArray<32> prefix_{};
  PublicKey public_;
};

/// A public key decoded once: the encoding plus its curve point. Decoding
/// costs a square root, so a permissioned deployment decodes each enrolled
/// key at enrolment (identity::IdentityManager) instead of on every verify.
/// An encoding that is not a curve point, or that names a small-order point
/// (three doublings reach the identity), yields a key that verifies nothing:
/// under the cofactored equation such a key would accept any message.
///
/// An enrolled key (`VerifyingKey::enrolled`) is also expanded: on its first
/// verification it builds the PointTable of -A (~40 µs), which every later
/// verification through it, or through any copy of it, reuses; [k](-A) then
/// needs 64 doublings instead of ~253. A one-shot key (the implicit
/// conversion from PublicKey) never builds one.
class VerifyingKey {
 public:
  VerifyingKey() = default;
  /// Decodes `pub` as a one-shot key; implicit so a PublicKey can stand
  /// wherever a key is consumed.
  VerifyingKey(const PublicKey& pub);

  /// Decodes `pub` as a key that is held and verified against many times.
  [[nodiscard]] static VerifyingKey enrolled(const PublicKey& pub);

  [[nodiscard]] const PublicKey& encoded() const { return encoded_; }
  /// The decoded point A, or nullopt for an off-curve or small-order
  /// encoding.
  [[nodiscard]] const std::optional<Point>& point() const { return point_; }

  /// The table of -A, built on the first call by whichever thread gets
  /// there first and shared with every copy of the key; nullptr for a
  /// one-shot key or a key that verifies nothing.
  [[nodiscard]] const PointTable* table() const;

 private:
  struct LazyTable;

  PublicKey encoded_;
  std::optional<Point> point_;
  std::shared_ptr<LazyTable> table_;  // null for one-shot keys
};

/// Key tables built so far in this process (all threads).
[[nodiscard]] std::size_t key_tables_built();

/// Verify an Ed25519 signature. Returns false (never throws) on any
/// malformed input: non-canonical S, off-curve or non-canonical R, off-curve
/// or small-order A. The equation is the cofactored [8]([S]B - [k]A - R) == O
/// (RFC 8032 §5.1.7), the one verify_batch checks too, so a small-order
/// component in R gets the same verdict from both paths.
[[nodiscard]] bool verify(const VerifyingKey& key, BytesView message, const Signature& sig);

/// Decode-then-verify for keys that are not held decoded (the CA key, light
/// clients).
[[nodiscard]] bool verify(const PublicKey& pub, BytesView message, const Signature& sig);

}  // namespace repchain::crypto
