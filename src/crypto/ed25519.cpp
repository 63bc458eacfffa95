#include "crypto/ed25519.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "crypto/sha512.hpp"

namespace repchain::crypto {

namespace {

// Internal point representations (ref10 naming). Point itself is the
// extended form P3 = (X : Y : Z : T).
//   P2:     projective (X : Y : Z), the input of a doubling.
//   P1P1:   completed ((X : Z), (Y : T)), the output of an addition or a
//           doubling; 3M to P2, 4M to P3.
//   Cached: (Y+X, Y-X, 2Z, 2dT) of a variable point: adding it costs 4M.
//   AffinePoint (ed25519.hpp): (y+x, y-x, 2dxy) of a table point with
//           Z = 1: adding it costs 3M.
struct P2 {
  Fe X, Y, Z;
};
struct P1P1 {
  Fe X, Y, Z, T;
};
struct Cached {
  Fe YplusX, YminusX, Z2, T2d;
};

constexpr P2 to_p2(const P1P1& p) {
  return {fe_mul(p.X, p.T), fe_mul(p.Y, p.Z), fe_mul(p.Z, p.T)};
}

constexpr Point to_p3(const P1P1& p) {
  return {fe_mul(p.X, p.T), fe_mul(p.Y, p.Z), fe_mul(p.Z, p.T), fe_mul(p.X, p.Y)};
}

constexpr P2 p3_to_p2(const Point& p) { return {p.X, p.Y, p.Z}; }

constexpr Cached to_cached(const Point& p) {
  return {fe_add(p.Y, p.X), fe_sub(p.Y, p.X), fe_add(p.Z, p.Z), fe_mul(p.T, kFeEdwards2D)};
}

// dbl-2008-hwcd for a = -1: 4 squarings.
constexpr P1P1 dbl(const P2& p) {
  const Fe xx = fe_sq(p.X);
  const Fe yy = fe_sq(p.Y);
  const Fe zz = fe_sq(p.Z);
  const Fe xy = fe_sq(fe_add(p.X, p.Y));
  P1P1 r;
  r.Y = fe_add(yy, xx);
  r.Z = fe_sub(yy, xx);
  r.X = fe_sub(xy, r.Y);
  r.T = fe_sub(fe_add(zz, zz), r.Z);
  return r;
}

// add-2008-hwcd-3 against a cached point: p + q.
constexpr P1P1 add(const Point& p, const Cached& q) {
  const Fe a = fe_mul(fe_add(p.Y, p.X), q.YplusX);
  const Fe b = fe_mul(fe_sub(p.Y, p.X), q.YminusX);
  const Fe c = fe_mul(q.T2d, p.T);
  const Fe d = fe_mul(p.Z, q.Z2);
  return {fe_sub(a, b), fe_add(a, b), fe_add(d, c), fe_sub(d, c)};
}

// p - q: -q swaps Y+X with Y-X and negates 2dT.
constexpr P1P1 sub(const Point& p, const Cached& q) {
  const Fe a = fe_mul(fe_add(p.Y, p.X), q.YminusX);
  const Fe b = fe_mul(fe_sub(p.Y, p.X), q.YplusX);
  const Fe c = fe_mul(q.T2d, p.T);
  const Fe d = fe_mul(p.Z, q.Z2);
  return {fe_sub(a, b), fe_add(a, b), fe_sub(d, c), fe_add(d, c)};
}

// Mixed addition against an affine table point (Z = 1).
constexpr P1P1 madd(const Point& p, const AffinePoint& q) {
  const Fe a = fe_mul(fe_add(p.Y, p.X), q.yplusx);
  const Fe b = fe_mul(fe_sub(p.Y, p.X), q.yminusx);
  const Fe c = fe_mul(q.xy2d, p.T);
  const Fe d = fe_add(p.Z, p.Z);
  return {fe_sub(a, b), fe_add(a, b), fe_add(d, c), fe_sub(d, c)};
}

constexpr P1P1 msub(const Point& p, const AffinePoint& q) {
  const Fe a = fe_mul(fe_add(p.Y, p.X), q.yminusx);
  const Fe b = fe_mul(fe_sub(p.Y, p.X), q.yplusx);
  const Fe c = fe_mul(q.xy2d, p.T);
  const Fe d = fe_add(p.Z, p.Z);
  return {fe_sub(a, b), fe_add(a, b), fe_sub(d, c), fe_add(d, c)};
}

constexpr Point add_p3(const Point& p, const Point& q) { return to_p3(add(p, to_cached(q))); }
constexpr Point double_p3(const Point& p) { return to_p3(dbl(p3_to_p2(p))); }

// [2^n]p, n >= 1, doubling in P2 between steps.
constexpr Point double_n(const Point& p, int n) {
  P1P1 r = dbl(p3_to_p2(p));
  for (int i = 1; i < n; ++i) r = dbl(to_p2(r));
  return to_p3(r);
}

// out[j] = (2j+1) p for j < n.
constexpr void odd_multiples(const Point& p, Point* out, int n) {
  const Cached p2 = to_cached(double_p3(p));
  out[0] = p;
  for (int j = 1; j < n; ++j) out[j] = to_p3(add(out[j - 1], p2));
}

// Affine forms of N points with a single inversion (Montgomery's trick):
// prefix[k] = Z_0 * ... * Z_{k-1}; invert the full product, then walk back
// peeling one Z per point.
template <std::size_t N>
constexpr std::array<AffinePoint, N> to_affine(const std::array<Point, N>& pts) {
  std::array<Fe, N> prefix{};
  Fe acc = fe_one();
  for (std::size_t k = 0; k < N; ++k) {
    prefix[k] = acc;
    acc = fe_mul(acc, pts[k].Z);
  }
  Fe inv = fe_invert(acc);
  std::array<AffinePoint, N> out{};
  for (std::size_t k = N; k-- > 0;) {
    const Fe zinv = fe_mul(inv, prefix[k]);
    inv = fe_mul(inv, pts[k].Z);
    const Fe x = fe_mul(pts[k].X, zinv);
    const Fe y = fe_mul(pts[k].Y, zinv);
    out[k] = {fe_add(y, x), fe_sub(y, x), fe_mul(fe_mul(x, y), kFeEdwards2D)};
  }
  return out;
}

// B: y = 4/5 with the even x root (RFC 8032 §5.1).
constexpr Point kBase{
    {{0x62d608f25d51a, 0x412a4b4f6592a, 0x75b7171a4b31d, 0x1ff60527118fe, 0x216936d3cd6e5}},
    {{0x6666666666658, 0x4cccccccccccc, 0x1999999999999, 0x3333333333333, 0x6666666666666}},
    {{1, 0, 0, 0, 0}},
    {{0x68ab3a5b7dda3, 0x00eea2a5eadbb, 0x2af8df483c27e, 0x332b375274732, 0x67875f0fd78b7}}};

// Static multiples of B, built at compile time: comb[i][j] = (j+1) 256^i B
// for the fixed-base comb, odd[c][j] = (2j+1) [2^(64c)] B for B's width-8
// digits in chunk c of a multi-scalar multiplication. 512 affine points,
// 60 KiB, normalized with a single inversion.
constexpr int kCombRows = 32;
constexpr int kCombCols = 8;
constexpr int kOddB = 64;

struct BaseTables {
  AffinePoint comb[kCombRows][kCombCols];
  AffinePoint odd[kMsmChunks][kOddB];
};

constexpr BaseTables build_base_tables() {
  constexpr int kComb = kCombRows * kCombCols;
  std::array<Point, kComb + kMsmChunks * kOddB> pts{};
  Point row = kBase;
  for (int i = 0; i < kCombRows; ++i) {
    pts[i * kCombCols] = row;
    for (int j = 1; j < kCombCols; ++j) {
      pts[i * kCombCols + j] = add_p3(pts[i * kCombCols + j - 1], row);
    }
    row = double_n(row, 8);
  }
  Point chunk_base = kBase;
  for (int c = 0; c < kMsmChunks; ++c) {
    if (c > 0) chunk_base = double_n(chunk_base, kMsmChunkBits);
    odd_multiples(chunk_base, pts.data() + kComb + c * kOddB, kOddB);
  }
  const auto affine = to_affine(pts);
  BaseTables t{};
  for (int k = 0; k < kComb; ++k) t.comb[k / kCombCols][k % kCombCols] = affine[k];
  for (int k = 0; k < kMsmChunks * kOddB; ++k) t.odd[k / kOddB][k % kOddB] = affine[kComb + k];
  return t;
}

constexpr BaseTables kBaseTables = build_base_tables();
static_assert(sizeof(kBaseTables) <= 64 * 1024, "static base tables exceed 64 KiB");

constexpr void affine_cmov(AffinePoint& t, const AffinePoint& u, std::uint64_t flag) {
  fe_cmov(t.yplusx, u.yplusx, flag);
  fe_cmov(t.yminusx, u.yminusx, flag);
  fe_cmov(t.xy2d, u.xy2d, flag);
}

// |digit| * comb[row], negated when digit < 0 (digit in [-8, 8]), by a
// full scan of the row with masked moves: the memory access pattern and the
// instruction stream do not depend on the digit.
AffinePoint comb_select(int row, std::int8_t digit) {
  const int sign = digit >> 7;  // -1 or 0
  const auto neg = static_cast<std::uint64_t>(sign & 1);
  const auto abs = static_cast<std::uint64_t>((digit ^ sign) - sign);
  AffinePoint t{fe_one(), fe_one(), fe_zero()};
  for (int j = 0; j < kCombCols; ++j) {
    const std::uint64_t eq = ((abs ^ static_cast<std::uint64_t>(j + 1)) - 1) >> 63;
    affine_cmov(t, kBaseTables.comb[row][j], eq);
  }
  affine_cmov(t, AffinePoint{t.yminusx, t.yplusx, fe_neg(t.xy2d)}, neg);
  return t;
}

// Width-w non-adjacent form of s (s < 2^253): odd digits in
// (-2^(w-1), 2^(w-1)), any two nonzero digits at least w positions apart,
// sum_i digit[i] 2^i == s.
std::array<std::int8_t, 256> wnaf(const Scalar& s, int w) {
  std::array<std::int8_t, 256> naf{};
  const std::uint64_t x[5] = {s.v[0], s.v[1], s.v[2], s.v[3], 0};
  const std::uint64_t width = std::uint64_t{1} << w;
  std::uint64_t carry = 0;
  for (int pos = 0; pos < 256;) {
    const int limb = pos / 64;
    const int bit = pos % 64;
    std::uint64_t buf = x[limb] >> bit;
    if (bit > 64 - w) buf |= x[limb + 1] << (64 - bit);
    const std::uint64_t window = carry + (buf & (width - 1));
    if ((window & 1) == 0) {  // even: no digit here, the carry rides on
      ++pos;
      continue;
    }
    if (window < width / 2) {
      carry = 0;
      naf[pos] = static_cast<std::int8_t>(window);
    } else {
      carry = 1;
      naf[pos] = static_cast<std::int8_t>(static_cast<int>(window) - static_cast<int>(width));
    }
    pos += w;
  }
  return naf;
}

int top_digit(const std::array<std::int8_t, 256>& naf) {
  for (int i = 255; i >= 0; --i) {
    if (naf[i] != 0) return i;
  }
  return -1;
}

// The chain position a chunked recoding needs: its digits sit at p % 64.
int chunked_top(const std::array<std::int8_t, 256>& naf) {
  return std::min(top_digit(naf), kMsmChunkBits - 1);
}

// acc + [d]Q for an odd digit d, from a row of odd multiples row[j] = (2j+1)Q.
P1P1 add_digit(const P1P1& acc, int d, const AffinePoint* row) {
  if (d > 0) return madd(to_p3(acc), row[d / 2]);
  if (d < 0) return msub(to_p3(acc), row[-d / 2]);
  return acc;
}

}  // namespace

Point point_identity() { return {fe_zero(), fe_one(), fe_one(), fe_zero()}; }

const Point& point_base() { return kBase; }

Point point_add(const Point& p, const Point& q) { return add_p3(p, q); }

Point point_double(const Point& p) { return double_p3(p); }

Point point_neg(const Point& p) {
  Point r = p;
  r.X = fe_neg(p.X);
  r.T = fe_neg(p.T);
  return r;
}

Point point_base_mul(const Scalar& s) {
  // Signed radix-16 digits e[i] in [-8, 8] with s = sum e[i] 16^i (s < 2^253
  // keeps the top digit in range). Odd digits are summed first against the
  // rows 16^(2i) B and scaled by 16; then the even digits are added.
  const ByteArray<32> a = sc_to_bytes(s);
  std::int8_t e[64];
  for (int i = 0; i < 32; ++i) {
    e[2 * i] = static_cast<std::int8_t>(a[i] & 15);
    e[2 * i + 1] = static_cast<std::int8_t>(a[i] >> 4);
  }
  int carry = 0;
  for (int i = 0; i < 63; ++i) {
    const int v = e[i] + carry;
    carry = (v + 8) >> 4;
    e[i] = static_cast<std::int8_t>(v - (carry << 4));
  }
  e[63] = static_cast<std::int8_t>(e[63] + carry);

  Point h = point_identity();
  for (int i = 1; i < 64; i += 2) h = to_p3(madd(h, comb_select(i / 2, e[i])));
  P1P1 r = dbl(p3_to_p2(h));
  for (int k = 0; k < 3; ++k) r = dbl(to_p2(r));
  h = to_p3(r);
  for (int i = 0; i < 64; i += 2) h = to_p3(madd(h, comb_select(i / 2, e[i])));
  return h;
}

PointTable point_table(const Point& p) {
  std::array<Point, kMsmChunks * 8> pts{};
  Point chunk_base = p;
  for (int c = 0; c < kMsmChunks; ++c) {
    if (c > 0) chunk_base = double_n(chunk_base, kMsmChunkBits);
    odd_multiples(chunk_base, pts.data() + c * 8, 8);
  }
  const auto affine = to_affine(pts);
  PointTable t;
  for (int k = 0; k < kMsmChunks * 8; ++k) t.odd[k / 8][k % 8] = affine[k];
  return t;
}

Point point_multi_scalar_mul(std::span<const std::pair<Scalar, Point>> terms,
                             std::span<const std::pair<Scalar, const PointTable*>> tabled,
                             const Scalar& b) {
  struct Term {
    std::array<std::int8_t, 256> naf;
    Cached odd[8];  // P, 3P, ..., 15P
  };
  struct TabledTerm {
    std::array<std::int8_t, 256> naf;
    const PointTable* table;
  };
  std::vector<Term> t(terms.size());
  std::vector<TabledTerm> u(tabled.size());
  int top = -1;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    t[i].naf = wnaf(terms[i].first, 5);
    top = std::max(top, top_digit(t[i].naf));
    const Point& p = terms[i].second;
    const Point p2 = point_double(p);
    t[i].odd[0] = to_cached(p);
    for (int j = 1; j < 8; ++j) t[i].odd[j] = to_cached(to_p3(add(p2, t[i].odd[j - 1])));
  }
  for (std::size_t i = 0; i < tabled.size(); ++i) {
    u[i] = {wnaf(tabled[i].first, 5), tabled[i].second};
    top = std::max(top, chunked_top(u[i].naf));
  }
  const std::array<std::int8_t, 256> bnaf = wnaf(b, 8);
  top = std::max(top, chunked_top(bnaf));
  if (top < 0) return point_identity();

  // Doublings stay in P2 -> P1P1; only a position with a digit pays the 4M
  // conversion to P3 for its additions. Chain positions >= 64 carry digits
  // of untabled terms only.
  P2 r{fe_zero(), fe_one(), fe_one()};
  for (int pos = top;; --pos) {
    P1P1 acc = dbl(r);
    for (const Term& term : t) {
      const int d = term.naf[pos];
      if (d > 0) {
        acc = add(to_p3(acc), term.odd[d / 2]);
      } else if (d < 0) {
        acc = sub(to_p3(acc), term.odd[-d / 2]);
      }
    }
    if (pos < kMsmChunkBits) {
      for (int c = 0; c < kMsmChunks; ++c) {
        const int at = c * kMsmChunkBits + pos;
        for (const TabledTerm& term : u) acc = add_digit(acc, term.naf[at], term.table->odd[c]);
        acc = add_digit(acc, bnaf[at], kBaseTables.odd[c]);
      }
    }
    if (pos == 0) return to_p3(acc);
    r = to_p2(acc);
  }
}

Point point_multi_scalar_mul(std::span<const std::pair<Scalar, Point>> terms,
                             const Scalar& b) {
  return point_multi_scalar_mul(terms, {}, b);
}

Point point_double_scalar_mul(const Scalar& a, const Point& p, const Scalar& b) {
  const std::pair<Scalar, Point> term{a, p};
  return point_multi_scalar_mul({&term, 1}, b);
}

Point point_mul_by_cofactor(const Point& p) {
  P1P1 r = dbl(p3_to_p2(p));
  r = dbl(to_p2(r));
  return to_p3(dbl(to_p2(r)));
}

bool point_equal(const Point& p, const Point& q) {
  // x1/z1 == x2/z2  <=>  x1*z2 == x2*z1, same for y.
  const Fe lx = fe_mul(p.X, q.Z);
  const Fe rx = fe_mul(q.X, p.Z);
  const Fe ly = fe_mul(p.Y, q.Z);
  const Fe ry = fe_mul(q.Y, p.Z);
  return fe_equal(lx, rx) && fe_equal(ly, ry);
}

bool point_is_identity(const Point& p) { return point_equal(p, point_identity()); }

ByteArray<32> point_compress(const Point& p) {
  const Fe zinv = fe_invert(p.Z);
  const Fe x = fe_mul(p.X, zinv);
  const Fe y = fe_mul(p.Y, zinv);
  ByteArray<32> out = fe_to_bytes(y);
  if (fe_is_negative(x)) out[31] |= 0x80;
  return out;
}

std::optional<Point> point_decompress(const ByteArray<32>& in) {
  const bool x_sign = (in[31] & 0x80) != 0;
  const Fe y = fe_from_bytes(in);  // drops bit 255

  // y must be canonical: an encoding of y + p (y < 19) names the same field
  // element but is not a valid encoding.
  ByteArray<32> y_enc = in;
  y_enc[31] &= 0x7f;
  if (fe_to_bytes(y) != y_enc) return std::nullopt;

  // Solve x^2 = (y^2 - 1) / (d*y^2 + 1).
  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_one());
  const Fe v = fe_add(fe_mul(kFeEdwardsD, y2), fe_one());

  // Candidate root x = u * v^3 * (u * v^7)^((p-5)/8).
  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (fe_equal(vx2, fe_neg(u))) {
      x = fe_mul(x, kFeSqrtM1);
    } else {
      return std::nullopt;  // not a curve point
    }
  }
  if (fe_is_zero(x) && x_sign) return std::nullopt;  // -0 is not canonical
  if (fe_is_negative(x) != x_sign) x = fe_neg(x);

  Point p;
  p.X = x;
  p.Y = y;
  p.Z = fe_one();
  p.T = fe_mul(x, y);
  return p;
}

namespace {
Scalar clamp_scalar(ByteArray<32> a) {
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
  // The clamped value is < 2^255; reduce mod L for use with our scalar type.
  return sc_from_bytes(a);
}

Scalar challenge(const ByteArray<32>& r_enc, const PublicKey& pub, BytesView message) {
  const Hash512 kh = sha512_concat({view(r_enc), view(pub.bytes), message});
  ByteArray<64> kh_arr{};
  std::copy(kh.begin(), kh.end(), kh_arr.begin());
  return sc_from_bytes_wide(kh_arr);
}
}  // namespace

SigningKey::SigningKey(const PrivateSeed& seed) {
  const Hash512 h = Sha512::hash(view(seed.bytes));
  ByteArray<32> lower{};
  for (int i = 0; i < 32; ++i) lower[i] = h[i];
  for (int i = 0; i < 32; ++i) prefix_[i] = h[32 + i];
  secret_scalar_ = clamp_scalar(lower);
  public_.bytes = point_compress(point_base_mul(secret_scalar_));
}

Signature SigningKey::sign(BytesView message) const {
  // r = SHA-512(prefix || M) mod L.
  const Hash512 rh = sha512_concat({view(prefix_), message});
  ByteArray<64> rh_arr{};
  std::copy(rh.begin(), rh.end(), rh_arr.begin());
  const Scalar r = sc_from_bytes_wide(rh_arr);

  const ByteArray<32> r_enc = point_compress(point_base_mul(r));

  // k = SHA-512(enc(R) || pub || M) mod L.
  const Scalar k = challenge(r_enc, public_, message);

  const Scalar s = sc_muladd(k, secret_scalar_, r);
  const ByteArray<32> s_enc = sc_to_bytes(s);

  Signature sig;
  std::copy(r_enc.begin(), r_enc.end(), sig.bytes.begin());
  std::copy(s_enc.begin(), s_enc.end(), sig.bytes.begin() + 32);
  return sig;
}

namespace {
std::atomic<std::size_t> g_key_tables_built{0};
}  // namespace

struct VerifyingKey::LazyTable {
  std::once_flag once;
  std::unique_ptr<const PointTable> table;
};

VerifyingKey::VerifyingKey(const PublicKey& pub)
    : encoded_(pub), point_(point_decompress(pub.bytes)) {
  if (point_ && point_is_identity(point_mul_by_cofactor(*point_))) point_.reset();
}

VerifyingKey VerifyingKey::enrolled(const PublicKey& pub) {
  VerifyingKey key(pub);
  if (key.point_) key.table_ = std::make_shared<LazyTable>();
  return key;
}

const PointTable* VerifyingKey::table() const {
  if (!table_) return nullptr;
  std::call_once(table_->once, [this] {
    table_->table = std::make_unique<const PointTable>(point_table(point_neg(*point_)));
    g_key_tables_built.fetch_add(1, std::memory_order_relaxed);
  });
  return table_->table.get();
}

std::size_t key_tables_built() { return g_key_tables_built.load(std::memory_order_relaxed); }

bool verify(const VerifyingKey& key, BytesView message, const Signature& sig) {
  if (!key.point()) return false;
  ByteArray<32> r_enc{}, s_enc{};
  std::copy(sig.bytes.begin(), sig.bytes.begin() + 32, r_enc.begin());
  std::copy(sig.bytes.begin() + 32, sig.bytes.end(), s_enc.begin());

  if (!sc_is_canonical(s_enc)) return false;
  const Scalar s = sc_from_bytes(s_enc);

  const auto r = point_decompress(r_enc);
  if (!r) return false;

  const Scalar k = challenge(r_enc, key.encoded(), message);

  // Check [8]([k](-A) + [S]B - R) == O: one multi-scalar multiplication
  // (64 doublings with the key's table, ~253 without), one addition and
  // three doublings.
  const PointTable* table = key.table();
  const std::pair<Scalar, const PointTable*> tabled{k, table};
  const Point lhs = table ? point_multi_scalar_mul({}, {&tabled, 1}, s)
                          : point_double_scalar_mul(k, point_neg(*key.point()), s);
  return point_is_identity(point_mul_by_cofactor(point_add(lhs, point_neg(*r))));
}

bool verify(const PublicKey& pub, BytesView message, const Signature& sig) {
  return verify(VerifyingKey(pub), message, sig);
}

}  // namespace repchain::crypto
