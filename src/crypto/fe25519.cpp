#include "crypto/fe25519.hpp"

namespace repchain::crypto {

using fe_detail::carry;
using fe_detail::kMask51;
using fe_detail::u64;

Fe fe_from_bytes(const ByteArray<32>& in) {
  auto load64 = [&](int i) {
    u64 v = 0;
    for (int b = 7; b >= 0; --b) v = (v << 8) | in[i + b];
    return v;
  };
  const u64 w0 = load64(0), w1 = load64(8), w2 = load64(16), w3 = load64(24);
  Fe f;
  f.v[0] = w0 & kMask51;
  f.v[1] = ((w0 >> 51) | (w1 << 13)) & kMask51;
  f.v[2] = ((w1 >> 38) | (w2 << 26)) & kMask51;
  f.v[3] = ((w2 >> 25) | (w3 << 39)) & kMask51;
  f.v[4] = (w3 >> 12) & kMask51;  // also drops bit 255
  return f;
}

ByteArray<32> fe_to_bytes(const Fe& in) {
  Fe f = carry(carry(in));
  // Value is now < 2^255; subtract p once if >= p = 2^255 - 19.
  const bool ge_p = f.v[0] >= (kMask51 - 18) && f.v[1] == kMask51 && f.v[2] == kMask51 &&
                    f.v[3] == kMask51 && f.v[4] == kMask51;
  if (ge_p) {
    f.v[0] -= kMask51 - 18;
    f.v[1] = f.v[2] = f.v[3] = f.v[4] = 0;
  }
  const u64 w0 = f.v[0] | (f.v[1] << 51);
  const u64 w1 = (f.v[1] >> 13) | (f.v[2] << 38);
  const u64 w2 = (f.v[2] >> 26) | (f.v[3] << 25);
  const u64 w3 = (f.v[3] >> 39) | (f.v[4] << 12);
  ByteArray<32> out{};
  auto store64 = [&](int i, u64 v) {
    for (int b = 0; b < 8; ++b) out[i + b] = static_cast<std::uint8_t>(v >> (8 * b));
  };
  store64(0, w0);
  store64(8, w1);
  store64(16, w2);
  store64(24, w3);
  return out;
}

bool fe_equal(const Fe& a, const Fe& b) {
  const auto ea = fe_to_bytes(a);
  const auto eb = fe_to_bytes(b);
  return ct_equal(view(ea), view(eb));
}

bool fe_is_zero(const Fe& a) { return fe_equal(a, fe_zero()); }

bool fe_is_negative(const Fe& a) { return (fe_to_bytes(a)[0] & 1) != 0; }

}  // namespace repchain::crypto
