#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "crypto/ed25519.hpp"

namespace repchain::crypto {

/// One signature in a batch. The key is held decoded (a PublicKey converts
/// implicitly, decoding once); a copy of an enrolled key shares its table.
struct BatchItem {
  VerifyingKey pub;
  Bytes message;
  Signature sig;
};

/// Batch signature verification with random linear combination:
///
///   [8]((sum_i z_i S_i) B  -  sum_i z_i R_i  -  sum_i z_i k_i A_i)  ==  O
///
/// with fresh random 128-bit coefficients z_i, so corrupted signatures
/// cannot cancel each other out except with negligible probability. The
/// factor 8 makes it the batch form of verify()'s cofactored equation: a
/// small-order component in some R_i vanishes whatever its z_i, so the batch
/// and per-item verdicts agree even on adversarial signatures. Returns
/// true iff every signature in the batch is valid; on false the caller
/// falls back to per-signature verification to locate offenders (see
/// verify_batch_detailed).
///
/// The check is one point_multi_scalar_mul with one doubling chain shared
/// by the whole batch. Each R_i is an untabled term: 8 cached multiples
/// and ~21 additions (128-bit z_i), and it sets the chain to ~128
/// doublings. Each A_i of an enrolled key is a tabled term (~42 additions
/// against its PointTable); a one-shot key's A_i is untabled and lengthens
/// the chain to ~253. Each item still pays one decompression (R_i); keys
/// come decoded. With enrolled keys a single verify() runs 64 doublings,
/// so the batch is cheaper per signature from three items on
/// (protocol::VerifiedBatch::kBatchCrossover); with one-shot keys, from
/// two.
///
/// This accelerates bulk ingestion paths (a governor verifying a round's
/// uploads); correctness-critical single checks keep using verify().
[[nodiscard]] bool verify_batch(std::span<const BatchItem> items, Rng& rng);

/// Batch-then-fallback: one multi-scalar check; if it fails, per-item
/// verification pinpoints the invalid signatures. Returns per-item validity.
[[nodiscard]] std::vector<bool> verify_batch_detailed(std::span<const BatchItem> items,
                                                      Rng& rng);

}  // namespace repchain::crypto
