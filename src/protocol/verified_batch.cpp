#include "protocol/verified_batch.hpp"

namespace repchain::protocol {

void VerifiedBatch::settle(Rng& rng) {
  if (items_.empty()) return;

  // One combined check settles the whole batch when everything is genuine
  // (the overwhelmingly common case); otherwise verify_batch_detailed's
  // per-item fallback pinpoints the forged items without condemning their
  // batch-mates.
  const std::vector<bool> results = crypto::verify_batch_detailed(items_, rng);
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == kNoSlot) continue;
    verdicts_[i] = results[slots_[i]] ? kTrue : kFalse;
  }
}

}  // namespace repchain::protocol
