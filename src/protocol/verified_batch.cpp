#include "protocol/verified_batch.hpp"

namespace repchain::protocol {

void VerifiedBatch::settle(Rng& rng) {
  if (items_.empty()) return;

  // One combined check settles the whole batch when everything is genuine
  // (the overwhelmingly common case); otherwise verify_batch_detailed's
  // per-item fallback pinpoints the forged items without condemning their
  // batch-mates. Small waves skip the combination and draw nothing from
  // `rng`; the verdicts are the same either way.
  std::vector<bool> results;
  if (items_.size() < kBatchCrossover) {
    for (const crypto::BatchItem& item : items_) {
      results.push_back(crypto::verify(item.pub, item.message, item.sig));
    }
  } else {
    results = crypto::verify_batch_detailed(items_, rng);
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i] == kNoSlot) continue;
    verdicts_[i] = results[slots_[i]] ? kTrue : kFalse;
  }
}

}  // namespace repchain::protocol
