#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "ledger/transaction.hpp"

namespace repchain::ledger {

/// Application-semantics substrate behind validate(tx).
///
/// The paper treats transaction validity as an application-level ground
/// truth that a governor can learn exactly — at a cost — by running
/// validate(tx), and that a collector observes (possibly imperfectly or
/// adversarially) when labeling. We realize it as a registry populated by
/// the workload generator: each transaction has a hidden true-validity bit.
/// `validate` reveals it and charges the configured validation cost, which
/// is the quantity the f-tunable screening saves (experiments E2/E7).
class ValidationOracle {
 public:
  /// Cost charged per validate() call, in simulated time units.
  explicit ValidationOracle(SimDuration validation_cost = 1 * kMillisecond)
      : validation_cost_(validation_cost) {}

  /// Record ground truth for a transaction (workload generator only).
  void register_tx(const TxId& id, bool valid);

  /// Invoked on every register_tx (after the truth is recorded). The cluster
  /// drivers use it to forward each truth to the replica oracles living in
  /// governor node processes. The forwarded truth is not guaranteed to
  /// arrive before the transaction does: a replica fed over another socket
  /// installs a miss hook to wait for it.
  void set_register_hook(std::function<void(const TxId&, bool)> hook) {
    register_hook_ = std::move(hook);
  }

  /// Invoked when a lookup finds no truth for `id`, before the lookup gives
  /// up and throws. A replica oracle uses it to wait for the pending
  /// registration; the hook may call register_tx(id, ...) on this oracle.
  void set_miss_hook(std::function<void(const TxId&)> hook) {
    miss_hook_ = std::move(hook);
  }

  [[nodiscard]] bool is_registered(const TxId& id) const;

  /// The governor's validate(tx): exact, counted, costed.
  [[nodiscard]] bool validate(const TxId& id);

  /// A collector's observation: ground truth flipped with probability
  /// (1 - accuracy). Does not count as a governor validation.
  [[nodiscard]] Label observe(const TxId& id, double accuracy, Rng& rng) const;

  /// Ground truth without cost accounting (for metrics/tests only).
  [[nodiscard]] bool true_validity(const TxId& id) const;

  /// Full ground-truth registry (read-only). The cluster driver replays it
  /// to a respawned node process, whose fresh oracle replica lost every
  /// registration made before the crash.
  [[nodiscard]] const std::unordered_map<TxId, bool, TxIdHash>& truth() const {
    return truth_;
  }

  [[nodiscard]] std::uint64_t validations() const { return validations_; }
  [[nodiscard]] SimDuration total_cost() const { return validations_ * validation_cost_; }
  [[nodiscard]] SimDuration validation_cost() const { return validation_cost_; }
  [[nodiscard]] std::size_t registered_count() const { return truth_.size(); }

  void reset_counters() { validations_ = 0; }

 private:
  SimDuration validation_cost_;
  std::unordered_map<TxId, bool, TxIdHash> truth_;
  std::uint64_t validations_ = 0;
  std::function<void(const TxId&, bool)> register_hook_;
  std::function<void(const TxId&)> miss_hook_;
};

}  // namespace repchain::ledger
