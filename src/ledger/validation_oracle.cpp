#include "ledger/validation_oracle.hpp"

#include "common/errors.hpp"

namespace repchain::ledger {

void ValidationOracle::register_tx(const TxId& id, bool valid) {
  const auto [it, inserted] = truth_.emplace(id, valid);
  if (!inserted && it->second != valid) {
    throw ConfigError("conflicting ground truth for transaction");
  }
  if (inserted && register_hook_) register_hook_(id, valid);
}

bool ValidationOracle::is_registered(const TxId& id) const { return truth_.contains(id); }

bool ValidationOracle::validate(const TxId& id) {
  ++validations_;
  return true_validity(id);
}

Label ValidationOracle::observe(const TxId& id, double accuracy, Rng& rng) const {
  const bool truth = true_validity(id);
  const bool observed = rng.bernoulli(accuracy) ? truth : !truth;
  return observed ? Label::kValid : Label::kInvalid;
}

bool ValidationOracle::true_validity(const TxId& id) const {
  auto it = truth_.find(id);
  if (it == truth_.end() && miss_hook_) {
    miss_hook_(id);
    it = truth_.find(id);
  }
  if (it == truth_.end()) {
    throw ProtocolError("validate() on unregistered transaction");
  }
  return it->second;
}

}  // namespace repchain::ledger
