#include "ledger/validation_oracle.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"

namespace repchain::ledger {
namespace {

TxId make_id(std::uint8_t tag) {
  TxId id{};
  id[0] = tag;
  return id;
}

TEST(ValidationOracle, RegisterAndValidate) {
  ValidationOracle oracle;
  oracle.register_tx(make_id(1), true);
  oracle.register_tx(make_id(2), false);
  EXPECT_TRUE(oracle.validate(make_id(1)));
  EXPECT_FALSE(oracle.validate(make_id(2)));
  EXPECT_EQ(oracle.validations(), 2u);
}

TEST(ValidationOracle, UnregisteredValidateThrows) {
  ValidationOracle oracle;
  EXPECT_THROW((void)oracle.validate(make_id(9)), ProtocolError);
}

TEST(ValidationOracle, MissHookMaySupplyTheTruth) {
  ValidationOracle oracle;
  int misses = 0;
  oracle.set_miss_hook([&](const TxId& id) {
    ++misses;
    if (id == make_id(1)) oracle.register_tx(id, false);
  });
  EXPECT_FALSE(oracle.validate(make_id(1)));  // supplied by the hook
  EXPECT_FALSE(oracle.validate(make_id(1)));  // now a plain hit
  EXPECT_EQ(misses, 1);
  // A hook that cannot supply the truth leaves the miss fatal.
  EXPECT_THROW((void)oracle.validate(make_id(2)), ProtocolError);
  EXPECT_EQ(misses, 2);
}

TEST(ValidationOracle, DuplicateRegistrationConsistentOk) {
  ValidationOracle oracle;
  oracle.register_tx(make_id(1), true);
  oracle.register_tx(make_id(1), true);  // idempotent
  EXPECT_THROW(oracle.register_tx(make_id(1), false), ConfigError);
}

TEST(ValidationOracle, CostAccounting) {
  ValidationOracle oracle(5 * kMillisecond);
  oracle.register_tx(make_id(1), true);
  for (int i = 0; i < 4; ++i) (void)oracle.validate(make_id(1));
  EXPECT_EQ(oracle.total_cost(), 20 * kMillisecond);
  oracle.reset_counters();
  EXPECT_EQ(oracle.validations(), 0u);
  EXPECT_EQ(oracle.total_cost(), 0u);
}

TEST(ValidationOracle, TrueValidityDoesNotCount) {
  ValidationOracle oracle;
  oracle.register_tx(make_id(1), true);
  EXPECT_TRUE(oracle.true_validity(make_id(1)));
  EXPECT_EQ(oracle.validations(), 0u);
}

TEST(ValidationOracle, PerfectObservationMatchesTruth) {
  ValidationOracle oracle;
  Rng rng(1);
  oracle.register_tx(make_id(1), true);
  oracle.register_tx(make_id(2), false);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(oracle.observe(make_id(1), 1.0, rng), Label::kValid);
    EXPECT_EQ(oracle.observe(make_id(2), 1.0, rng), Label::kInvalid);
  }
}

TEST(ValidationOracle, ZeroAccuracyInverts) {
  ValidationOracle oracle;
  Rng rng(2);
  oracle.register_tx(make_id(1), true);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(oracle.observe(make_id(1), 0.0, rng), Label::kInvalid);
  }
}

TEST(ValidationOracle, NoisyObservationApproximatesAccuracy) {
  ValidationOracle oracle;
  Rng rng(3);
  oracle.register_tx(make_id(1), true);
  int correct = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (oracle.observe(make_id(1), 0.8, rng) == Label::kValid) ++correct;
  }
  EXPECT_NEAR(static_cast<double>(correct) / n, 0.8, 0.02);
}

TEST(ValidationOracle, RegisteredCount) {
  ValidationOracle oracle;
  EXPECT_EQ(oracle.registered_count(), 0u);
  oracle.register_tx(make_id(1), true);
  oracle.register_tx(make_id(2), false);
  EXPECT_EQ(oracle.registered_count(), 2u);
  EXPECT_TRUE(oracle.is_registered(make_id(1)));
  EXPECT_FALSE(oracle.is_registered(make_id(3)));
}

}  // namespace
}  // namespace repchain::ledger
