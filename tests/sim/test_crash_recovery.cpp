// Crash/restart fault schedule regression (golden-summary family): a
// governor killed mid-run — in-memory state dropped, timers revoked — and
// restarted from its NodeStateStore must converge back to the same chain
// prefix as the uninterrupted fixed-seed run, pass the chain audit, and
// fully catch up with its live peers via the block sync machinery.
#include <gtest/gtest.h>

#include <filesystem>

#include "ledger/chain.hpp"
#include "sim/scenario.hpp"

namespace repchain::sim {
namespace {

/// Quiet, fully deterministic configuration: honest collectors, fixed
/// latency, no out-of-band audits or argues. Under it, every piece of state
/// that influences future blocks is captured by the per-block snapshot
/// (snapshot_interval = 1), so a clean-point crash must be invisible in the
/// chain the cluster produces.
ScenarioConfig quiet_config() {
  ScenarioConfig cfg;
  cfg.topology.providers = 4;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 3;
  cfg.topology.r = 2;
  cfg.rounds = 6;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.providers_active = false;
  cfg.audit_probability = 0.0;
  cfg.latency = net::LatencyModel{2 * kMillisecond, 2 * kMillisecond};
  cfg.governor.snapshot_interval = 1;
  cfg.seed = 9001;
  return cfg;
}

/// Busier mix (adversarial collectors, audits on) for the catch-up tests:
/// determinism across runs is not required there, only within-run
/// convergence of the restarted replica.
ScenarioConfig busy_config() {
  ScenarioConfig cfg;
  cfg.topology.providers = 6;
  cfg.topology.collectors = 4;
  cfg.topology.governors = 3;
  cfg.topology.r = 2;
  cfg.rounds = 6;
  cfg.txs_per_provider_per_round = 2;
  cfg.p_valid = 0.8;
  cfg.audit_probability = 0.6;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.9),
                   protocol::CollectorBehavior::misreporting(0.3),
                   protocol::CollectorBehavior::honest()};
  cfg.seed = 4242;
  return cfg;
}

void expect_cluster_converged(Scenario& s) {
  const auto sum = s.summary();
  EXPECT_TRUE(sum.agreement);
  EXPECT_TRUE(sum.chains_audit_ok);
  const std::size_t n = s.config().topology.governors;
  for (std::size_t i = 1; i < n; ++i) {
    EXPECT_EQ(s.governor(i).chain().height(), s.governor(0).chain().height()) << i;
    EXPECT_TRUE(ledger::ChainStore::same_prefix(s.governor(0).chain(),
                                                s.governor(i).chain()))
        << i;
  }
}

TEST(CrashRecovery, CleanPointCrashMatchesUninterruptedRun) {
  // Uninterrupted reference run.
  Scenario base(quiet_config());
  base.run();
  const auto base_sum = base.summary();
  ASSERT_EQ(base_sum.blocks, 6u);
  ASSERT_TRUE(base_sum.agreement);

  // Same seed, but governor 1 is killed late in round 2 — after the block
  // committed and its snapshot persisted — and restarted at the round-3
  // boundary. Recovery restores the snapshot; nothing happened while it was
  // down, so the cluster's chain must be bit-identical to the reference.
  ScenarioConfig cfg = quiet_config();
  CrashPlan plan;
  plan.governor = 1;
  plan.crash_round = 2;
  plan.crash_offset = base.timing().audit_offset;
  plan.restart_round = 3;
  cfg.crashes = {plan};
  Scenario crashed(cfg);
  crashed.run();

  expect_cluster_converged(crashed);
  const auto sum = crashed.summary();
  EXPECT_EQ(sum.blocks, base_sum.blocks);
  EXPECT_EQ(sum.chain_valid_txs, base_sum.chain_valid_txs);
  EXPECT_EQ(sum.chain_unchecked_txs, base_sum.chain_unchecked_txs);
  EXPECT_EQ(crashed.governor(1).chain().height(), base.governor(0).chain().height());
  EXPECT_TRUE(ledger::ChainStore::same_prefix(base.governor(0).chain(),
                                              crashed.governor(1).chain()));
  EXPECT_TRUE(crashed.governor(1).chain().audit());
  // The snapshot path really carried the state: the store holds one.
  ASSERT_NE(crashed.governor_store(1), nullptr);
  EXPECT_GT(crashed.governor_store(1)->snapshot_bytes(), 0u);
}

TEST(CrashRecovery, MidRoundCrashCatchesUpViaPeerSync) {
  // Kill governor 1 in round 2 *before* the proposal lands (it misses the
  // round-2 and round-3 blocks entirely) and restart it two rounds later.
  // With no snapshots configured, recovery replays the WAL (block 1) and the
  // node-to-node sync must fetch the missed blocks from live peers.
  ScenarioConfig cfg = busy_config();
  const SimDuration gossip_offset = Scenario(cfg).timing().gossip_offset;
  CrashPlan plan;
  plan.governor = 1;
  plan.crash_round = 2;
  plan.crash_offset = gossip_offset;
  plan.restart_round = 4;
  cfg.crashes = {plan};
  Scenario s(cfg);
  s.run();

  expect_cluster_converged(s);
  EXPECT_GE(s.governor(1).metrics().blocks_synced, 1u);
  EXPECT_TRUE(s.governor(1).chain().audit());
  ASSERT_NE(s.governor_store(1), nullptr);
  EXPECT_GT(s.governor_store(1)->wal_bytes() + s.governor_store(1)->snapshot_bytes(),
            0u);
}

TEST(CrashRecovery, FileBackedStoreSurvivesCrash) {
  // Same fault schedule, on-disk stores: the restarted governor recovers
  // from real files (atomic snapshot + WAL tail) in a scratch directory.
  const auto dir =
      std::filesystem::temp_directory_path() / "repchain_crash_recovery_sim";
  std::filesystem::remove_all(dir);

  ScenarioConfig cfg = busy_config();
  cfg.storage_dir = dir;
  cfg.governor.snapshot_interval = 2;
  const SimDuration gossip_offset = Scenario(cfg).timing().gossip_offset;
  std::filesystem::remove_all(dir);  // probe scenario created the layout
  CrashPlan plan;
  plan.governor = 1;
  plan.crash_round = 2;
  plan.crash_offset = gossip_offset;
  plan.restart_round = 4;
  cfg.crashes = {plan};
  {
    Scenario s(cfg);
    s.run();
    expect_cluster_converged(s);
    EXPECT_TRUE(s.governor(1).chain().audit());
    EXPECT_TRUE(std::filesystem::exists(dir / "gov1" / "wal.bin") ||
                std::filesystem::exists(dir / "gov1" / "snapshot.bin"));
  }
  std::filesystem::remove_all(dir);
}

TEST(CrashRecovery, TwoGovernorsCrashInTurn) {
  // Staggered faults: governor 1 dies in round 2, governor 2 in round 3;
  // both rejoin later. The cluster must still converge with every replica
  // at full height.
  ScenarioConfig cfg = busy_config();
  const auto timing = Scenario(cfg).timing();
  CrashPlan p1;
  p1.governor = 1;
  p1.crash_round = 2;
  p1.crash_offset = timing.gossip_offset;
  p1.restart_round = 4;
  CrashPlan p2;
  p2.governor = 2;
  p2.crash_round = 3;
  p2.crash_offset = timing.audit_offset;
  p2.restart_round = 5;
  cfg.crashes = {p1, p2};
  Scenario s(cfg);
  s.run();

  expect_cluster_converged(s);
  EXPECT_TRUE(s.governor(1).chain().audit());
  EXPECT_TRUE(s.governor(2).chain().audit());
}

}  // namespace
}  // namespace repchain::sim
