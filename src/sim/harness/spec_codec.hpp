#pragma once

// Spec normalization and the canonical ScenarioConfig encoding. The
// normalization rules (implied-flag wiring that makes attack/fault configs
// self-consistent) used to live in the Scenario constructor; they are shared
// here so a cluster node process, handed a config blob, applies exactly the
// same rules as the driver. The canonical encoding doubles as the genesis
// identity of a run: its sha256 is the hash both sides of the cluster
// handshake must present, so two processes can only talk if they were
// configured for the same universe.

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"
#include "sim/harness/spec.hpp"

namespace repchain::sim {

/// Validate the spec and apply the implied-flag rules in place (idempotent):
/// scenario-level gossip mirrors into GovernorConfig, a scheduled
/// adversary switches the paired defenses on, fault schedules default the
/// liveness watchdog on.
void normalize_config(ScenarioConfig& config);

/// Throws ConfigError on features the canonical encoding cannot express:
/// crash plans, network fault schedules, adversary plans, durable governors,
/// on-disk storage — those need in-process access to the governor objects.
/// Sharded configs ARE encodable (their genesis identity must be computable
/// so two differently-sharded universes cannot admit each other).
void require_encodable(const ScenarioConfig& config);

/// Everything require_encodable checks, plus rejection of `shard_count > 1`:
/// the multi-process cluster hosts exactly one committee graph per run.
void require_cluster_runnable(const ScenarioConfig& config);

/// Canonical byte encoding of an encodable config (see require_encodable,
/// which this applies). Throws ConfigError on inexpressible features.
[[nodiscard]] Bytes encode_config(const ScenarioConfig& config);

/// Inverse of encode_config. Throws DecodeError on malformed input.
[[nodiscard]] ScenarioConfig decode_config(BytesView data);

/// The run's genesis identity: sha256 of the canonical encoding of the
/// normalized config. Presented in the cluster welcome handshake.
[[nodiscard]] crypto::Hash256 config_genesis(const ScenarioConfig& config);

}  // namespace repchain::sim
