#pragma once

// The benchmark's workloads and the pieces they share. Every workload drives
// the system through public entry points only: sim::Scenario for the two
// simulator workloads, cluster::FreeRunDriver over spawned node processes
// for cluster_free.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ledger/block.hpp"
#include "measure.hpp"
#include "sim/harness/spec.hpp"

namespace perfbench {

namespace sim = repchain::sim;
namespace ledger = repchain::ledger;

/// A bench-driven crash: governor `governor` is killed right after round
/// `crash_after_round` and rebuilt from its store before round
/// `crash_after_round + 2`, so it misses one whole round.
struct CrashRestart {
  std::size_t governor = 0;
  std::size_t crash_after_round = 0;
};

/// One simulator input: a scenario config plus the bench-driven crash and
/// stake traffic.
struct SimPlan {
  sim::ScenarioConfig config;
  std::optional<CrashRestart> crash;
  /// Before each round r, governor (r - 1) mod m (when alive) transfers one
  /// stake unit to the next governor, so every round runs stake consensus.
  bool stake_transfers = false;
};

/// Per-handler and per-phase spans of a traced execution (trace (a)-(c)).
struct SpanTotals {
  struct Acc {
    double seconds = 0.0;
    std::uint64_t n = 0;
  };
  std::map<std::string, Acc> handlers;  // "<tier>.<kind>" -> spans
  Acc envelopes;                        // kReliableData / kReliableAck deliveries
  double handler_seconds = 0.0;         // every handler span
  double phase_seconds[6] = {};         // election .. audit, wall
  std::vector<double> round_wall_ms;
  std::uint64_t upload_waves = 0;       // (governor, instant) upload groups
  std::uint64_t uploads = 0;
};

/// Outcome of one Scenario execution.
struct Execution {
  double setup_s = 0.0;     // Scenario construction
  double run_wall_s = 0.0;  // all rounds, including the bench-driven restart
  double run_cpu_s = 0.0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;  // distinct txs on the reference chain
  std::uint64_t unchecked = 0;  // of which recorded invalid-unchecked
  std::uint64_t failed = 0;     // truly-valid txs not committed
  std::uint64_t validations = 0;
  std::size_t governors = 0;
  std::string head_hex;
  sim::ScenarioSummary summary;
  std::vector<double> latency_ms;  // simulated submit -> reference commit
  double restart_ms = -1.0;        // span around restart_governor (if crashed)
  // Shapes for the unit-cost probes.
  std::optional<ledger::Block> mean_block;  // the block nearest the mean size
  double block_bytes_mean = 0.0;
  std::uint64_t collector_uploads = 0;
  std::uint64_t screened = 0;
  std::uint64_t checked = 0;
  std::uint64_t uploads_rejected = 0;
  std::uint64_t argues_accepted = 0;
  std::uint64_t blocks_synced = 0;
  std::uint64_t watchdog_trips = 0;

  /// Identity of the run for the determinism gate.
  [[nodiscard]] std::string fingerprint() const;
};

/// Run `plan` once; with `spans` non-null, the handler and phase spans are
/// recorded into it.
[[nodiscard]] Execution execute(const SimPlan& plan, SpanTotals* spans);

/// Check agreement and chain audit; throws CheckFailed.
void check_execution(const Execution& e, const std::string& label);

/// The end-to-end metrics computed from a run's deterministic executions
/// (one per sub-seed): median latency, validations and unchecked share.
void add_outcome_metrics(Metrics& m, const std::vector<Execution>& first_pass);

/// The per-layer latency tail: the p99 over the same executions and its
/// sample count (throws unless 1000+ samples put ten beyond the p99).
void add_tail_metrics(Metrics& m, const std::vector<Execution>& first_pass);

/// The traced per-layer metrics of the simulator layers (sim, protocol, net,
/// runtime envelopes): `e` holds the counter totals of the traced
/// executions, `spans` their spans.
void add_span_metrics(Metrics& m, const Execution& e, const SpanTotals& spans);

/// Unit costs (trace (d)) of crypto, ledger, wire and the TCP transport, on
/// inputs shaped by `e` and the run's mean upload wave.
void add_unit_costs(Metrics& m, const Execution& e, double wave_size_mean);

/// storage.restart_ms for a plan without a bench-driven crash: a short
/// durable copy of the plan, crashed and restarted once.
[[nodiscard]] double side_restart_ms(const SimPlan& plan);

/// The cluster.* metrics with zero values, for runs without a cluster.
void add_cluster_placeholders(Metrics& m);

/// The traced simulator procedure over `plans`: every plan untraced, the
/// first two traced (each must reproduce its untraced fingerprint); adds
/// every per-layer metric, with the cluster ones zero.
void add_traced_sim_metrics(Result& res, const std::vector<SimPlan>& plans);

/// Seed of the k-th sub-scenario of a run seeded with `seed`.
[[nodiscard]] std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

[[nodiscard]] SimPlan plan_for(const std::string& workload, std::uint64_t seed);

/// Run a workload, accumulating into `res` (attempted counts survive a
/// CheckFailed).
void run_sim(const Options& opts, Result& res);
void run_cluster(const Options& opts, Result& res);

}  // namespace perfbench
