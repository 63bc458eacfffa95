#pragma once

// Observer side of the free-running cluster. In lockstep mode the driver
// owns the master event loop and every nondeterministic decision; here the
// governors own their clocks (FreeNodeHost, real CLOCK_MONOTONIC rounds,
// peer-to-peer TcpTransport mesh) and the driver degrades to a supervisor:
// it hosts the providers and collectors on its own PollLoop, injects the
// workload on the shared round cadence, executes the multi-victim crash
// schedule, and polls head/serial RPCs. Byte-identical replay is impossible
// off the simulator's total order, so the acceptance check becomes a
// statistical convergence contract:
//
//   1. every node's head serial is monotone across polls,
//   2. no two nodes ever report different hashes for the same serial
//      (common prefix — no fork),
//   3. after the configured rounds (plus bounded grace) all nodes report
//      an identical non-empty head,
//   4. the committed transaction total lands within a tolerance band of
//      the in-process simulation of the same config.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/packets.hpp"
#include "cluster/sync_conn.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "ledger/validation_oracle.hpp"
#include "protocol/collector.hpp"
#include "protocol/provider.hpp"
#include "runtime/atomic_broadcast.hpp"
#include "runtime/node_context.hpp"
#include "runtime/poll_loop.hpp"
#include "runtime/tcp_transport.hpp"
#include "sim/harness/spec.hpp"
#include "sim/harness/system_model.hpp"

namespace repchain::cluster {

/// Supervision schedule for one victim: SIGKILL `victim` mid-round
/// `kill_round`, respawn it against its persisted state directory at the
/// start of round `restart_round`. A run takes a list of these (one per
/// victim, windows may overlap) — concurrent kills that drop the committee
/// below election quorum are a legal, tested schedule.
struct CrashPlan {
  std::size_t victim = 0;
  Round kill_round = 0;
  Round restart_round = 0;
};

/// Reliable-mode election quorum: close_election() requires a strict
/// majority of the (non-expelled) committee, counted against committee size
/// — not live count — so dead governors subtract from the margin.
[[nodiscard]] constexpr std::size_t election_quorum(std::size_t governors) {
  return governors / 2 + 1;
}

/// Parse one `v@k:r` crash-plan spec (victim, kill round, restart round).
/// Returns false on malformed input.
[[nodiscard]] bool parse_crash_plan(const std::string& spec, CrashPlan& plan);

/// Reject inconsistent schedules: a duplicate victim, a victim index at or
/// past `governors`, kill_round 0 or past `rounds`, or restart_round not
/// strictly after kill_round. Throws ConfigError.
void validate_crash_plans(const std::vector<CrashPlan>& plans,
                          std::size_t governors, Round rounds);

/// Fewest governors alive in any round of [1, rounds] under `plans` (a
/// victim counts dead from its kill round until the round before its
/// restart). Compare against election_quorum() to predict a stall window.
[[nodiscard]] std::size_t min_live_governors(const std::vector<CrashPlan>& plans,
                                             std::size_t governors, Round rounds);

/// Kills the victim process (SIGKILL, no RPC goodbye).
using KillFn = std::function<void(std::size_t index)>;
/// Respawns governor `index` as incarnation `incarnation` against its
/// persisted state directory and returns the admitted (handshaken) control
/// connection; throws or returns null on a failed attempt.
using RespawnFn = std::function<std::unique_ptr<SyncConn>(
    std::size_t index, std::uint32_t incarnation)>;

/// How a supervised run degraded while victims were down: whether the live
/// committee ever dropped below election quorum, the watchdog activity the
/// survivors surfaced (kRoundStalled traces and their time span), and how
/// many rounds the cluster needed after the last respawn to converge.
struct DegradationReport {
  bool quorum_lost = false;       // live committee < election_quorum at some point
  std::size_t min_live = 0;       // fewest live governors observed
  std::uint64_t stalled_events = 0;  // kRoundStalled traces (= watchdog trips)
  SimTime stall_first = 0;        // clock of the first kRoundStalled (0 = none)
  SimTime stall_last = 0;         // clock of the last kRoundStalled
  Round last_restart_round = 0;   // round of the final respawn
  Round rounds_to_recover = 0;    // converged_round - last_restart_round
  std::uint32_t spontaneous_exits = 0;  // from ProcessSupervisor::report()
};

/// Derive the free-running variant of a golden scenario config. The lockstep
/// goldens themselves stay untouched: free mode copies the config and flips
/// what the mode requires — reliable delivery (no cross-process sequencer),
/// a live watchdog (stall detection is the degradation story), and no audit
/// reveals (they would need mid-round reveal RPCs on the self-driving
/// schedule). Both the observer and every node process run the same derived
/// config, so the config-genesis admission check still binds them.
[[nodiscard]] sim::ScenarioConfig free_run_config(sim::ScenarioConfig base);

/// Outcome of a free-running run, judged by the statistical contract.
struct FreeRunReport {
  bool converged = false;       // identical non-empty heads, all alive
  bool monotone_ok = true;      // no node's serial ever decreased
  bool prefix_ok = true;        // no conflicting hashes at one serial
  bool txs_in_tolerance = false;
  Round rounds_run = 0;
  Round converged_round = 0;
  std::uint64_t head_serial = 0;
  std::uint64_t committed_txs = 0;
  std::uint64_t reference_txs = 0;  // simulated committed total (same config)
  std::uint64_t tolerance_lo = 0;   // accepted band around the scaled reference
  std::uint64_t tolerance_hi = 0;
  std::string head_hash_hex;
  SimTime killed_at = 0;    // observer clock of the first SIGKILL
  SimTime rejoined_at = 0;  // observer clock of the last completed respawn
  std::uint32_t restart_attempts = 0;
  DegradationReport degradation;
  std::vector<FreeRunStats> node_stats;  // final poll per node (dead = zeroed)

  [[nodiscard]] bool ok() const {
    return converged && monotone_ok && prefix_ok && txs_in_tolerance;
  }
};

/// One free-running cluster run. `conns[i]` must be the already-handshaken
/// control connection to the process hosting governor i (spawned with
/// --free-run against the same derived config).
class FreeRunDriver {
 public:
  struct Options {
    /// Node i's peer mesh listens on peer_base + i; the observer dials all.
    std::uint16_t peer_base = 0;
    /// Extra full rounds (workload included) granted past the configured
    /// count for heads to agree after faults.
    Round grace_rounds = 6;
    /// Accepted committed-tx band, as fractions of the reference total
    /// scaled by rounds actually run.
    double tolerance_lo = 0.2;
    double tolerance_hi = 2.5;
    /// Delay between the kFreeStart announcement and round 1's t0: covers
    /// the announcement fan-out so every node starts near-aligned.
    SimDuration start_cushion = 300 * kMillisecond;
    /// Deadline for the peer mesh to reach every governor before starting.
    SimDuration mesh_deadline = 5 * kSecond;
  };

  FreeRunDriver(sim::ScenarioConfig config,
                std::vector<std::unique_ptr<SyncConn>> conns, Options opts);
  ~FreeRunDriver();

  FreeRunDriver(const FreeRunDriver&) = delete;
  FreeRunDriver& operator=(const FreeRunDriver&) = delete;

  /// Install the multi-victim crash schedule (validated with
  /// validate_crash_plans): kill is SIGKILL-now, respawn spawns incarnation
  /// `i` and returns its admitted control connection. A failed respawn is
  /// retried up to `max_restart_attempts` times per restart point.
  void set_supervision(std::vector<CrashPlan> plans, KillFn kill,
                       RespawnFn respawn,
                       std::uint32_t max_restart_attempts = 3,
                       std::uint64_t rpc_timeout_us = kRpcTimeoutUs);

  /// Run the configured rounds (plus grace), enforce the statistical
  /// contract, shut the nodes down, and report.
  [[nodiscard]] FreeRunReport run();

 private:
  void start_nodes();
  void run_round();
  void inject_workload(Round round);
  void kill_due_victims();
  void respawn_victim(std::size_t victim);
  void end_round_checks();
  void mark_dead(std::size_t index);
  void note_liveness();
  [[nodiscard]] std::size_t live_count() const;
  /// Blocking control RPC; marks the node dead (returns nullopt) on error.
  [[nodiscard]] std::optional<Bytes> try_query(std::size_t index,
                                               ClusterPacket request,
                                               BytesView payload,
                                               ClusterPacket reply);
  void shutdown_nodes();

  sim::ScenarioConfig config_;
  Options opts_;
  Rng rng_;
  sim::SystemModel model_;
  runtime::PollLoop loop_;
  runtime::TcpTransport transport_;
  runtime::AtomicBroadcastGroup upload_group_;
  ledger::ValidationOracle oracle_;
  std::deque<runtime::NodeContext> provider_ctxs_;
  std::deque<protocol::Provider> providers_;
  std::deque<runtime::NodeContext> collector_ctxs_;
  std::deque<protocol::Collector> collectors_;

  std::vector<std::unique_ptr<SyncConn>> conns_;
  std::vector<bool> alive_;
  std::vector<std::uint32_t> incarnations_;
  std::vector<CrashPlan> plans_;
  KillFn kill_;
  RespawnFn respawn_;
  std::uint32_t max_restarts_ = 3;
  std::uint64_t rpc_timeout_us_ = kRpcTimeoutUs;

  Round round_ = 0;
  SimTime round_start_ = 0;  // observer-clock t0 of the current round
  std::vector<std::uint64_t> last_serial_;       // monotonicity per node
  std::unordered_map<std::uint64_t, crypto::Hash256> seen_hashes_;  // by serial
  std::uint64_t last_max_serial_ = 0;  // driver-observed stall detection
  FreeRunReport report_;
};

}  // namespace repchain::cluster
