#pragma once

// Driver side of the lockstep cluster: one process keeps the master event
// loop, the simulated network (with its delay RNG and traffic accounting),
// the shared atomic-broadcast sequencer, the ground-truth oracle and every
// provider/collector — exactly the parts of a run whose determinism depends
// on a single ordered stream of decisions. Only the governors live in other
// processes. Each delivery or timer firing addressed to a remote governor
// becomes a synchronous RPC: the node runs the handler, ships back the
// ordered Effect list, and the driver applies it to the master loop in
// recorded order. Every nondeterministic choice is therefore made once, in
// the driver, in the same order the in-process simulation makes it — which
// is why the replayed run's summary is byte-identical to the simulated one.
// Any RPC failure is fatal: with byte-identity as the contract, a lost node
// or a socket hiccup is a bug, not a fault to ride out (crash/restart runs
// belong to the free-running mode, cluster/free_run.hpp).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/packets.hpp"
#include "cluster/sync_conn.hpp"
#include "common/rng.hpp"
#include "runtime/event_loop.hpp"
#include "sim/harness/observation.hpp"
#include "sim/harness/run_codec.hpp"
#include "sim/harness/spec.hpp"
#include "sim/harness/wiring.hpp"
#include "sim/harness/workload.hpp"
#include "wire/codec.hpp"

namespace repchain::cluster {

/// The welcome the driver presents on every node connection.
[[nodiscard]] wire::Welcome driver_welcome(const crypto::Hash256& genesis);

/// One cluster-hosted run. `conns[i]` must be the (already handshaken)
/// connection to the process hosting governor i; the constructor mirrors the
/// Scenario constructor sequence on the driver-side objects.
class ClusterRun final : public sim::RemoteGovernorLink {
 public:
  ClusterRun(sim::ScenarioConfig config,
             std::vector<std::unique_ptr<SyncConn>> conns);
  ~ClusterRun();

  ClusterRun(const ClusterRun&) = delete;
  ClusterRun& operator=(const ClusterRun&) = delete;

  /// Run all configured rounds over the cluster, assemble the RunResult,
  /// and shut the nodes down.
  [[nodiscard]] sim::RunResult run();

  /// RemoteGovernorLink: a master-loop delivery for governor `index` — the
  /// synchronous RPC at the heart of the lockstep scheme.
  void deliver(std::size_t index, const runtime::Message& msg) override;

 private:
  void run_round();
  /// Apply a node's recorded effects to the master loop, in order.
  void apply_effects(std::size_t index, const std::vector<Effect>& effects);
  void fire_timer(std::size_t index, std::uint64_t timer_id);
  /// One blocking request/reply exchange; a kError or unexpected reply
  /// throws WireError. Returns the reply payload.
  [[nodiscard]] Bytes rpc(std::size_t index, ClusterPacket request,
                          BytesView payload, ClusterPacket reply);
  /// Request expecting a kDone reply; returns the recorded effects.
  [[nodiscard]] std::vector<Effect> rpc_done(std::size_t index, ClusterPacket type,
                                             BytesView payload);
  /// Request expecting a typed reply; returns its payload.
  [[nodiscard]] Bytes rpc_query(std::size_t index, ClusterPacket request,
                                ClusterPacket reply);
  [[nodiscard]] GovernorState query_state(std::size_t index);
  /// The cross-replica counters Observation probes at round edges.
  [[nodiscard]] sim::CounterProbe probe_counters();
  void sample_rewards();
  void run_audit(Round round);

  sim::ScenarioConfig config_;
  Rng rng_;
  runtime::EventLoop queue_;
  sim::Observation observation_;
  std::vector<std::unique_ptr<SyncConn>> conns_;
  std::unique_ptr<sim::Wiring> wiring_;
  std::unique_ptr<sim::Workload> workload_;

  Round round_ = 0;
};

}  // namespace repchain::cluster
