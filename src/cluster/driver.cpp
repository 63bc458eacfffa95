#include "cluster/driver.hpp"

#include <deque>
#include <string>
#include <utility>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "ledger/chain.hpp"
#include "sim/harness/spec_codec.hpp"
#include "sim/round_observer.hpp"

namespace repchain::cluster {

wire::Welcome driver_welcome(const crypto::Hash256& genesis) {
  wire::Welcome w;
  w.genesis = genesis;
  w.role = wire::Role::kDriver;
  return w;
}

ClusterRun::ClusterRun(sim::ScenarioConfig config,
                       std::vector<std::unique_ptr<SyncConn>> conns)
    : config_(std::move(config)), rng_(config_.seed), conns_(std::move(conns)) {
  sim::normalize_config(config_);
  sim::require_cluster_runnable(config_);
  if (conns_.size() != config_.topology.governors) {
    throw ConfigError("cluster driver: " + std::to_string(conns_.size()) +
                      " node connections for " +
                      std::to_string(config_.topology.governors) + " governors");
  }

  // Mirror the Scenario constructor sequence on the driver-side objects.
  wiring_ = std::make_unique<sim::Wiring>(config_, rng_, queue_,
                                          observation_.observer(), this);
  observation_.observer().watch(wiring_->directory_.node_of(GovernorId(0)));
  workload_ = std::make_unique<sim::Workload>(config_, rng_, queue_, *wiring_);
  observation_.init(config_.topology.collectors, config_.topology.governors);

  // Forward every ground-truth registration to the replica oracles. The
  // frames are fire-and-forget; the per-connection FIFO puts them ahead of
  // any later delivery that could validate the transaction.
  wiring_->oracle_->set_register_hook([this](const ledger::TxId& id, bool valid) {
    const Bytes payload = encode_register_tx({id, valid});
    for (auto& conn : conns_) {
      conn->send_frame(static_cast<std::uint16_t>(ClusterPacket::kRegisterTx),
                       payload);
    }
  });
}

ClusterRun::~ClusterRun() = default;

Bytes ClusterRun::rpc(std::size_t index, ClusterPacket request,
                      BytesView payload, ClusterPacket reply_type) {
  SyncConn& conn = *conns_[index];
  conn.send_frame(static_cast<std::uint16_t>(request), payload);
  const wire::Frame reply = conn.recv_frame();
  if (reply.type == static_cast<std::uint16_t>(wire::PacketType::kError)) {
    const wire::ErrorPacket err = wire::decode_error(reply.payload);
    throw wire::WireError(err.code, "node " + std::to_string(index) +
                                        " failed: " + err.detail);
  }
  if (reply.type != static_cast<std::uint16_t>(reply_type)) {
    throw wire::WireError(wire::ProtocolError::kUnexpectedPacket,
                          "node " + std::to_string(index) +
                              ": unexpected reply type " +
                              std::to_string(reply.type));
  }
  return reply.payload;
}

std::vector<Effect> ClusterRun::rpc_done(std::size_t index, ClusterPacket type,
                                         BytesView payload) {
  return decode_effects(rpc(index, type, payload, ClusterPacket::kDone));
}

Bytes ClusterRun::rpc_query(std::size_t index, ClusterPacket request,
                            ClusterPacket reply_type) {
  return rpc(index, request, BytesView{}, reply_type);
}

GovernorState ClusterRun::query_state(std::size_t index) {
  return decode_state(
      rpc_query(index, ClusterPacket::kQueryState, ClusterPacket::kState));
}

void ClusterRun::apply_effects(std::size_t index,
                               const std::vector<Effect>& effects) {
  for (const Effect& e : effects) {
    switch (e.kind) {
      case Effect::Kind::kSend:
        wiring_->transport_->send(e.from, e.to.front(), e.msg_kind, e.payload);
        break;
      case Effect::Kind::kMulticast:
        wiring_->transport_->multicast(e.from, e.to, e.msg_kind, e.payload);
        break;
      case Effect::Kind::kBroadcast:
        wiring_->governor_group_->broadcast(e.from, e.msg_kind, e.payload);
        break;
      case Effect::Kind::kArmTimer:
        queue_.schedule_at(e.at, [this, index, id = e.timer_id] {
          fire_timer(index, id);
        });
        break;
      case Effect::Kind::kTrace:
        observation_.observer().on_event(e.trace);
        break;
    }
  }
}

void ClusterRun::fire_timer(std::size_t index, std::uint64_t timer_id) {
  apply_effects(index, rpc_done(index, ClusterPacket::kFireTimer,
                                encode_fire_timer(queue_.now(), timer_id)));
}

void ClusterRun::deliver(std::size_t index, const runtime::Message& msg) {
  apply_effects(index, rpc_done(index, ClusterPacket::kDeliver,
                                encode_deliver(queue_.now(), msg)));
}

sim::CounterProbe ClusterRun::probe_counters() {
  sim::CounterProbe p;
  p.validations = wiring_->oracle_->validations();
  p.messages = wiring_->net_->stats().messages_sent;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const GovernorState s = query_state(i);
    p.validations += s.validations;
    if (i == 0) p.ref_expected_loss = s.expected_loss;  // reference replica
    p.argues += s.argues_accepted;
  }
  return p;
}

void ClusterRun::sample_rewards() {
  // Governor 0 is the reference replica, as in the in-process observation.
  sim::RewardSample sample;
  const GovernorState ref = query_state(0);
  sample.leader = ref.leader;
  if (sample.leader) {
    const std::size_t li = sample.leader->value();
    sample.leader_live = li < conns_.size();
    if (sample.leader_live) {
      const GovernorState leader = li == 0 ? ref : query_state(li);
      sample.chain_empty = leader.chain_empty;
      if (!leader.chain_empty) {
        sample.head_valid_txs = leader.head_valid_txs;
        sample.shares = decode_shares(rpc_query(li, ClusterPacket::kQueryShares,
                                                ClusterPacket::kShares));
      }
    }
  }
  observation_.sample_rewards(config_, sample);
}

void ClusterRun::run_audit(Round round) {
  // Same derive salt and draw order as Workload::run_audit: one shared
  // stream consumed in governor order.
  Rng audit = rng_.derive(20'000 + round);
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const std::vector<ledger::TxId> ids = decode_txid_list(
        rpc_query(i, ClusterPacket::kQueryUnrevealed, ClusterPacket::kUnrevealed));
    for (const ledger::TxId& id : ids) {
      if (audit.bernoulli(config_.audit_probability)) {
        apply_effects(i, rpc_done(i, ClusterPacket::kReveal,
                                  encode_reveal(queue_.now(), id)));
      }
    }
  }
}

void ClusterRun::run_round() {
  ++round_;
  const SimTime t0 = queue_.now();
  observation_.begin_round(round_, probe_counters());

  // Arm phase timers in node order — governor i's arms land on the master
  // loop before governor i+1's, the order a local loop would produce.
  const protocol::RoundTiming& timing = wiring_->timing_;
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    apply_effects(i, rpc_done(i, ClusterPacket::kArmRound,
                              encode_arm_round({queue_.now(), round_, t0})));
  }
  for (auto& p : wiring_->providers_) p.arm_round(t0, timing);
  queue_.schedule_at(t0 + timing.rewards_offset, [this] { sample_rewards(); });
  if (config_.audit_probability > 0.0) {
    queue_.schedule_at(t0 + timing.audit_offset, [this] { run_audit(round_); });
  }

  queue_.run_until(t0 + timing.workload_offset);
  workload_->inject(round_);
  queue_.run_until(t0 + timing.round_span);

  observation_.end_round(probe_counters());
}

sim::RunResult ClusterRun::run() {
  for (std::size_t i = 0; i < config_.rounds; ++i) run_round();

  std::uint64_t txs_submitted = 0;
  for (const auto& p : wiring_->providers_) txs_submitted += p.submitted();

  // Rebuild each governor's chain from its snapshot; append() re-validates
  // serials and hash links, so a node cannot ship a corrupt chain unnoticed.
  std::deque<ledger::ChainStore> chains;
  std::vector<sim::GovernorSnapshot> snapshots;
  std::uint64_t validations = wiring_->oracle_->validations();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const GovernorSnapshotData snap = decode_snapshot(
        rpc_query(i, ClusterPacket::kSnapshot, ClusterPacket::kSnapshotData));
    chains.emplace_back();
    for (const ledger::Block& b : snap.blocks) chains.back().append(b);
    snapshots.push_back(sim::GovernorSnapshot{&chains.back(), snap.expected_loss,
                                              snap.realized_loss, snap.mistakes});
    validations += query_state(i).validations;
  }

  sim::RunResult result;
  result.summary = observation_.summarize(txs_submitted, snapshots, validations,
                                          wiring_->net_->stats());
  result.history = observation_.history();
  result.rewards = observation_.rewards();
  result.leader_counts = observation_.leader_counts();

  for (std::size_t i = 0; i < conns_.size(); ++i) {
    (void)rpc_done(i, ClusterPacket::kShutdown, BytesView{});
  }
  return result;
}

}  // namespace repchain::cluster
