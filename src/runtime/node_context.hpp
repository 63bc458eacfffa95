#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "runtime/broadcaster.hpp"
#include "runtime/reliable_channel.hpp"
#include "runtime/revocable_timers.hpp"
#include "runtime/trace.hpp"
#include "runtime/transport.hpp"

namespace repchain::runtime {

/// Everything a node needs from its host: its network identity, the
/// transport, the clock/timer service, a private deterministic random
/// stream, an optional trace sink — and the node's delivery mode. Nodes hold
/// a reference, so one context per node must outlive it (store contexts
/// address-stably).
///
/// Delivery mode is decided here and nowhere else. Bare (the default), the
/// send surface is the plain transport and the atomic broadcast group. Once
/// the host calls enable_reliable(), every send goes through a per-node
/// ReliableChannel (ack + retransmit), and a broadcast becomes per-member
/// channel sends followed by a synchronous self-loopback when the sender is
/// a member. Protocol code calls send/broadcast/multicast either way and
/// reads reliable() only where the protocol itself differs by mode.
class NodeContext {
 public:
  using Deliver = std::function<void(const Message&)>;

  NodeContext(NodeId node, Transport& transport, Rng rng,
              TraceSink* trace = nullptr)
      : node_(node),
        transport_(transport),
        timers_(transport.timers()),
        rng_(rng),
        trace_(trace) {}

  NodeContext(const NodeContext&) = delete;
  NodeContext& operator=(const NodeContext&) = delete;
  NodeContext(NodeContext&&) = delete;
  NodeContext& operator=(NodeContext&&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] Transport& transport() { return transport_; }
  [[nodiscard]] TimerService& timers() { return timers_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  [[nodiscard]] SimTime now() const { return transport_.timers().now(); }
  /// The synchrony bound Delta.
  [[nodiscard]] SimDuration delta() const { return transport_.max_delay(); }

  /// Emit a trace observation (no-op without a sink).
  void emit(const TraceEvent& event) {
    if (trace_ != nullptr) trace_->on_event(event);
  }

  // --- Delivery -------------------------------------------------------------

  /// The hosted node's dispatch entry point: channel deliveries and
  /// broadcast loopbacks land here.
  void set_deliver(Deliver deliver) { deliver_ = std::move(deliver); }

  /// Switch to reliable delivery. `epoch` is the node's incarnation number:
  /// a restarted node must pass a fresh one so peers never mistake its new
  /// sequence space for replays of the old life.
  void enable_reliable(std::uint32_t epoch);
  [[nodiscard]] bool reliable() const { return channel_.has_value(); }
  /// The reliable channel (for its stats), or nullptr in bare mode.
  [[nodiscard]] const ReliableChannel* channel() const {
    return channel_ ? &*channel_ : nullptr;
  }

  /// Unicast (kind, payload) to `to`.
  void send(NodeId to, MsgKind kind, Bytes payload);
  /// Broadcast to `group`'s members: the group's total-order broadcast, or
  /// per-member reliable sends in member order plus a synchronous
  /// self-loopback iff this node is a member.
  void broadcast(Broadcaster& group, MsgKind kind, const Bytes& payload);
  /// Unicast to each of `to`.
  void multicast(std::span<const NodeId> to, MsgKind kind, const Bytes& payload);
  /// Hand (kind, payload) to this node's own deliver callback now, as a
  /// message from and to itself.
  void loopback(MsgKind kind, const Bytes& payload);

  /// Route an incoming message: returns true iff it was a reliable-channel
  /// envelope (kReliableData / kReliableAck), which is consumed here — its
  /// inner message reaches the deliver callback — or dropped in bare mode.
  bool receive(const Message& msg);

  /// The transport re-established a link to `peer`: refresh the retry
  /// budget of every in-flight envelope addressed to it (no-op when bare).
  void on_peer_reconnect(NodeId peer) {
    if (channel_) channel_->on_peer_reconnect(peer);
  }

  /// The hosted node crashed: its protocol objects are about to be destroyed
  /// while their callbacks are still queued. Cancel every timer scheduled
  /// through this context, drop the channel's in-memory state and the
  /// deliver callback. The context returns to bare mode; the host re-enables
  /// reliable delivery under a new epoch before rebuilding the node.
  void crash() {
    timers_.revoke_all();
    channel_.reset();
    deliver_ = nullptr;
  }

 private:
  NodeId node_;
  Transport& transport_;
  RevocableTimers timers_;
  Rng rng_;
  TraceSink* trace_;
  Deliver deliver_;
  std::optional<ReliableChannel> channel_;
};

}  // namespace repchain::runtime
