#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "runtime/event_loop.hpp"
#include "runtime/message.hpp"
#include "runtime/transport.hpp"

namespace repchain::net {

// Message vocabulary lives in the runtime layer (protocol nodes speak it
// without seeing the simulator); aliased here for the net-facing code.
using runtime::Message;
using runtime::MsgKind;

/// Uniform link latency in [min_delay, max_delay]; max_delay is the
/// synchrony bound Delta the paper assumes known.
struct LatencyModel {
  SimDuration min_delay = 1 * kMillisecond;
  SimDuration max_delay = 10 * kMillisecond;
};

/// Per-kind and aggregate traffic counters.
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_sent = 0;
  /// Re-deliveries of an already-sequenced broadcast copy suppressed by the
  /// per-link guard in deliver_direct (fault-injected duplication).
  std::uint64_t duplicates_ignored = 0;
  std::map<MsgKind, std::uint64_t> by_kind;
  std::map<MsgKind, std::uint64_t> bytes_by_kind;
};

/// Simulated point-to-point network with bounded delays, optional lossy
/// links for fault injection, and traffic accounting. All sends are
/// unicast; broadcast is a loop (each copy is a counted message, which is
/// what the paper's communication-complexity claims count too).
///
/// Implements runtime::Transport, the interface protocol nodes are written
/// against.
class SimNetwork final : public runtime::Transport {
 public:
  using Handler = std::function<void(const Message&)>;

  SimNetwork(runtime::EventLoop& queue, Rng rng, LatencyModel latency);

  /// Register a new node; the handler may be installed later (two-phase
  /// construction lets nodes capture their own id).
  NodeId add_node();
  void set_handler(NodeId node, Handler handler);

  /// Send a message; it is delivered after a bounded random delay unless the
  /// link drops it.
  void send(NodeId from, NodeId to, MsgKind kind, Bytes payload) override;

  /// `copies` deliveries of one message, each with its own drawn delay and
  /// per-copy drop/accounting, all sharing one underlying Message buffer —
  /// fault-injected duplication without the per-copy payload deep copy.
  void send_copies(NodeId from, NodeId to, MsgKind kind, Bytes payload,
                   std::size_t copies) override;

  /// Unicast to each destination.
  void multicast(NodeId from, std::span<const NodeId> to, MsgKind kind,
                 const Bytes& payload) override;

  /// Fault injection: fraction of messages lost on the (from, to) link.
  /// `p` is clamped into [0, 1] (a NaN clamps to 0).
  void set_drop_probability(NodeId from, NodeId to, double p);
  /// Fault injection: all messages sent by `node` are lost (crash).
  void set_node_down(NodeId node, bool down);
  /// Fault injection: add `extra` to every delay drawn on the (from, to)
  /// link (a slow link). 0 removes the entry. The fault-schedule engine
  /// reuses this hook for per-link delay specs.
  void set_link_delay(NodeId from, NodeId to, SimDuration extra);

  [[nodiscard]] const NetworkStats& stats() const { return stats_; }
  void reset_stats() { stats_ = NetworkStats{}; }

  [[nodiscard]] runtime::EventLoop& queue() { return queue_; }
  [[nodiscard]] runtime::TimerService& timers() override { return queue_; }
  [[nodiscard]] SimDuration max_delay() const override { return latency_.max_delay; }
  [[nodiscard]] std::size_t node_count() const { return handlers_.size(); }

  /// Draw one link delay (exposed for the atomic-broadcast layer).
  [[nodiscard]] SimDuration draw_delay() override;

  /// Invoke the destination handler for a fully-formed message now. Used by
  /// the atomic-broadcast layer, which schedules and orders deliveries
  /// itself. Respects node-down fault injection.
  void deliver_direct(const Message& msg) override;

  /// Account for `copies` unicast copies of a broadcast in the traffic stats.
  void count_broadcast(MsgKind kind, std::size_t copies,
                       std::size_t payload_bytes) override;

 private:
  runtime::EventLoop& queue_;
  Rng rng_;
  LatencyModel latency_;
  std::vector<Handler> handlers_;
  std::vector<bool> down_;
  std::unordered_map<std::uint64_t, double> drop_;  // key = from<<32 | to
  std::unordered_map<std::uint64_t, SimDuration> link_delay_;   // same key
  // Highest broadcast sequence delivered per (from, to): group sequences are
  // monotone per sender, so anything at or below the mark is a re-delivery.
  std::unordered_map<std::uint64_t, std::uint64_t> delivered_seq_;
  NetworkStats stats_;
};

}  // namespace repchain::net
