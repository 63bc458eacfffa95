#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <utility>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/sim_time.hpp"
#include "runtime/message.hpp"

namespace repchain::runtime {

class NodeContext;

/// ReliableChannel tuning. The defaults key the retransmission timeout to
/// the synchrony bound Delta: one round trip (data + ack) costs at most
/// 2*Delta, so the base RTO of 3*Delta leaves a Delta of margin.
struct ReliableChannelConfig {
  /// First retransmission timeout; 0 = 3 * transport.max_delay().
  SimDuration base_rto = 0;
  /// Exponential backoff factor applied per retry.
  std::uint32_t backoff_factor = 2;
  /// Retry budget: after this many retransmissions the message is abandoned
  /// (counted in stats().exhausted) — the protocol's sync/watchdog paths are
  /// the fallback, not the channel.
  std::uint32_t max_retries = 8;
};

struct ReliableChannelStats {
  std::uint64_t data_sent = 0;        // first transmissions
  std::uint64_t retransmits = 0;
  std::uint64_t exhausted = 0;        // abandoned after the retry budget
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;    // acks that cleared an in-flight entry
  std::uint64_t delivered = 0;        // inner messages handed to the node
  std::uint64_t duplicates_dropped = 0;
  std::uint64_t stale_epochs_dropped = 0;  // data from a superseded incarnation
  std::uint64_t reconnect_resets = 0;  // in-flight budgets refreshed on redial
};

/// Per-node reliable delivery over the (lossy, partitionable) transport:
/// every payload is wrapped in a kReliableData envelope carrying the sender's
/// (epoch, sequence) pair, the receiver acks each envelope (kReliableAck) and
/// deduplicates redelivery, and the sender retransmits unacked envelopes with
/// exponential backoff until a retry budget runs out.
///
/// Guarantees: at-least-once transmission while the retry budget lasts,
/// at-most-once *delivery* to the node (per epoch). Ordering is NOT
/// guaranteed — a retransmitted message arrives after later traffic — so
/// receive paths must tolerate reordering (they do: aggregation windows,
/// announcement sets and serial-checked appends are all order-tolerant).
///
/// The `epoch` is the owner's incarnation number: a restarted node starts a
/// fresh sequence space under a new epoch, so peers never mistake its new
/// traffic for replays of the old life. Retransmission timers run on the
/// owner's revocable timer set — a crash cancels them with everything else.
class ReliableChannel {
 public:
  using Deliver = std::function<void(const Message&)>;

  ReliableChannel(NodeContext& ctx, std::uint32_t epoch,
                  ReliableChannelConfig config = {});

  /// The node's dispatch entry point for unwrapped inner messages.
  void set_deliver(Deliver deliver) { deliver_ = std::move(deliver); }

  /// Reliably send (kind, payload) to `to`.
  void send(NodeId to, MsgKind kind, const Bytes& payload);

  /// Route kReliableData / kReliableAck deliveries here. Returns true iff
  /// the message was consumed (false for any other kind).
  bool on_message(const Message& msg);

  /// The transport re-established a link to `peer`: refresh the retry budget
  /// and RTO of every in-flight envelope addressed to it and retransmit
  /// immediately. Retries burned against a dead TCP link say nothing about
  /// the revived one, so without the reset a redial that lands mid-backoff
  /// inherits a nearly-exhausted budget and surfaces a spurious
  /// kDeliveryFailed for traffic the peer is about to receive.
  void on_peer_reconnect(NodeId peer);

  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }
  [[nodiscard]] std::size_t in_flight() const { return inflight_.size(); }
  [[nodiscard]] const ReliableChannelStats& stats() const { return stats_; }

 private:
  struct Pending {
    NodeId to;
    Bytes envelope;
    std::uint32_t attempts = 0;  // retransmissions so far
    SimDuration rto = 0;         // next backoff interval
  };

  void arm_retransmit(std::uint64_t seq, SimDuration delay);
  void on_data(const Message& msg);
  void on_ack(const Message& msg);

  NodeContext& ctx_;
  ReliableChannelConfig config_;
  std::uint32_t epoch_;
  std::uint64_t next_seq_ = 0;
  std::map<std::uint64_t, Pending> inflight_;

  // Receiver-side dedup per (sender node, sender epoch): a contiguous
  // high-water mark plus the sparse set of sequences seen above it. State for
  // epochs superseded by a newer epoch from the same sender is aged out (and
  // later stragglers from those epochs dropped), so long soaks with repeated
  // crash/restart cycles keep the dedup footprint at one epoch per sender.
  struct PeerRecv {
    std::uint64_t high = 0;
    std::set<std::uint64_t> above;
  };
  std::map<std::pair<std::uint32_t, std::uint32_t>, PeerRecv> recv_;
  // Highest epoch observed per sender; entries below it are superseded.
  std::map<std::uint32_t, std::uint32_t> peer_epoch_;

  Deliver deliver_;
  ReliableChannelStats stats_;
};

}  // namespace repchain::runtime
