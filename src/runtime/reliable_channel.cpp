#include "runtime/reliable_channel.hpp"

#include "common/serial.hpp"
#include "runtime/node_context.hpp"

namespace repchain::runtime {

namespace {

// kReliableData payload: epoch, seq, inner kind, inner payload.
Bytes encode_data(std::uint32_t epoch, std::uint64_t seq, MsgKind kind,
                  const Bytes& payload) {
  BinaryWriter w;
  w.u32(epoch);
  w.u64(seq);
  w.u16(static_cast<std::uint16_t>(kind));
  w.bytes(payload);
  return std::move(w).take();
}

// kReliableAck payload: the acked (epoch, seq).
Bytes encode_ack(std::uint32_t epoch, std::uint64_t seq) {
  BinaryWriter w;
  w.u32(epoch);
  w.u64(seq);
  return std::move(w).take();
}

}  // namespace

ReliableChannel::ReliableChannel(NodeContext& ctx, std::uint32_t epoch,
                                 ReliableChannelConfig config)
    : ctx_(ctx), config_(config), epoch_(epoch) {
  if (config_.base_rto == 0) config_.base_rto = 3 * ctx.delta();
  if (config_.backoff_factor == 0) config_.backoff_factor = 1;
}

void ReliableChannel::send(NodeId to, MsgKind kind, const Bytes& payload) {
  const std::uint64_t seq = ++next_seq_;
  Pending pending;
  pending.to = to;
  pending.envelope = encode_data(epoch_, seq, kind, payload);
  pending.rto = config_.base_rto;
  ctx_.transport().send(ctx_.node(), to, MsgKind::kReliableData, pending.envelope);
  ++stats_.data_sent;
  const SimDuration first_rto = pending.rto;
  inflight_.emplace(seq, std::move(pending));
  arm_retransmit(seq, first_rto);
}

void ReliableChannel::arm_retransmit(std::uint64_t seq, SimDuration delay) {
  // Scheduled through the NodeContext's revocable timers: a crash of the
  // owning node cancels all pending retransmissions.
  ctx_.timers().schedule_after(delay, [this, seq] {
    const auto it = inflight_.find(seq);
    if (it == inflight_.end()) return;  // acked in the meantime
    Pending& p = it->second;
    if (p.attempts >= config_.max_retries) {
      ++stats_.exhausted;
      // Surface the abandonment: cluster runs attribute lost envelopes by
      // (peer, epoch, seq) instead of inferring them from downstream stalls.
      ctx_.emit(TraceEvent{TraceKind::kDeliveryFailed, ctx_.node(), 0,
                           (static_cast<std::uint64_t>(epoch_) << 32) |
                               p.to.value(),
                           seq, ctx_.now()});
      inflight_.erase(it);
      return;
    }
    ++p.attempts;
    ++stats_.retransmits;
    ctx_.transport().send(ctx_.node(), p.to, MsgKind::kReliableData, p.envelope);
    p.rto *= config_.backoff_factor;
    arm_retransmit(seq, p.rto);
  });
}

void ReliableChannel::on_peer_reconnect(NodeId peer) {
  for (auto& [seq, p] : inflight_) {
    if (p.to != peer) continue;
    p.attempts = 0;
    p.rto = config_.base_rto;
    ++stats_.reconnect_resets;
    ++stats_.retransmits;
    ctx_.transport().send(ctx_.node(), p.to, MsgKind::kReliableData, p.envelope);
    // The already-armed backoff timer keeps running; when it fires it finds
    // the refreshed budget and resumes the normal retransmission ladder.
    // The receiver's (epoch, seq) dedup absorbs the extra copy.
  }
}

bool ReliableChannel::on_message(const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kReliableData:
      on_data(msg);
      return true;
    case MsgKind::kReliableAck:
      on_ack(msg);
      return true;
    default:
      return false;
  }
}

void ReliableChannel::on_data(const Message& msg) {
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  Message inner;
  try {
    BinaryReader r(msg.payload);
    epoch = r.u32();
    seq = r.u64();
    inner.kind = static_cast<MsgKind>(r.u16());
    inner.payload = r.bytes();
    r.expect_done();
  } catch (const DecodeError&) {
    return;
  }

  // Always ack — a duplicate means our previous ack was lost.
  ctx_.transport().send(ctx_.node(), msg.from, MsgKind::kReliableAck,
                        encode_ack(epoch, seq));
  ++stats_.acks_sent;

  // Epoch aging: a sender's newer incarnation supersedes every older one —
  // its dedup state is dropped (bounding memory across repeated restarts)
  // and stragglers from a superseded epoch are discarded. The ack above
  // still goes out either way, silencing any old-life retransmitter.
  const auto [epoch_it, first_contact] = peer_epoch_.try_emplace(msg.from.value(), epoch);
  if (!first_contact) {
    if (epoch < epoch_it->second) {
      ++stats_.stale_epochs_dropped;
      return;
    }
    if (epoch > epoch_it->second) {
      const auto begin = recv_.lower_bound({msg.from.value(), 0});
      const auto end = recv_.lower_bound({msg.from.value(), epoch});
      recv_.erase(begin, end);
      epoch_it->second = epoch;
    }
  }

  PeerRecv& peer = recv_[{msg.from.value(), epoch}];
  if (seq <= peer.high || peer.above.contains(seq)) {
    ++stats_.duplicates_dropped;
    return;
  }
  if (seq == peer.high + 1) {
    ++peer.high;
    while (peer.above.erase(peer.high + 1) > 0) ++peer.high;
  } else {
    peer.above.insert(seq);
  }

  inner.from = msg.from;
  inner.to = ctx_.node();
  inner.sent_at = msg.sent_at;
  inner.delivered_at = msg.delivered_at;
  ++stats_.delivered;
  if (deliver_) deliver_(inner);
}

void ReliableChannel::on_ack(const Message& msg) {
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  try {
    BinaryReader r(msg.payload);
    epoch = r.u32();
    seq = r.u64();
    r.expect_done();
  } catch (const DecodeError&) {
    return;
  }
  if (epoch != epoch_) return;  // ack for a previous incarnation
  if (inflight_.erase(seq) > 0) ++stats_.acks_received;
}

}  // namespace repchain::runtime
