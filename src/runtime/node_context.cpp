#include "runtime/node_context.hpp"

#include <algorithm>

namespace repchain::runtime {

void NodeContext::enable_reliable(std::uint32_t epoch) {
  channel_.emplace(*this, epoch);
  channel_->set_deliver([this](const Message& m) {
    if (deliver_) deliver_(m);
  });
}

void NodeContext::send(NodeId to, MsgKind kind, Bytes payload) {
  if (channel_) {
    channel_->send(to, kind, payload);
  } else {
    transport_.send(node_, to, kind, std::move(payload));
  }
}

void NodeContext::broadcast(Broadcaster& group, MsgKind kind, const Bytes& payload) {
  if (!channel_) {
    group.broadcast(node_, kind, payload);
    return;
  }
  // The channel guarantees delivery, not total order: every reliable-mode
  // receive path is order-tolerant.
  const std::vector<NodeId>& members = group.members();
  for (const NodeId m : members) {
    if (m != node_) channel_->send(m, kind, payload);
  }
  // The group delivers to a broadcasting member too; our own copy never
  // crosses the network.
  if (std::find(members.begin(), members.end(), node_) != members.end()) {
    loopback(kind, payload);
  }
}

void NodeContext::multicast(std::span<const NodeId> to, MsgKind kind,
                            const Bytes& payload) {
  if (!channel_) {
    transport_.multicast(node_, to, kind, payload);
    return;
  }
  for (const NodeId n : to) channel_->send(n, kind, payload);
}

void NodeContext::loopback(MsgKind kind, const Bytes& payload) {
  Message self;
  self.from = node_;
  self.to = node_;
  self.kind = kind;
  self.payload = payload;
  self.sent_at = now();
  self.delivered_at = self.sent_at;
  if (deliver_) deliver_(self);
}

bool NodeContext::receive(const Message& msg) {
  if (msg.kind != MsgKind::kReliableData && msg.kind != MsgKind::kReliableAck) {
    return false;
  }
  if (channel_) channel_->on_message(msg);
  return true;
}

}  // namespace repchain::runtime
