#include "net/network.hpp"

#include <algorithm>
#include <memory>

#include "common/errors.hpp"

namespace repchain::net {

namespace {
std::uint64_t link_key(NodeId from, NodeId to) {
  return (static_cast<std::uint64_t>(from.value()) << 32) | to.value();
}
}  // namespace

SimNetwork::SimNetwork(runtime::EventLoop& queue, Rng rng, LatencyModel latency)
    : queue_(queue), rng_(rng), latency_(latency) {
  if (latency.min_delay > latency.max_delay) {
    throw ConfigError("latency min_delay > max_delay");
  }
}

NodeId SimNetwork::add_node() {
  handlers_.emplace_back();
  down_.push_back(false);
  return NodeId(static_cast<std::uint32_t>(handlers_.size() - 1));
}

void SimNetwork::set_handler(NodeId node, Handler handler) {
  handlers_.at(node.value()) = std::move(handler);
}

SimDuration SimNetwork::draw_delay() {
  const SimDuration span = latency_.max_delay - latency_.min_delay;
  return latency_.min_delay + (span == 0 ? 0 : rng_.uniform(span + 1));
}

void SimNetwork::send(NodeId from, NodeId to, MsgKind kind, Bytes payload) {
  send_copies(from, to, kind, std::move(payload), 1);
}

void SimNetwork::send_copies(NodeId from, NodeId to, MsgKind kind, Bytes payload,
                             std::size_t copies) {
  if (from.value() >= handlers_.size() || to.value() >= handlers_.size()) {
    throw NetError("send to/from unregistered node");
  }
  const std::size_t payload_bytes = payload.size();
  // One shared Message backs every scheduled copy: duplicated traffic costs
  // one extra delivery record, not an extra payload buffer. Each delivery
  // stamps delivered_at just before invoking the handler; deliveries are
  // synchronous and single-threaded, so the shared stamp cannot race.
  std::shared_ptr<Message> msg;
  for (std::size_t c = 0; c < copies; ++c) {
    ++stats_.messages_sent;
    stats_.bytes_sent += payload_bytes;
    ++stats_.by_kind[kind];
    stats_.bytes_by_kind[kind] += payload_bytes;

    if (down_[from.value()] || down_[to.value()]) {
      ++stats_.messages_dropped;
      continue;
    }
    if (const auto it = drop_.find(link_key(from, to));
        it != drop_.end() && rng_.bernoulli(it->second)) {
      ++stats_.messages_dropped;
      continue;
    }

    if (!msg) {
      msg = std::make_shared<Message>();
      msg->from = from;
      msg->to = to;
      msg->kind = kind;
      msg->payload = std::move(payload);
      msg->sent_at = queue_.now();
    }

    SimTime deliver_at = queue_.now() + draw_delay();
    if (const auto slow = link_delay_.find(link_key(from, to));
        slow != link_delay_.end()) {
      deliver_at += slow->second;
    }
    queue_.schedule_at(deliver_at, [this, msg, deliver_at] {
      msg->delivered_at = deliver_at;
      auto& handler = handlers_.at(msg->to.value());
      if (handler && !down_[msg->to.value()]) handler(*msg);
    });
  }
}

void SimNetwork::multicast(NodeId from, std::span<const NodeId> to, MsgKind kind,
                           const Bytes& payload) {
  if (from.value() >= handlers_.size()) {
    throw NetError("send to/from unregistered node");
  }
  const std::size_t payload_bytes = payload.size();
  // One shared Message backs every destination's copy (see send_copies): the
  // fan-out costs one payload buffer, not one per destination. to and
  // delivered_at are stamped just before each delivery; deliveries are
  // synchronous and single-threaded, so the shared stamps cannot race.
  std::shared_ptr<Message> msg;
  for (NodeId dest : to) {
    if (dest.value() >= handlers_.size()) {
      throw NetError("send to/from unregistered node");
    }
    ++stats_.messages_sent;
    stats_.bytes_sent += payload_bytes;
    ++stats_.by_kind[kind];
    stats_.bytes_by_kind[kind] += payload_bytes;

    if (down_[from.value()] || down_[dest.value()]) {
      ++stats_.messages_dropped;
      continue;
    }
    if (const auto it = drop_.find(link_key(from, dest));
        it != drop_.end() && rng_.bernoulli(it->second)) {
      ++stats_.messages_dropped;
      continue;
    }

    if (!msg) {
      msg = std::make_shared<Message>();
      msg->from = from;
      msg->kind = kind;
      msg->payload = payload;
      msg->sent_at = queue_.now();
    }

    SimTime deliver_at = queue_.now() + draw_delay();
    if (const auto slow = link_delay_.find(link_key(from, dest));
        slow != link_delay_.end()) {
      deliver_at += slow->second;
    }
    queue_.schedule_at(deliver_at, [this, msg, dest, deliver_at] {
      msg->to = dest;
      msg->delivered_at = deliver_at;
      auto& handler = handlers_.at(dest.value());
      if (handler && !down_[dest.value()]) handler(*msg);
    });
  }
}

void SimNetwork::set_drop_probability(NodeId from, NodeId to, double p) {
  // Clamp rather than throw: fault scripts sweep probabilities and a value a
  // hair outside [0,1] (or a NaN) must not tear the run down mid-flight.
  if (!(p > 0.0)) p = 0.0;
  drop_[link_key(from, to)] = std::min(p, 1.0);
}

void SimNetwork::set_node_down(NodeId node, bool down) {
  down_.at(node.value()) = down;
}

void SimNetwork::set_link_delay(NodeId from, NodeId to, SimDuration extra) {
  if (extra == 0) {
    link_delay_.erase(link_key(from, to));
  } else {
    link_delay_[link_key(from, to)] = extra;
  }
}

void SimNetwork::deliver_direct(const Message& msg) {
  auto& handler = handlers_.at(msg.to.value());
  if (!handler || down_[msg.to.value()] || down_[msg.from.value()]) return;
  if (msg.seq != 0) {
    // Sequenced (atomic-broadcast) copy: group sequences rise monotonically
    // per sender, so a sequence at or below the per-link mark is a
    // re-delivery (fault-injected duplication) — ignore it rather than
    // double-apply.
    std::uint64_t& high = delivered_seq_[link_key(msg.from, msg.to)];
    if (msg.seq <= high) {
      ++stats_.duplicates_ignored;
      return;
    }
    high = msg.seq;
  }
  handler(msg);
}

void SimNetwork::count_broadcast(MsgKind kind, std::size_t copies,
                                 std::size_t payload_bytes) {
  stats_.messages_sent += copies;
  stats_.bytes_sent += copies * payload_bytes;
  stats_.by_kind[kind] += copies;
  stats_.bytes_by_kind[kind] += copies * payload_bytes;
}

}  // namespace repchain::net
