// ReliableChannel unit tests over a real SimNetwork: ack clears the
// in-flight entry, loss triggers retransmission with backoff, redelivery is
// deduplicated (and re-acked), epochs separate incarnations, and the retry
// budget bounds the effort spent on an unreachable peer.
#include "runtime/reliable_channel.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "runtime/node_context.hpp"

namespace repchain::net {
namespace {

using runtime::Message;
using runtime::ReliableChannel;
using runtime::ReliableChannelConfig;

struct ChannelFixture {
  explicit ChannelFixture(std::uint64_t seed, ReliableChannelConfig cfg = {})
      : net(queue, Rng(seed), LatencyModel{1 * kMillisecond, 10 * kMillisecond}),
        a_id(net.add_node()),
        b_id(net.add_node()),
        a_ctx(a_id, net, Rng(seed).derive(1)),
        b_ctx(b_id, net, Rng(seed).derive(2)),
        a(a_ctx, /*epoch=*/0, cfg),
        b(b_ctx, /*epoch=*/0, cfg) {
    net.set_handler(a_id, [this](const Message& m) { a.on_message(m); });
    net.set_handler(b_id, [this](const Message& m) { b.on_message(m); });
    a.set_deliver([this](const Message& m) { a_delivered.push_back(m); });
    b.set_deliver([this](const Message& m) { b_delivered.push_back(m); });
  }

  runtime::EventLoop queue;
  SimNetwork net;
  NodeId a_id;
  NodeId b_id;
  runtime::NodeContext a_ctx;
  runtime::NodeContext b_ctx;
  ReliableChannel a;
  ReliableChannel b;
  std::vector<Message> a_delivered;
  std::vector<Message> b_delivered;
};

TEST(ReliableChannel, AckClearsInFlightWithoutRetransmission) {
  ChannelFixture f(1);
  f.a.send(f.b_id, MsgKind::kTest, Bytes{1, 2, 3});
  EXPECT_EQ(f.a.in_flight(), 1u);
  f.queue.run();

  ASSERT_EQ(f.b_delivered.size(), 1u);
  EXPECT_EQ(f.b_delivered[0].kind, MsgKind::kTest);
  EXPECT_EQ(f.b_delivered[0].payload, (Bytes{1, 2, 3}));
  EXPECT_EQ(f.b_delivered[0].from, f.a_id);
  EXPECT_EQ(f.b_delivered[0].to, f.b_id);
  EXPECT_EQ(f.a.in_flight(), 0u);
  EXPECT_EQ(f.a.stats().data_sent, 1u);
  EXPECT_EQ(f.a.stats().acks_received, 1u);
  EXPECT_EQ(f.a.stats().retransmits, 0u);  // ack landed before the RTO
  EXPECT_EQ(f.b.stats().delivered, 1u);
  EXPECT_EQ(f.b.stats().acks_sent, 1u);
}

TEST(ReliableChannel, RetransmitsThroughLossUntilDelivered) {
  ChannelFixture f(2);
  // Base RTO = 3 * Delta = 30ms. Black-hole the data direction long enough
  // for at least one retransmission, then heal the link.
  f.net.set_drop_probability(f.a_id, f.b_id, 1.0);
  f.a.send(f.b_id, MsgKind::kTest, Bytes{7});
  f.queue.run_until(40 * kMillisecond);
  EXPECT_EQ(f.b_delivered.size(), 0u);
  EXPECT_GE(f.a.stats().retransmits, 1u);
  EXPECT_EQ(f.a.in_flight(), 1u);

  f.net.set_drop_probability(f.a_id, f.b_id, 0.0);
  f.queue.run();
  ASSERT_EQ(f.b_delivered.size(), 1u);
  EXPECT_EQ(f.a.in_flight(), 0u);
  EXPECT_EQ(f.a.stats().acks_received, 1u);
  EXPECT_EQ(f.a.stats().exhausted, 0u);
}

TEST(ReliableChannel, RedeliveryIsDeduplicatedAndReAcked) {
  ChannelFixture f(3);
  // Tap the wire so the test can replay the exact envelope later.
  Message captured;
  f.net.set_handler(f.b_id, [&](const Message& m) {
    if (m.kind == MsgKind::kReliableData) captured = m;
    f.b.on_message(m);
  });
  f.a.send(f.b_id, MsgKind::kTest, Bytes{4});
  f.queue.run();
  ASSERT_EQ(f.b_delivered.size(), 1u);
  ASSERT_EQ(captured.kind, MsgKind::kReliableData);

  // A retransmitted copy arriving after the ack was lost: dropped as a
  // duplicate but acked again so the sender stops retrying.
  f.b.on_message(captured);
  EXPECT_EQ(f.b_delivered.size(), 1u);
  EXPECT_EQ(f.b.stats().duplicates_dropped, 1u);
  EXPECT_EQ(f.b.stats().acks_sent, 2u);
  // The stale ack finds nothing in flight at the sender.
  f.queue.run();
  EXPECT_EQ(f.a.stats().acks_received, 1u);
}

TEST(ReliableChannel, OutOfOrderFreshSequencesDeliverExactlyOnce) {
  ChannelFixture f(4);
  // Capture the wire messages instead of delivering them, then replay out of
  // order with duplicates interleaved.
  std::vector<Message> wire;
  f.net.set_handler(f.b_id, [&](const Message& m) {
    if (m.kind == MsgKind::kReliableData) wire.push_back(m);
  });
  f.a.send(f.b_id, MsgKind::kTest, Bytes{1});
  f.a.send(f.b_id, MsgKind::kTest, Bytes{2});
  f.a.send(f.b_id, MsgKind::kTest, Bytes{3});
  f.queue.run_until(15 * kMillisecond);  // before the first RTO fires
  ASSERT_EQ(wire.size(), 3u);

  f.b.on_message(wire[2]);
  f.b.on_message(wire[0]);
  f.b.on_message(wire[2]);  // duplicate of an above-high sequence
  f.b.on_message(wire[1]);
  f.b.on_message(wire[0]);  // duplicate below the high-water mark
  EXPECT_EQ(f.b_delivered.size(), 3u);
  EXPECT_EQ(f.b.stats().duplicates_dropped, 2u);
}

TEST(ReliableChannel, EpochSeparatesIncarnations) {
  ChannelFixture f(5);
  f.a.send(f.b_id, MsgKind::kTest, Bytes{1});
  f.queue.run();
  ASSERT_EQ(f.b_delivered.size(), 1u);

  // A restart without an epoch bump collides with the old sequence space:
  // the new life's first message (epoch 0, seq 1) reads as a replay.
  runtime::NodeContext a2_ctx(f.a_id, f.net, Rng(77));
  ReliableChannel stale(a2_ctx, /*epoch=*/0);
  f.net.set_handler(f.a_id, [&](const Message& m) { stale.on_message(m); });
  stale.send(f.b_id, MsgKind::kTest, Bytes{2});
  f.queue.run();
  EXPECT_EQ(f.b_delivered.size(), 1u);
  EXPECT_EQ(f.b.stats().duplicates_dropped, 1u);

  // With the epoch bumped, the same sequence number is fresh traffic.
  ReliableChannel fresh(a2_ctx, /*epoch=*/1);
  f.net.set_handler(f.a_id, [&](const Message& m) { fresh.on_message(m); });
  fresh.send(f.b_id, MsgKind::kTest, Bytes{3});
  f.queue.run();
  EXPECT_EQ(f.b_delivered.size(), 2u);
  EXPECT_EQ(f.b_delivered.back().payload, Bytes{3});
}

TEST(ReliableChannel, SupersededEpochStateIsAgedOutAndStragglersDropped) {
  // Receiver-side dedup memory is bounded by epoch aging: a sender's newer
  // incarnation supersedes every older one, dropping the old epoch's dedup
  // state, and stragglers from a superseded epoch are discarded (but still
  // acked, so a zombie retransmitter goes quiet) instead of consuming the
  // fresh epoch's sequence space.
  ChannelFixture f(8);
  // Tap the wire so an old-epoch envelope can be replayed later.
  Message old_epoch_wire;
  f.net.set_handler(f.b_id, [&](const Message& m) {
    // Capture only the first data envelope (the epoch-0 one).
    if (m.kind == MsgKind::kReliableData &&
        old_epoch_wire.kind != MsgKind::kReliableData) {
      old_epoch_wire = m;
    }
    f.b.on_message(m);
  });
  f.a.send(f.b_id, MsgKind::kTest, Bytes{1});
  f.queue.run();
  ASSERT_EQ(f.b_delivered.size(), 1u);
  ASSERT_EQ(old_epoch_wire.kind, MsgKind::kReliableData);

  // The sender restarts with a bumped epoch: its first message supersedes
  // epoch 0 at the receiver.
  runtime::NodeContext a2_ctx(f.a_id, f.net, Rng(88));
  ReliableChannel reborn(a2_ctx, /*epoch=*/1);
  f.net.set_handler(f.a_id, [&](const Message& m) { reborn.on_message(m); });
  reborn.send(f.b_id, MsgKind::kTest, Bytes{2});
  f.queue.run();
  ASSERT_EQ(f.b_delivered.size(), 2u);
  EXPECT_EQ(f.b.stats().stale_epochs_dropped, 0u);

  // A late retransmission from the dead epoch-0 incarnation: dropped as
  // stale (NOT as a duplicate — that dedup state is gone), yet still acked.
  const auto acks_before = f.b.stats().acks_sent;
  f.b.on_message(old_epoch_wire);
  EXPECT_EQ(f.b_delivered.size(), 2u);
  EXPECT_EQ(f.b.stats().stale_epochs_dropped, 1u);
  EXPECT_EQ(f.b.stats().duplicates_dropped, 0u);
  EXPECT_EQ(f.b.stats().acks_sent, acks_before + 1);

  // Epoch 1's sequence space is untouched by the straggler: the next fresh
  // message (same seq number as the straggler carried) still delivers.
  reborn.send(f.b_id, MsgKind::kTest, Bytes{3});
  f.queue.run();
  EXPECT_EQ(f.b_delivered.size(), 3u);
  EXPECT_EQ(f.b_delivered.back().payload, Bytes{3});
}

TEST(ReliableChannel, RetryBudgetBoundsEffortOnUnreachablePeer) {
  ChannelFixture f(6);
  f.net.set_drop_probability(f.a_id, f.b_id, 1.0);  // peer never reachable
  f.a.send(f.b_id, MsgKind::kTest, Bytes{9});
  f.queue.run();

  EXPECT_EQ(f.b_delivered.size(), 0u);
  EXPECT_EQ(f.a.stats().retransmits, 8u);  // default max_retries
  EXPECT_EQ(f.a.stats().exhausted, 1u);
  EXPECT_EQ(f.a.in_flight(), 0u);  // abandoned, not leaked
}

TEST(ReliableChannel, NonChannelKindsAreNotConsumed) {
  ChannelFixture f(7);
  Message other;
  other.from = f.a_id;
  other.to = f.b_id;
  other.kind = MsgKind::kBlockRequest;
  EXPECT_FALSE(f.b.on_message(other));
  EXPECT_EQ(f.b.stats().delivered, 0u);
}

}  // namespace
}  // namespace repchain::net
