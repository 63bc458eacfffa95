// NodeContext delivery seam over a real SimNetwork: bare broadcast is the
// group's own broadcast; reliable broadcast is per-member channel sends plus
// a synchronous self-loopback only for a member sender; crash() drops the
// channel, its pending retransmissions and the deliver callback together.
#include "runtime/node_context.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "runtime/atomic_broadcast.hpp"

namespace repchain::net {
namespace {

using runtime::Message;

struct ContextFixture {
  ContextFixture()
      : net(queue, Rng(7), LatencyModel{1 * kMillisecond, 10 * kMillisecond}),
        a_id(net.add_node()),
        b_id(net.add_node()),
        c_id(net.add_node()),
        a(a_id, net, Rng(7).derive(1)),
        b(b_id, net, Rng(7).derive(2)),
        c(c_id, net, Rng(7).derive(3)),
        group(net, {a_id, b_id}) {
    wire(a, a_id, a_got);
    wire(b, b_id, b_got);
    wire(c, c_id, c_got);
  }

  // The host's handler and the node's deliver callback, as a protocol node
  // installs them: receive() first, then the node's own dispatch.
  void wire(runtime::NodeContext& ctx, NodeId id, std::vector<Message>& got) {
    ctx.set_deliver([&got](const Message& m) { got.push_back(m); });
    net.set_handler(id, [&ctx, &got](const Message& m) {
      if (!ctx.receive(m)) got.push_back(m);
    });
  }

  runtime::EventLoop queue;
  SimNetwork net;
  NodeId a_id;
  NodeId b_id;
  NodeId c_id;
  runtime::NodeContext a;
  runtime::NodeContext b;
  runtime::NodeContext c;
  runtime::AtomicBroadcastGroup group;
  std::vector<Message> a_got;
  std::vector<Message> b_got;
  std::vector<Message> c_got;
};

TEST(NodeContext, BareBroadcastIsTheGroupBroadcast) {
  ContextFixture f;
  EXPECT_FALSE(f.a.reliable());
  EXPECT_EQ(f.a.channel(), nullptr);
  f.a.broadcast(f.group, MsgKind::kTest, Bytes{1});
  EXPECT_TRUE(f.a_got.empty());  // no synchronous loopback
  f.queue.run();
  ASSERT_EQ(f.a_got.size(), 1u);
  ASSERT_EQ(f.b_got.size(), 1u);
  EXPECT_NE(f.a_got[0].seq, 0u);  // sequenced by the group
  EXPECT_EQ(f.group.sequence(), 1u);
  EXPECT_TRUE(f.c_got.empty());
}

TEST(NodeContext, ReliableBroadcastLoopsBackOnlyForAMemberSender) {
  ContextFixture f;
  f.a.enable_reliable(0);
  f.b.enable_reliable(0);
  f.c.enable_reliable(0);

  f.a.broadcast(f.group, MsgKind::kTest, Bytes{2});
  ASSERT_EQ(f.a_got.size(), 1u);  // synchronous self-delivery
  EXPECT_EQ(f.a_got[0].from, f.a_id);
  EXPECT_EQ(f.a_got[0].to, f.a_id);
  EXPECT_EQ(f.a.channel()->stats().data_sent, 1u);  // b only, not self

  f.c.broadcast(f.group, MsgKind::kTest, Bytes{3});
  EXPECT_TRUE(f.c_got.empty());  // not a member: no loopback
  EXPECT_EQ(f.c.channel()->stats().data_sent, 2u);  // a and b
  f.queue.run();

  EXPECT_EQ(f.group.sequence(), 0u);  // the sequencer was bypassed
  ASSERT_EQ(f.a_got.size(), 2u);
  EXPECT_EQ(f.a_got[1].from, f.c_id);
  ASSERT_EQ(f.b_got.size(), 2u);
  EXPECT_TRUE(f.c_got.empty());
  EXPECT_EQ(f.a.channel()->in_flight(), 0u);
  EXPECT_EQ(f.c.channel()->in_flight(), 0u);
}

TEST(NodeContext, CrashDropsChannelRetransmissionsAndDeliver) {
  ContextFixture f;
  f.a.enable_reliable(0);
  f.b.enable_reliable(0);
  f.net.set_node_down(f.b_id, true);  // nothing gets acked
  f.a.send(f.b_id, MsgKind::kTest, Bytes{4});
  ASSERT_EQ(f.a.channel()->in_flight(), 1u);

  f.a.crash();
  EXPECT_FALSE(f.a.reliable());
  EXPECT_EQ(f.a.channel(), nullptr);
  f.a.loopback(MsgKind::kTest, Bytes{5});
  EXPECT_TRUE(f.a_got.empty());  // the dead node's callback is gone
  const std::uint64_t sent = f.net.stats().messages_sent;
  f.queue.run();
  EXPECT_EQ(f.net.stats().messages_sent, sent);  // no retransmission fired

  // The next life runs under a fresh epoch.
  f.a.enable_reliable(1);
  EXPECT_EQ(f.a.channel()->epoch(), 1u);
}

}  // namespace
}  // namespace repchain::net
