// Fault-injection coverage of SimNetwork exercised through the
// runtime::Transport interface — the surface the protocol nodes are written
// against — plus the runtime::EventLoop::run_until boundary semantics the
// timer-driven rounds rely on.
#include <gtest/gtest.h>

#include "net/network.hpp"

namespace repchain::net {
namespace {

struct FaultFixture : ::testing::Test {
  FaultFixture()
      : net(queue, Rng(7), LatencyModel{1 * kMillisecond, 5 * kMillisecond}) {
    a = net.add_node();
    b = net.add_node();
    net.set_handler(a, [this](const Message& m) { at_a.push_back(m); });
    net.set_handler(b, [this](const Message& m) { at_b.push_back(m); });
  }

  // All interaction goes through the abstract interface, like a protocol
  // node would.
  runtime::Transport& transport() { return net; }

  runtime::EventLoop queue;
  SimNetwork net;
  NodeId a, b;
  std::vector<Message> at_a, at_b;
};

TEST_F(FaultFixture, DownSenderDropsAtSendTime) {
  net.set_node_down(a, true);
  transport().send(a, b, MsgKind::kTest, Bytes{1});
  queue.run();
  EXPECT_TRUE(at_b.empty());
  // The send is still counted (the node spent the bandwidth), then dropped.
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(FaultFixture, DownReceiverDropsAtSendTime) {
  net.set_node_down(b, true);
  transport().send(a, b, MsgKind::kTest, Bytes{1});
  queue.run();
  EXPECT_TRUE(at_b.empty());
  EXPECT_EQ(net.stats().messages_dropped, 1u);
}

TEST_F(FaultFixture, ReceiverCrashingMidFlightLosesTheDelivery) {
  // The message leaves the (healthy) sender, then the receiver goes down
  // before the delay elapses: the delivery is suppressed at handler time.
  transport().send(a, b, MsgKind::kTest, Bytes{1});
  net.set_node_down(b, true);
  queue.run();
  EXPECT_TRUE(at_b.empty());
  EXPECT_EQ(net.stats().messages_dropped, 0u);  // it was sent, just unheard

  // Recovery: later sends get through again.
  net.set_node_down(b, false);
  transport().send(a, b, MsgKind::kTest, Bytes{2});
  queue.run();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].payload, Bytes{2});
}

TEST_F(FaultFixture, DeliverDirectRespectsDownedPeers) {
  Message msg;
  msg.from = a;
  msg.to = b;
  msg.kind = MsgKind::kTest;
  msg.payload = Bytes{9};

  net.set_node_down(b, true);
  transport().deliver_direct(msg);
  EXPECT_TRUE(at_b.empty());

  net.set_node_down(b, false);
  net.set_node_down(a, true);  // a crashed sender's queued copies die too
  transport().deliver_direct(msg);
  EXPECT_TRUE(at_b.empty());

  net.set_node_down(a, false);
  transport().deliver_direct(msg);
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_EQ(at_b[0].payload, Bytes{9});
}

TEST_F(FaultFixture, MulticastCountsAndDropsPerCopy) {
  net.set_node_down(b, true);
  const std::vector<NodeId> dests{a, b};
  transport().multicast(a, dests, MsgKind::kTest, Bytes{3});
  queue.run();
  EXPECT_EQ(net.stats().messages_sent, 2u);
  EXPECT_EQ(net.stats().messages_dropped, 1u);
  EXPECT_EQ(at_a.size(), 1u);  // self-copy still delivered
  EXPECT_TRUE(at_b.empty());
}

TEST_F(FaultFixture, DeliveryHonorsTheSynchronyBound) {
  transport().send(a, b, MsgKind::kTest, Bytes{1});
  const SimTime sent = queue.now();
  queue.run();
  ASSERT_EQ(at_b.size(), 1u);
  EXPECT_LE(at_b[0].delivered_at - sent, transport().max_delay());
}

TEST(EventQueueBoundary, RunUntilIsInclusiveAndAdvancesTheClock) {
  runtime::EventLoop q;
  std::vector<int> fired;
  q.schedule_at(100, [&] { fired.push_back(1); });
  q.schedule_at(101, [&] { fired.push_back(2); });

  // Events at exactly `until` fire: deadlines armed for t run when the clock
  // reaches t, not one tick later.
  q.run_until(100);
  EXPECT_EQ(fired, (std::vector<int>{1}));
  EXPECT_EQ(q.now(), 100u);

  // An idle queue still advances the clock to `until`.
  q.run_until(50);  // until < now: no-op, time never goes backwards
  EXPECT_EQ(q.now(), 100u);
  q.run_until(200);
  EXPECT_EQ(fired, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.now(), 200u);
}

TEST(EventQueueBoundary, EqualTimeEventsFireInSchedulingOrder) {
  // The FIFO tie-break is what makes arming node timers in node order
  // deterministic; pin it.
  runtime::EventLoop q;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i) {
    q.schedule_at(10, [&fired, i] { fired.push_back(i); });
  }
  q.run_until(10);
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace repchain::net
