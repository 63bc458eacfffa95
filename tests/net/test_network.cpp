#include "net/network.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/errors.hpp"

namespace repchain::net {
namespace {

struct Fixture {
  runtime::EventLoop queue;
  SimNetwork net{queue, Rng(77), LatencyModel{2 * kMillisecond, 9 * kMillisecond}};
};

TEST(Network, DeliversMessageWithPayload) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  std::vector<Message> received;
  f.net.set_handler(b, [&](const Message& m) { received.push_back(m); });

  f.net.send(a, b, MsgKind::kTest, Bytes{1, 2, 3});
  f.queue.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].from, a);
  EXPECT_EQ(received[0].to, b);
  EXPECT_EQ(received[0].payload, (Bytes{1, 2, 3}));
}

TEST(Network, DelayWithinConfiguredBounds) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  std::vector<SimDuration> delays;
  f.net.set_handler(b, [&](const Message& m) {
    delays.push_back(m.delivered_at - m.sent_at);
  });
  for (int i = 0; i < 200; ++i) f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  ASSERT_EQ(delays.size(), 200u);
  for (auto d : delays) {
    EXPECT_GE(d, 2 * kMillisecond);
    EXPECT_LE(d, 9 * kMillisecond);
  }
}

TEST(Network, SendToUnknownNodeThrows) {
  Fixture f;
  const NodeId a = f.net.add_node();
  EXPECT_THROW(f.net.send(a, NodeId(42), MsgKind::kTest, Bytes{}), NetError);
}

TEST(Network, StatsCountMessagesAndBytes) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.set_handler(b, [](const Message&) {});
  f.net.send(a, b, MsgKind::kProviderTx, Bytes(10));
  f.net.send(a, b, MsgKind::kProviderTx, Bytes(5));
  f.net.send(a, b, MsgKind::kArgue, Bytes(1));
  f.queue.run();

  const auto& s = f.net.stats();
  EXPECT_EQ(s.messages_sent, 3u);
  EXPECT_EQ(s.bytes_sent, 16u);
  EXPECT_EQ(s.by_kind.at(MsgKind::kProviderTx), 2u);
  EXPECT_EQ(s.by_kind.at(MsgKind::kArgue), 1u);
}

TEST(Network, BytesTrackedPerKind) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  f.net.set_handler(b, [](const Message&) {});
  f.net.send(a, b, MsgKind::kProviderTx, Bytes(7));
  f.net.send(a, b, MsgKind::kProviderTx, Bytes(3));
  f.net.send(a, b, MsgKind::kArgue, Bytes(11));
  EXPECT_EQ(f.net.stats().bytes_by_kind.at(MsgKind::kProviderTx), 10u);
  EXPECT_EQ(f.net.stats().bytes_by_kind.at(MsgKind::kArgue), 11u);
}

TEST(Network, MulticastReachesAllDestinations) {
  Fixture f;
  const NodeId src = f.net.add_node();
  std::vector<NodeId> dests;
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5; ++i) {
    const NodeId d = f.net.add_node();
    dests.push_back(d);
    f.net.set_handler(d, [&counts, i](const Message&) { ++counts[i]; });
  }
  f.net.multicast(src, dests, MsgKind::kTest, Bytes{9});
  f.queue.run();
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(Network, DropProbabilityOneLosesEverything) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int received = 0;
  f.net.set_handler(b, [&](const Message&) { ++received; });
  f.net.set_drop_probability(a, b, 1.0);
  for (int i = 0; i < 50; ++i) f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(f.net.stats().messages_dropped, 50u);
}

TEST(Network, DropProbabilityIsPerLink) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  const NodeId c = f.net.add_node();
  int b_count = 0, c_count = 0;
  f.net.set_handler(b, [&](const Message&) { ++b_count; });
  f.net.set_handler(c, [&](const Message&) { ++c_count; });
  f.net.set_drop_probability(a, b, 1.0);
  for (int i = 0; i < 20; ++i) {
    f.net.send(a, b, MsgKind::kTest, Bytes{});
    f.net.send(a, c, MsgKind::kTest, Bytes{});
  }
  f.queue.run();
  EXPECT_EQ(b_count, 0);
  EXPECT_EQ(c_count, 20);
}

TEST(Network, PartialDropRateApproximatelyRespected) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int received = 0;
  f.net.set_handler(b, [&](const Message&) { ++received; });
  f.net.set_drop_probability(a, b, 0.3);
  const int n = 5000;
  for (int i = 0; i < n; ++i) f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  EXPECT_NEAR(static_cast<double>(received) / n, 0.7, 0.05);
}

TEST(Network, DownNodeNeitherSendsNorReceives) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int received = 0;
  f.net.set_handler(b, [&](const Message&) { ++received; });

  f.net.set_node_down(b, true);
  f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  EXPECT_EQ(received, 0);

  f.net.set_node_down(b, false);
  f.net.set_node_down(a, true);
  f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  EXPECT_EQ(received, 0);

  f.net.set_node_down(a, false);
  f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  EXPECT_EQ(received, 1);
}

TEST(Network, DropProbabilityClampedIntoUnitInterval) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  int received = 0;
  f.net.set_handler(b, [&](const Message&) { ++received; });

  // Below 0 clamps to 0: everything flows.
  f.net.set_drop_probability(a, b, -0.1);
  for (int i = 0; i < 20; ++i) f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  EXPECT_EQ(received, 20);

  // Above 1 clamps to 1: everything drops.
  f.net.set_drop_probability(a, b, 1.5);
  for (int i = 0; i < 20; ++i) f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  EXPECT_EQ(received, 20);

  // NaN clamps to 0.
  f.net.set_drop_probability(a, b, std::numeric_limits<double>::quiet_NaN());
  for (int i = 0; i < 20; ++i) f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  EXPECT_EQ(received, 40);
}

TEST(Network, LinkDelayExtendsOneDirectionOnly) {
  Fixture f;
  const NodeId a = f.net.add_node();
  const NodeId b = f.net.add_node();
  std::vector<SimDuration> ab, ba;
  f.net.set_handler(a, [&](const Message& m) { ba.push_back(m.delivered_at - m.sent_at); });
  f.net.set_handler(b, [&](const Message& m) { ab.push_back(m.delivered_at - m.sent_at); });

  f.net.set_link_delay(a, b, 50 * kMillisecond);
  for (int i = 0; i < 50; ++i) {
    f.net.send(a, b, MsgKind::kTest, Bytes{});
    f.net.send(b, a, MsgKind::kTest, Bytes{});
  }
  f.queue.run();
  ASSERT_EQ(ab.size(), 50u);
  ASSERT_EQ(ba.size(), 50u);
  for (auto d : ab) EXPECT_GE(d, 50 * kMillisecond + 2 * kMillisecond);
  for (auto d : ba) EXPECT_LE(d, 9 * kMillisecond);

  // 0 removes the slow-link entry.
  f.net.set_link_delay(a, b, 0);
  ab.clear();
  for (int i = 0; i < 20; ++i) f.net.send(a, b, MsgKind::kTest, Bytes{});
  f.queue.run();
  for (auto d : ab) EXPECT_LE(d, 9 * kMillisecond);
}

TEST(Network, InvalidLatencyModelThrows) {
  runtime::EventLoop q;
  EXPECT_THROW(SimNetwork(q, Rng(1), LatencyModel{10, 5}), ConfigError);
}

TEST(Network, DeterministicAcrossIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    runtime::EventLoop q;
    SimNetwork net(q, Rng(seed), LatencyModel{1, 100});
    const NodeId a = net.add_node();
    const NodeId b = net.add_node();
    std::vector<SimTime> times;
    net.set_handler(b, [&](const Message& m) { times.push_back(m.delivered_at); });
    for (int i = 0; i < 50; ++i) net.send(a, b, MsgKind::kTest, Bytes{});
    q.run();
    return times;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

}  // namespace
}  // namespace repchain::net
