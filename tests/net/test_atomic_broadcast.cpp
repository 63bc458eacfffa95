#include "runtime/atomic_broadcast.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "net/network.hpp"

namespace repchain::net {
namespace {

using runtime::AtomicBroadcastGroup;

struct GroupFixture {
  explicit GroupFixture(std::uint64_t seed, std::size_t members)
      : net(queue, Rng(seed), LatencyModel{1 * kMillisecond, 20 * kMillisecond}) {
    for (std::size_t i = 0; i < members; ++i) {
      const NodeId id = net.add_node();
      member_ids.push_back(id);
      net.set_handler(id, [this, i](const Message& m) {
        received[i].push_back(m.payload);
      });
      received.emplace_back();
    }
    group = std::make_unique<AtomicBroadcastGroup>(net, member_ids);
  }

  runtime::EventLoop queue;
  SimNetwork net;
  std::vector<NodeId> member_ids;
  std::vector<std::vector<Bytes>> received;
  std::unique_ptr<AtomicBroadcastGroup> group;
};

TEST(AtomicBroadcast, AllMembersReceiveEveryBroadcast) {
  GroupFixture f(1, 4);
  f.group->broadcast(f.member_ids[0], MsgKind::kTest, Bytes{1});
  f.group->broadcast(f.member_ids[1], MsgKind::kTest, Bytes{2});
  f.queue.run();
  for (const auto& log : f.received) {
    EXPECT_EQ(log.size(), 2u);
  }
}

TEST(AtomicBroadcast, EmptyGroupRejected) {
  runtime::EventLoop q;
  SimNetwork net(q, Rng(1), LatencyModel{});
  EXPECT_THROW(AtomicBroadcastGroup(net, {}), ConfigError);
}

TEST(AtomicBroadcast, SenderAlsoDeliversToItself) {
  GroupFixture f(2, 3);
  f.group->broadcast(f.member_ids[0], MsgKind::kTest, Bytes{42});
  f.queue.run();
  EXPECT_EQ(f.received[0].size(), 1u);
}

class AtomicBroadcastOrder : public ::testing::TestWithParam<std::uint64_t> {};

// The core total-order property: every member observes the same delivery
// order regardless of per-copy link delays. Runs over many seeds to exercise
// delay permutations that would reorder plain unicasts.
TEST_P(AtomicBroadcastOrder, AllMembersSeeSameOrder) {
  GroupFixture f(GetParam(), 5);
  // Interleave broadcasts from every member, including bursts at equal times.
  for (std::uint8_t round = 0; round < 20; ++round) {
    for (std::size_t sender = 0; sender < f.member_ids.size(); ++sender) {
      f.group->broadcast(f.member_ids[sender], MsgKind::kTest,
                         Bytes{round, static_cast<std::uint8_t>(sender)});
    }
    f.queue.run_until(f.queue.now() + 3 * kMillisecond);
  }
  f.queue.run();

  for (std::size_t i = 1; i < f.received.size(); ++i) {
    EXPECT_EQ(f.received[i], f.received[0]) << "member " << i << " diverged";
  }
  EXPECT_EQ(f.received[0].size(), 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomicBroadcastOrder,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(AtomicBroadcast, NonMemberSenderStillReachesGroup) {
  // A provider broadcasting to its collectors is not itself a member.
  runtime::EventLoop queue;
  SimNetwork net(queue, Rng(9), LatencyModel{1, 10});
  const NodeId outsider = net.add_node();
  std::vector<NodeId> members;
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 3; ++i) {
    const NodeId id = net.add_node();
    members.push_back(id);
    net.set_handler(id, [&counts, i](const Message&) { ++counts[i]; });
  }
  AtomicBroadcastGroup group(net, members);
  group.broadcast(outsider, MsgKind::kProviderTx, Bytes{7});
  queue.run();
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(AtomicBroadcast, StatsCountPerMemberCopies) {
  GroupFixture f(3, 4);
  f.net.reset_stats();
  f.group->broadcast(f.member_ids[0], MsgKind::kTest, Bytes(10));
  f.queue.run();
  EXPECT_EQ(f.net.stats().messages_sent, 4u);
  EXPECT_EQ(f.net.stats().bytes_sent, 40u);
}

TEST(AtomicBroadcast, SequenceAdvances) {
  GroupFixture f(4, 2);
  EXPECT_EQ(f.group->sequence(), 0u);
  f.group->broadcast(f.member_ids[0], MsgKind::kTest, Bytes{});
  f.group->broadcast(f.member_ids[1], MsgKind::kTest, Bytes{});
  EXPECT_EQ(f.group->sequence(), 2u);
}

TEST(AtomicBroadcast, DeliveryWithinSynchronyBoundPerBroadcast) {
  // Each copy's raw link delay is bounded; queuing for order can add at most
  // the backlog of earlier broadcasts, which for spaced broadcasts is zero.
  runtime::EventLoop queue;
  SimNetwork net(queue, Rng(10), LatencyModel{1 * kMillisecond, 5 * kMillisecond});
  const NodeId member = net.add_node();
  std::vector<SimTime> delivered;
  net.set_handler(member, [&](const Message& m) { delivered.push_back(m.delivered_at); });
  AtomicBroadcastGroup group(net, {member});
  for (int i = 0; i < 10; ++i) {
    const SimTime sent = queue.now();
    group.broadcast(member, MsgKind::kTest, Bytes{});
    queue.run();
    ASSERT_EQ(delivered.size(), static_cast<std::size_t>(i + 1));
    EXPECT_LE(delivered.back() - sent, 5 * kMillisecond);
    EXPECT_GE(delivered.back() - sent, 1 * kMillisecond);
  }
}

TEST(AtomicBroadcast, RedeliveredSequencedCopyIsSuppressed) {
  // Regression: fault-injected duplication replays an already-delivered
  // broadcast copy through deliver_direct. The per-link sequence guard must
  // swallow it instead of handing the handler a second delivery.
  GroupFixture f(7, 3);
  f.group->broadcast(f.member_ids[0], MsgKind::kTest, Bytes{9});
  f.queue.run();
  for (const auto& log : f.received) ASSERT_EQ(log.size(), 1u);

  Message dup;
  dup.from = f.member_ids[0];
  dup.to = f.member_ids[1];
  dup.kind = MsgKind::kTest;
  dup.payload = Bytes{9};
  dup.seq = f.group->sequence();  // already delivered on this link
  f.net.deliver_direct(dup);
  EXPECT_EQ(f.received[1].size(), 1u);
  EXPECT_EQ(f.net.stats().duplicates_ignored, 1u);

  // A fresh sequence on the same link still goes through.
  f.group->broadcast(f.member_ids[0], MsgKind::kTest, Bytes{10});
  f.queue.run();
  EXPECT_EQ(f.received[1].size(), 2u);
}

TEST(AtomicBroadcast, UnsequencedDirectDeliveriesAreNeverDeduplicated) {
  // seq == 0 marks a plain unicast; the guard must not apply (two identical
  // unsequenced messages are legitimate traffic, e.g. repeated requests).
  GroupFixture f(8, 2);
  Message msg;
  msg.from = f.member_ids[0];
  msg.to = f.member_ids[1];
  msg.kind = MsgKind::kTest;
  msg.payload = Bytes{1};
  f.net.deliver_direct(msg);
  f.net.deliver_direct(msg);
  EXPECT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.net.stats().duplicates_ignored, 0u);
}

TEST(AtomicBroadcast, DownMemberMissesDeliveriesOthersUnaffected) {
  GroupFixture f(6, 4);
  f.net.set_node_down(f.member_ids[2], true);
  f.group->broadcast(f.member_ids[0], MsgKind::kTest, Bytes{1});
  f.group->broadcast(f.member_ids[1], MsgKind::kTest, Bytes{2});
  f.queue.run();
  EXPECT_EQ(f.received[0].size(), 2u);
  EXPECT_EQ(f.received[1].size(), 2u);
  EXPECT_EQ(f.received[2].size(), 0u);  // crashed member hears nothing
  EXPECT_EQ(f.received[3].size(), 2u);
  // Recovery: deliveries resume (no replay of missed ones — the primitive is
  // not a durable log; catch-up is the application's job, e.g. retrieve(s)).
  f.net.set_node_down(f.member_ids[2], false);
  f.group->broadcast(f.member_ids[0], MsgKind::kTest, Bytes{3});
  f.queue.run();
  EXPECT_EQ(f.received[2].size(), 1u);
}

}  // namespace
}  // namespace repchain::net
