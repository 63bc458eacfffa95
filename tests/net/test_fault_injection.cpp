// FaultSchedule predicate semantics (half-open windows, probability
// composition) and the FaultyTransport decorator's per-fault behavior over a
// real SimNetwork: partitions sever, losses drop, duplication doubles,
// reordering re-times, delay spikes stretch draws — and everything heals when
// its window closes.
#include "runtime/fault_schedule.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"

namespace repchain::net {
namespace {

using runtime::DelayFault;
using runtime::DuplicateFault;
using runtime::FaultSchedule;
using runtime::FaultyTransport;
using runtime::LossFault;
using runtime::PartitionFault;
using runtime::ReorderFault;

TEST(FaultSchedule, PartitionWindowIsHalfOpen) {
  FaultSchedule s;
  s.add(PartitionFault{10, 20, {NodeId(0)}});
  EXPECT_FALSE(s.severed(NodeId(0), NodeId(1), 9));
  EXPECT_TRUE(s.severed(NodeId(0), NodeId(1), 10));
  EXPECT_TRUE(s.severed(NodeId(1), NodeId(0), 19));  // symmetric
  EXPECT_FALSE(s.severed(NodeId(0), NodeId(1), 20));  // healed at `until`
  // Two outsiders are never severed.
  EXPECT_FALSE(s.severed(NodeId(1), NodeId(2), 15));
}

TEST(FaultSchedule, OverlappingLossWindowsCompose) {
  FaultSchedule s;
  s.add(LossFault{0, 100, 0.5, std::nullopt});
  s.add(LossFault{50, 100, 0.5, std::nullopt});
  EXPECT_DOUBLE_EQ(s.loss_probability(NodeId(0), NodeId(1), 10), 0.5);
  EXPECT_DOUBLE_EQ(s.loss_probability(NodeId(0), NodeId(1), 60), 0.75);
  EXPECT_DOUBLE_EQ(s.loss_probability(NodeId(0), NodeId(1), 100), 0.0);
}

TEST(FaultSchedule, LinkScopedLossOnlyHitsItsLink) {
  FaultSchedule s;
  s.add(LossFault{0, 100, 1.0, std::make_pair(NodeId(0), NodeId(1))});
  EXPECT_DOUBLE_EQ(s.loss_probability(NodeId(0), NodeId(1), 10), 1.0);
  EXPECT_DOUBLE_EQ(s.loss_probability(NodeId(1), NodeId(0), 10), 0.0);
  EXPECT_DOUBLE_EQ(s.loss_probability(NodeId(0), NodeId(2), 10), 0.0);
}

TEST(FaultSchedule, DelayExtrasAccumulateAcrossActiveWindows) {
  FaultSchedule s;
  s.add(DelayFault{0, 100, 5, 2});
  s.add(DelayFault{50, 100, 7, 0});
  SimDuration jitter = 0;
  EXPECT_EQ(s.delay_extra_at(10, jitter), 5);
  EXPECT_EQ(jitter, 2);
  jitter = 0;
  EXPECT_EQ(s.delay_extra_at(60, jitter), 12);
  jitter = 0;
  EXPECT_EQ(s.delay_extra_at(100, jitter), 0);
}

// --- Decorator behavior over a live network ---------------------------------

struct FaultNetFixture {
  explicit FaultNetFixture(std::uint64_t seed)
      : net(queue, Rng(seed), LatencyModel{1 * kMillisecond, 10 * kMillisecond}) {
    for (std::size_t i = 0; i < 3; ++i) {
      ids.push_back(net.add_node());
      counts.push_back(0);
      net.set_handler(ids.back(), [this, i](const Message&) { ++counts[i]; });
    }
  }

  runtime::EventLoop queue;
  SimNetwork net;
  std::vector<NodeId> ids;
  std::vector<int> counts;
};

TEST(FaultyTransport, PartitionSeversCrossIslandTrafficUntilHealed) {
  FaultNetFixture f(11);
  FaultSchedule sched;
  sched.add(PartitionFault{0, 50 * kMillisecond, {f.ids[0]}});
  FaultyTransport ft(f.net, std::move(sched), Rng(11).derive(7));

  ft.send(f.ids[0], f.ids[1], MsgKind::kTest, Bytes{1});  // severed
  ft.send(f.ids[1], f.ids[0], MsgKind::kTest, Bytes{2});  // severed (symmetric)
  ft.send(f.ids[1], f.ids[2], MsgKind::kTest, Bytes{3});  // outsiders flow
  f.queue.run();
  EXPECT_EQ(f.counts[0], 0);
  EXPECT_EQ(f.counts[1], 0);
  EXPECT_EQ(f.counts[2], 1);
  EXPECT_EQ(ft.stats().partition_drops, 2u);

  f.queue.run_until(50 * kMillisecond);  // window closes
  ft.send(f.ids[0], f.ids[1], MsgKind::kTest, Bytes{4});
  f.queue.run();
  EXPECT_EQ(f.counts[1], 1);
  EXPECT_EQ(ft.stats().partition_drops, 2u);
}

TEST(FaultyTransport, CertainLossDropsEveryMessageInWindow) {
  FaultNetFixture f(12);
  FaultSchedule sched;
  sched.add(LossFault{0, 50 * kMillisecond, 1.0, std::nullopt});
  FaultyTransport ft(f.net, std::move(sched), Rng(12).derive(7));

  ft.send(f.ids[0], f.ids[1], MsgKind::kTest, Bytes{1});
  f.queue.run();
  EXPECT_EQ(f.counts[1], 0);
  EXPECT_EQ(ft.stats().loss_drops, 1u);

  f.queue.run_until(50 * kMillisecond);
  ft.send(f.ids[0], f.ids[1], MsgKind::kTest, Bytes{2});
  f.queue.run();
  EXPECT_EQ(f.counts[1], 1);
}

TEST(FaultyTransport, DuplicationDeliversTheUnicastTwice) {
  FaultNetFixture f(13);
  FaultSchedule sched;
  sched.add(DuplicateFault{0, 50 * kMillisecond, 1.0});
  FaultyTransport ft(f.net, std::move(sched), Rng(13).derive(7));

  ft.send(f.ids[0], f.ids[1], MsgKind::kTest, Bytes{1});
  f.queue.run();
  EXPECT_EQ(f.counts[1], 2);  // seq == 0: the network-level guard must not apply
  EXPECT_EQ(ft.stats().duplicated, 1u);
}

TEST(FaultyTransport, ReorderHoldsTheMessageBackButStillDeliversOnce) {
  FaultNetFixture f(14);
  FaultSchedule sched;
  sched.add(ReorderFault{0, 50 * kMillisecond, 1.0, 20 * kMillisecond});
  FaultyTransport ft(f.net, std::move(sched), Rng(14).derive(7));

  ft.send(f.ids[0], f.ids[1], MsgKind::kTest, Bytes{1});
  f.queue.run();
  EXPECT_EQ(f.counts[1], 1);
  EXPECT_EQ(ft.stats().reordered, 1u);
}

TEST(FaultyTransport, DelaySpikeStretchesDrawsOnlyInsideItsWindow) {
  FaultNetFixture f(15);
  FaultSchedule sched;
  sched.add(DelayFault{0, 50 * kMillisecond, 25 * kMillisecond, 0});
  FaultyTransport ft(f.net, std::move(sched), Rng(15).derive(7));

  const SimDuration spiked = ft.draw_delay();
  EXPECT_GE(spiked, 26 * kMillisecond);  // inner [1, 10]ms + 25ms extra
  EXPECT_LE(spiked, 35 * kMillisecond);
  EXPECT_EQ(ft.stats().delay_extended, 1u);

  f.queue.run_until(50 * kMillisecond);
  const SimDuration normal = ft.draw_delay();
  EXPECT_LE(normal, 10 * kMillisecond);
  EXPECT_EQ(ft.stats().delay_extended, 1u);
}

TEST(FaultyTransport, DuplicatedSequencedDeliveryIsAbsorbedByTheSeqGuard) {
  // The atomic-broadcast path: a duplicated deliver_direct of a sequenced
  // copy reaches the network twice but the per-link guard eats the replay.
  FaultNetFixture f(16);
  FaultSchedule sched;
  sched.add(DuplicateFault{0, 50 * kMillisecond, 1.0});
  FaultyTransport ft(f.net, std::move(sched), Rng(16).derive(7));

  Message msg;
  msg.from = f.ids[0];
  msg.to = f.ids[1];
  msg.kind = MsgKind::kTest;
  msg.payload = Bytes{1};
  msg.seq = 1;
  ft.deliver_direct(msg);
  EXPECT_EQ(f.counts[1], 1);
  EXPECT_EQ(ft.stats().duplicated, 1u);
  EXPECT_EQ(f.net.stats().duplicates_ignored, 1u);
}

TEST(FaultyTransport, SelfDeliveryBypassesAllFaults) {
  // Loopback (from == to) is the node talking to itself; faulting it would
  // desync a node from its own state machine.
  FaultNetFixture f(17);
  FaultSchedule sched;
  sched.add(LossFault{0, 50 * kMillisecond, 1.0, std::nullopt});
  sched.add(PartitionFault{0, 50 * kMillisecond, {f.ids[0]}});
  FaultyTransport ft(f.net, std::move(sched), Rng(17).derive(7));

  ft.send(f.ids[0], f.ids[0], MsgKind::kTest, Bytes{1});
  f.queue.run();
  EXPECT_EQ(f.counts[0], 1);
  EXPECT_EQ(ft.stats().loss_drops, 0u);
  EXPECT_EQ(ft.stats().partition_drops, 0u);
}

}  // namespace
}  // namespace repchain::net
