#include "runtime/event_loop.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"

namespace repchain::net {
namespace {

TEST(EventQueue, StartsEmptyAtTimeZero) {
  runtime::EventLoop q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.now(), 0u);
  EXPECT_EQ(q.run(), 0u);
}

TEST(EventQueue, EventsFireInTimeOrder) {
  runtime::EventLoop q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, EqualTimesFireFifo) {
  runtime::EventLoop q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(5, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents) {
  runtime::EventLoop q;
  std::vector<SimTime> fired;
  q.schedule_at(10, [&] {
    fired.push_back(q.now());
    q.schedule_after(5, [&] { fired.push_back(q.now()); });
  });
  q.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 15}));
}

TEST(EventQueue, SchedulingInPastThrows) {
  runtime::EventLoop q;
  q.schedule_at(100, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(50, [] {}), NetError);
}

TEST(EventQueue, RunMaxEventsStopsEarly) {
  runtime::EventLoop q;
  int count = 0;
  for (int i = 0; i < 10; ++i) q.schedule_at(i, [&] { ++count; });
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(count, 4);
  EXPECT_EQ(q.pending(), 6u);
  q.run();
  EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunUntilRespectsBoundaryInclusive) {
  runtime::EventLoop q;
  std::vector<SimTime> fired;
  for (SimTime t : {5u, 10u, 15u, 20u}) {
    q.schedule_at(t, [&fired, &q] { fired.push_back(q.now()); });
  }
  q.run_until(10);
  EXPECT_EQ(fired, (std::vector<SimTime>{5, 10}));
  EXPECT_EQ(q.now(), 10u);
  q.run_until(100);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunUntilAdvancesTimeWhenIdle) {
  runtime::EventLoop q;
  q.run_until(1000);
  EXPECT_EQ(q.now(), 1000u);
}

TEST(EventQueue, ProcessedCounterAccumulates) {
  runtime::EventLoop q;
  for (int i = 0; i < 5; ++i) q.schedule_at(i, [] {});
  q.run();
  EXPECT_EQ(q.processed(), 5u);
}

}  // namespace
}  // namespace repchain::net
