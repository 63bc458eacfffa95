#include "baselines/raft.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "common/errors.hpp"

namespace repchain::baselines {
namespace {

struct Cluster {
  explicit Cluster(std::size_t m, std::uint64_t seed = 7)
      : rng(seed),
        net(queue, rng.derive(1), net::LatencyModel{1 * kMillisecond, 5 * kMillisecond}) {
    for (std::size_t i = 0; i < m; ++i) nodes.push_back(net.add_node());
    for (std::size_t i = 0; i < m; ++i) {
      raft.emplace_back(static_cast<std::uint32_t>(i), nodes[i], net, nodes,
                        rng.derive(100 + i));
      const std::size_t idx = raft.size() - 1;
      net.set_handler(nodes[i], [this, idx](const net::Message& msg) {
        raft[idx].on_message(msg);
      });
    }
    for (auto& r : raft) r.start();
  }

  /// Run until some node is leader (or the step budget runs out).
  RaftNode* elect(std::size_t max_steps = 200000) {
    for (std::size_t i = 0; i < max_steps && !queue.empty(); ++i) {
      queue.run(1);
      for (auto& r : raft) {
        if (r.role() == RaftNode::Role::kLeader) return &r;
      }
    }
    return nullptr;
  }

  void settle_for(SimDuration d) { queue.run_until(queue.now() + d); }

  std::size_t leader_count() {
    std::size_t count = 0;
    for (auto& r : raft) {
      if (r.role() == RaftNode::Role::kLeader) ++count;
    }
    return count;
  }

  runtime::EventLoop queue;
  Rng rng;
  net::SimNetwork net;
  std::vector<NodeId> nodes;
  std::deque<RaftNode> raft;
};

TEST(RaftMsg, RoundTrip) {
  RaftMsg m;
  m.type = RaftMsgType::kAppendEntries;
  m.term = 3;
  m.from = 1;
  m.prev_log_index = 4;
  m.prev_log_term = 2;
  m.leader_commit = 4;
  m.entries = {{3, to_bytes("a")}, {3, to_bytes("b")}};
  const RaftMsg d = RaftMsg::decode(m.encode());
  EXPECT_EQ(d.type, RaftMsgType::kAppendEntries);
  EXPECT_EQ(d.term, 3u);
  ASSERT_EQ(d.entries.size(), 2u);
  EXPECT_EQ(d.entries[1].payload, to_bytes("b"));
}

TEST(Raft, ElectsExactlyOneLeader) {
  Cluster c(5);
  RaftNode* leader = c.elect();
  ASSERT_NE(leader, nullptr);
  // Let things settle: still exactly one leader in the cluster's max term.
  c.settle_for(300 * kMillisecond);
  EXPECT_EQ(c.leader_count(), 1u);
}

TEST(Raft, ReplicatesAndCommitsEntries) {
  Cluster c(3);
  RaftNode* leader = c.elect();
  ASSERT_NE(leader, nullptr);

  EXPECT_TRUE(leader->submit(to_bytes("entry-1")));
  EXPECT_TRUE(leader->submit(to_bytes("entry-2")));
  c.settle_for(200 * kMillisecond);

  for (auto& r : c.raft) {
    ASSERT_GE(r.commit_index(), 2u) << "node " << r.id();
    const auto committed = r.committed();
    EXPECT_EQ(committed[0], to_bytes("entry-1"));
    EXPECT_EQ(committed[1], to_bytes("entry-2"));
  }
}

TEST(Raft, NonLeaderRejectsSubmit) {
  Cluster c(3);
  RaftNode* leader = c.elect();
  ASSERT_NE(leader, nullptr);
  for (auto& r : c.raft) {
    if (&r != leader) EXPECT_FALSE(r.submit(to_bytes("x")));
  }
}

TEST(Raft, ToleratesMinorityCrash) {
  Cluster c(5);
  RaftNode* leader = c.elect();
  ASSERT_NE(leader, nullptr);

  // Crash two non-leader nodes (minority of 5).
  std::size_t crashed = 0;
  for (auto& r : c.raft) {
    if (&r != leader && crashed < 2) {
      c.net.set_node_down(c.nodes[r.id()], true);
      ++crashed;
    }
  }
  EXPECT_TRUE(leader->submit(to_bytes("survives")));
  c.settle_for(300 * kMillisecond);
  EXPECT_GE(leader->commit_index(), 1u);
}

TEST(Raft, LeaderCrashTriggersReElection) {
  Cluster c(5);
  RaftNode* leader = c.elect();
  ASSERT_NE(leader, nullptr);
  const std::uint32_t old_leader = leader->id();
  const std::uint64_t old_term = leader->term();

  c.net.set_node_down(c.nodes[old_leader], true);
  c.settle_for(600 * kMillisecond);

  RaftNode* new_leader = nullptr;
  for (auto& r : c.raft) {
    if (r.id() != old_leader && r.role() == RaftNode::Role::kLeader) new_leader = &r;
  }
  ASSERT_NE(new_leader, nullptr) << "no re-election happened";
  EXPECT_GT(new_leader->term(), old_term);
}

TEST(Raft, CommittedEntriesSurviveLeaderChange) {
  Cluster c(5);
  RaftNode* leader = c.elect();
  ASSERT_NE(leader, nullptr);
  ASSERT_TRUE(leader->submit(to_bytes("durable")));
  c.settle_for(300 * kMillisecond);

  c.net.set_node_down(c.nodes[leader->id()], true);
  c.settle_for(600 * kMillisecond);

  RaftNode* new_leader = nullptr;
  for (auto& r : c.raft) {
    if (r.role() == RaftNode::Role::kLeader &&
        !(&r == leader)) {
      new_leader = &r;
    }
  }
  ASSERT_NE(new_leader, nullptr);
  // Leader-completeness: the committed entry is in the new leader's log.
  ASSERT_GE(new_leader->log().size(), 1u);
  EXPECT_EQ(new_leader->log()[0].payload, to_bytes("durable"));

  EXPECT_TRUE(new_leader->submit(to_bytes("after-failover")));
  c.settle_for(300 * kMillisecond);
  EXPECT_GE(new_leader->commit_index(), 2u);
  EXPECT_EQ(new_leader->committed()[0], to_bytes("durable"));
}

TEST(Raft, MajorityCrashHaltsProgress) {
  Cluster c(5);
  RaftNode* leader = c.elect();
  ASSERT_NE(leader, nullptr);

  std::size_t crashed = 0;
  for (auto& r : c.raft) {
    if (&r != leader && crashed < 3) {  // 3 of 5 down: majority lost
      c.net.set_node_down(c.nodes[r.id()], true);
      ++crashed;
    }
  }
  EXPECT_TRUE(leader->submit(to_bytes("stuck")));
  c.settle_for(300 * kMillisecond);
  EXPECT_EQ(leader->commit_index(), 0u);  // cannot commit without a majority
}

TEST(Raft, DeterministicAcrossSeeds) {
  // Same seed -> same leader and same term trajectory.
  auto run = [](std::uint64_t seed) {
    Cluster c(3, seed);
    RaftNode* leader = c.elect();
    return leader ? std::make_pair(leader->id(), leader->term())
                  : std::make_pair(std::uint32_t(99), std::uint64_t(0));
  };
  EXPECT_EQ(run(11), run(11));
}

}  // namespace
}  // namespace repchain::baselines
