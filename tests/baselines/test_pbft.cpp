#include "baselines/pbft.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "common/errors.hpp"
#include "crypto/keygen.hpp"

namespace repchain::baselines {
namespace {

struct Cluster {
  explicit Cluster(std::size_t m, std::uint64_t seed = 55)
      : rng(seed),
        net(queue, rng.derive(1), net::LatencyModel{1 * kMillisecond, 5 * kMillisecond}),
        im(crypto::random_seed(rng)) {
    std::vector<crypto::SigningKey> keys;
    for (std::size_t i = 0; i < m; ++i) {
      keys.emplace_back(crypto::random_seed(rng));
      nodes.push_back(net.add_node());
      im.enroll(nodes.back(), identity::Role::kGovernor, keys.back().public_key());
    }
    for (std::size_t i = 0; i < m; ++i) {
      replicas.emplace_back(static_cast<std::uint32_t>(i), nodes[i],
                            std::move(keys[i]), net, im, nodes);
      const std::size_t idx = replicas.size() - 1;
      net.set_handler(nodes[i], [this, idx](const net::Message& msg) {
        replicas[idx].on_message(msg);
      });
    }
  }

  void settle() { queue.run(); }

  runtime::EventLoop queue;
  Rng rng;
  net::SimNetwork net;
  identity::IdentityManager im;
  std::vector<NodeId> nodes;
  std::deque<PbftReplica> replicas;
};

TEST(PbftMsg, RoundTrip) {
  Cluster c(4);
  PbftMsg m;
  m.phase = PbftPhase::kPrepare;
  m.view = 0;
  m.sequence = 7;
  m.digest[0] = 0xaa;
  m.payload = to_bytes("x");
  m.replica = 2;
  const PbftMsg d = PbftMsg::decode(m.encode());
  EXPECT_EQ(d.phase, PbftPhase::kPrepare);
  EXPECT_EQ(d.sequence, 7u);
  EXPECT_EQ(d.digest, m.digest);
  EXPECT_EQ(d.payload, m.payload);
  EXPECT_EQ(d.replica, 2u);
}

TEST(Pbft, QuorumSizes) {
  Cluster c(4);
  EXPECT_EQ(c.replicas[0].max_faulty(), 1u);
  EXPECT_EQ(c.replicas[0].quorum(), 3u);
  Cluster c7(7);
  EXPECT_EQ(c7.replicas[0].max_faulty(), 2u);
  EXPECT_EQ(c7.replicas[0].quorum(), 5u);
}

TEST(Pbft, AllHonestAgree) {
  Cluster c(4);
  c.replicas[0].propose(to_bytes("block-1"));
  c.settle();
  c.replicas[0].propose(to_bytes("block-2"));
  c.settle();

  for (auto& r : c.replicas) {
    ASSERT_EQ(r.delivered().size(), 2u) << "replica " << r.id();
    EXPECT_EQ(r.delivered()[0], to_bytes("block-1"));
    EXPECT_EQ(r.delivered()[1], to_bytes("block-2"));
  }
}

TEST(Pbft, NonPrimaryCannotPropose) {
  Cluster c(4);
  EXPECT_THROW(c.replicas[1].propose(to_bytes("x")), ProtocolError);
}

TEST(Pbft, ToleratesFSilentReplicas) {
  Cluster c(4);
  // One crashed replica (f = 1): the rest still commit.
  c.net.set_node_down(c.nodes[3], true);
  c.replicas[0].propose(to_bytes("resilient"));
  c.settle();
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(c.replicas[i].delivered().size(), 1u) << "replica " << i;
    EXPECT_EQ(c.replicas[i].delivered()[0], to_bytes("resilient"));
  }
}

TEST(Pbft, StallsBeyondFSilentReplicas) {
  Cluster c(4);
  c.net.set_node_down(c.nodes[2], true);
  c.net.set_node_down(c.nodes[3], true);  // 2 > f = 1
  c.replicas[0].propose(to_bytes("doomed"));
  c.settle();
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(c.replicas[i].delivered().empty());
  }
}

TEST(Pbft, EquivocatingPrimaryCannotSplitHonestReplicas) {
  Cluster c(4);
  c.replicas[0].propose_equivocating(to_bytes("alpha"), to_bytes("beta"));
  c.settle();

  // Safety: no two replicas deliver different payloads for the sequence.
  std::set<std::string> delivered;
  for (auto& r : c.replicas) {
    for (const auto& p : r.delivered()) delivered.insert(to_string(p));
  }
  EXPECT_LE(delivered.size(), 1u);
}

TEST(Pbft, ForgedMessagesIgnored) {
  Cluster c(4);
  // A message claiming to be replica 1 but signed with replica 2's key...
  // craft directly: replica 1's prepare with an invalid signature.
  PbftMsg fake;
  fake.phase = PbftPhase::kPrepare;
  fake.sequence = 1;
  fake.replica = 1;
  // default zero signature: invalid
  net::Message raw;
  raw.from = c.nodes[1];
  raw.to = c.nodes[0];
  raw.kind = net::MsgKind::kTest;
  raw.payload = fake.encode();
  c.replicas[0].on_message(raw);  // must not throw nor count

  c.replicas[0].propose(to_bytes("real"));
  c.settle();
  EXPECT_EQ(c.replicas[0].delivered().size(), 1u);
}

TEST(Pbft, MessageComplexityIsQuadratic) {
  // One committed payload costs ~3 all-to-all phases: O(m^2) messages —
  // the §4.1 comparison point against RepChain's O(m) leader dissemination.
  std::vector<std::pair<std::size_t, std::uint64_t>> counts;
  for (std::size_t m : {4u, 8u, 16u}) {
    Cluster c(m);
    c.net.reset_stats();
    c.replicas[0].propose(to_bytes("payload"));
    c.settle();
    counts.emplace_back(m, c.net.stats().messages_sent);
  }
  for (const auto& [m, msgs] : counts) {
    const double per_m2 = static_cast<double>(msgs) / static_cast<double>(m * m);
    EXPECT_GT(per_m2, 1.5) << "m=" << m;   // ~ pre-prepare + prepare + commit
    EXPECT_LT(per_m2, 3.5) << "m=" << m;
  }
  // Quadratic growth: quadrupling m grows messages ~16x (allow slack).
  const double ratio = static_cast<double>(counts[2].second) /
                       static_cast<double>(counts[0].second);
  EXPECT_GT(ratio, 10.0);
  EXPECT_LT(ratio, 24.0);
}

}  // namespace
}  // namespace repchain::baselines
