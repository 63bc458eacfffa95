// Experiment E5 (§4.1 complexity claims):
//   * reaching consensus on an ordinary block costs O(b_limit * m) messages
//     (the leader's block reaches every governor);
//   * a stake-transform block costs O(m^2) (every governor's transfer is
//     broadcast to every governor, plus the 3-step sign-and-collect).
//
// We sweep the governor count m and print per-kind message counts from the
// network's accounting.
//
// Expected shape: block-proposal messages grow linearly in m (payload
// proportional to b_limit); stake messages grow quadratically in m.

#include <cstdio>
#include <deque>

#include "bench_util.hpp"
#include "baselines/pbft.hpp"
#include "baselines/raft.hpp"
#include "crypto/keygen.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace repchain;
using repchain::bench::fmt;
using repchain::bench::Table;

std::uint64_t kind_count(const net::NetworkStats& stats, net::MsgKind kind) {
  const auto it = stats.by_kind.find(kind);
  return it == stats.by_kind.end() ? 0 : it->second;
}

std::uint64_t kind_bytes(const net::NetworkStats& stats, net::MsgKind kind) {
  const auto it = stats.bytes_by_kind.find(kind);
  return it == stats.bytes_by_kind.end() ? 0 : it->second;
}

void block_complexity(bench::JsonReport& json) {
  bench::section("E5a: ordinary block — O(b_limit * m)");
  bench::note("Fixed workload (16 tx/round, 4 rounds), sweeping governors m.\n"
              "block msgs = m per round (leader broadcast); bytes ~ b_limit.");
  Table table({"m", "block msgs", "block bytes", "vrf msgs", "msgs/m"});
  table.print_header();
  for (std::size_t m : {2u, 4u, 8u, 16u, 32u}) {
    sim::ScenarioConfig cfg;
    cfg.topology = {8, 4, m, 2};
    cfg.rounds = 4;
    cfg.txs_per_provider_per_round = 2;
    cfg.seed = 5;
    sim::Scenario s(cfg);
    s.run();
    const auto& stats = s.network().stats();
    const auto blocks = kind_count(stats, net::MsgKind::kBlockProposal);
    const auto vrf = kind_count(stats, net::MsgKind::kVrfAnnounce);
    table.row({std::to_string(m), std::to_string(blocks),
               std::to_string(kind_bytes(stats, net::MsgKind::kBlockProposal)),
               std::to_string(vrf),
               fmt(static_cast<double>(blocks) / static_cast<double>(m), 1)});
    json.row("block_complexity",
             {{"m", bench::ju(m)},
              {"block_msgs", bench::ju(blocks)},
              {"block_bytes", bench::ju(kind_bytes(stats, net::MsgKind::kBlockProposal))},
              {"vrf_msgs", bench::ju(vrf)}});
  }
  bench::note("msgs/m constant => linear in m, matching O(b_limit * m).");
}

void stake_complexity(bench::JsonReport& json) {
  bench::section("E5b: stake-transform block — O(m^2)");
  bench::note("Every governor submits one transfer in the round; counting\n"
              "stake-tx + 3-step consensus messages.");
  Table table({"m", "stake msgs", "state msgs", "total", "total/m^2"});
  table.print_header();
  for (std::size_t m : {2u, 4u, 8u, 16u, 32u}) {
    sim::ScenarioConfig cfg;
    cfg.topology = {4, 4, m, 2};
    cfg.rounds = 1;
    cfg.txs_per_provider_per_round = 0;
    cfg.governor_stakes.assign(m, 4);
    cfg.seed = 6;
    sim::Scenario s(cfg);
    s.network().reset_stats();
    // Every governor transfers 1 unit to its neighbour, then one round runs
    // the 3-step consensus over the transfers.
    for (std::size_t g = 0; g < m; ++g) {
      s.governor(g).submit_stake_transfer(
          GovernorId(static_cast<std::uint32_t>((g + 1) % m)), 1);
    }
    s.run_round();
    const auto& stats = s.network().stats();
    const auto stake = kind_count(stats, net::MsgKind::kStakeTx);
    const auto state = kind_count(stats, net::MsgKind::kStateProposal) +
                       kind_count(stats, net::MsgKind::kStateSignature) +
                       kind_count(stats, net::MsgKind::kStateCommit);
    const auto total = stake + state;
    table.row({std::to_string(m), std::to_string(stake), std::to_string(state),
               std::to_string(total),
               fmt(static_cast<double>(total) / static_cast<double>(m * m), 2)});
    json.row("stake_complexity", {{"m", bench::ju(m)},
                                  {"stake_msgs", bench::ju(stake)},
                                  {"state_msgs", bench::ju(state)},
                                  {"total", bench::ju(total)}});
  }
  bench::note("total/m^2 approaching a constant => quadratic, matching O(m^2).");
}

void upload_fanout() {
  bench::section("E5c: collecting/uploading fan-out (context)");
  bench::note("Provider tx copies = r per tx; upload copies = m per labeled tx.");
  Table table({"m", "provider msgs", "upload msgs", "uploads/(txs*m)"});
  table.print_header();
  for (std::size_t m : {2u, 4u, 8u}) {
    sim::ScenarioConfig cfg;
    cfg.topology = {8, 4, m, 2};
    cfg.rounds = 2;
    cfg.txs_per_provider_per_round = 2;
    cfg.seed = 7;
    sim::Scenario s(cfg);
    s.run();
    const auto& stats = s.network().stats();
    const double txs = static_cast<double>(s.summary().txs_submitted);
    const auto uploads = kind_count(stats, net::MsgKind::kCollectorUpload);
    table.row({std::to_string(m),
               std::to_string(kind_count(stats, net::MsgKind::kProviderTx)),
               std::to_string(uploads),
               fmt(static_cast<double>(uploads) / (txs * static_cast<double>(m)), 2)});
  }
}

void pbft_comparison(bench::JsonReport& json) {
  bench::section("E5d: block agreement — RepChain leader-trust vs PBFT baseline");
  bench::note("Messages to commit ONE block across m governors. RepChain trusts\n"
              "the VRF-elected leader (one atomic broadcast, m copies); classic\n"
              "PBFT pays three all-to-all phases, ~3m^2 (§2.2/§4.1 positioning).");
  Table table({"m", "repchain", "raft", "pbft", "pbft/repchain"});
  table.print_header();
  for (std::size_t m : {4u, 8u, 16u, 32u}) {
    // RepChain: count only the block-proposal broadcast.
    std::uint64_t repchain_msgs = m;  // one copy per governor, by construction

    // Raft (crash-fault baseline, §2.2 Corda-with-Raft): steady-state
    // messages to commit one entry, excluding election and heartbeats.
    std::uint64_t raft_msgs = 0;
    {
      runtime::EventLoop queue;
      Rng rng(321);
      net::SimNetwork net(queue, rng.derive(1), net::LatencyModel{1, 5});
      std::vector<NodeId> nodes;
      for (std::size_t i = 0; i < m; ++i) nodes.push_back(net.add_node());
      std::deque<baselines::RaftNode> raft;
      for (std::size_t i = 0; i < m; ++i) {
        raft.emplace_back(static_cast<std::uint32_t>(i), nodes[i], net, nodes,
                          rng.derive(50 + i));
        const std::size_t idx = raft.size() - 1;
        net.set_handler(nodes[i], [&raft, idx](const net::Message& msg) {
          raft[idx].on_message(msg);
        });
      }
      for (auto& r : raft) r.start();
      baselines::RaftNode* leader = nullptr;
      while (!leader && !queue.empty()) {
        queue.run(1);
        for (auto& r : raft) {
          if (r.role() == baselines::RaftNode::Role::kLeader) leader = &r;
        }
      }
      if (leader) {
        net.reset_stats();
        (void)leader->submit(Bytes(512));
        queue.run_until(queue.now() + 15 * kMillisecond);  // below heartbeat
        raft_msgs = net.stats().messages_sent;
      }
    }

    // PBFT: run a real cluster committing one payload.
    runtime::EventLoop queue;
    Rng rng(123);
    net::SimNetwork net(queue, rng.derive(1), net::LatencyModel{1, 5});
    identity::IdentityManager im(crypto::random_seed(rng));
    std::vector<NodeId> nodes;
    std::vector<crypto::SigningKey> keys;
    for (std::size_t i = 0; i < m; ++i) {
      keys.emplace_back(crypto::random_seed(rng));
      nodes.push_back(net.add_node());
      im.enroll(nodes.back(), identity::Role::kGovernor, keys.back().public_key());
    }
    std::deque<baselines::PbftReplica> replicas;
    for (std::size_t i = 0; i < m; ++i) {
      replicas.emplace_back(static_cast<std::uint32_t>(i), nodes[i],
                            std::move(keys[i]), net, im, nodes);
      const std::size_t idx = replicas.size() - 1;
      net.set_handler(nodes[i], [&replicas, idx](const net::Message& msg) {
        replicas[idx].on_message(msg);
      });
    }
    net.reset_stats();
    replicas[0].propose(Bytes(512));
    queue.run();
    const std::uint64_t pbft_msgs = net.stats().messages_sent;
    table.row({std::to_string(m), std::to_string(repchain_msgs),
               std::to_string(raft_msgs), std::to_string(pbft_msgs),
               fmt(static_cast<double>(pbft_msgs) / static_cast<double>(repchain_msgs),
                   1)});
    json.row("consensus_comparison", {{"m", bench::ju(m)},
                                      {"repchain_msgs", bench::ju(repchain_msgs)},
                                      {"raft_msgs", bench::ju(raft_msgs)},
                                      {"pbft_msgs", bench::ju(pbft_msgs)}});
  }
  bench::note("\nThe permissioned trust assumption (governors won't fork, §3.4.3)\n"
              "buys the factor-~3m reduction over PBFT (f < m/3 byzantine).\n"
              "Raft sits in between: ~2(m-1) messages per commit, tolerating\n"
              "floor((m-1)/2) crashes but no byzantine behaviour — the §2.2\n"
              "Corda-with-Raft point on the trust/cost spectrum.");
}

}  // namespace

int main() {
  std::printf("bench_communication — E5 / §4.1: O(b_limit*m) blocks, O(m^2) stake\n");
  bench::JsonReport json("communication", 5);
  block_complexity(json);
  stake_complexity(json);
  upload_fanout();
  pbft_comparison(json);
  json.write();
  return 0;
}
