// In-process cluster harness: NodeHosts served on socketpairs from threads
// stand in for the forked node processes, which lets the lockstep replay be
// asserted byte-for-byte against the simulation inside one test binary, and
// lets the admission failures (wrong genesis, future version, bad role) be
// driven from hand-crafted welcomes. The crash-plan vocabulary of the
// free-running mode is checked here too; its kill/respawn runs are the
// cluster_free_run* and cluster_restart_converges* ctests.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/driver.hpp"
#include "cluster/free_node.hpp"
#include "cluster/free_run.hpp"
#include "cluster/node_host.hpp"
#include "cluster/sync_conn.hpp"
#include "common/errors.hpp"
#include "sim/harness/run_codec.hpp"
#include "sim/harness/spec_codec.hpp"

namespace repchain::cluster {
namespace {

sim::ScenarioConfig small_config() {
  sim::ScenarioConfig cfg;
  cfg.topology.providers = 3;
  cfg.topology.collectors = 2;
  cfg.topology.governors = 2;
  cfg.topology.r = 2;
  cfg.rounds = 2;
  cfg.txs_per_provider_per_round = 1;
  cfg.p_valid = 0.7;
  cfg.audit_probability = 0.5;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.8)};
  cfg.seed = 7;
  return cfg;
}

crypto::Hash256 genesis_of(sim::ScenarioConfig cfg) {
  sim::normalize_config(cfg);
  return sim::config_genesis(cfg);
}

/// One governor "process": a NodeHost served from a thread over a
/// socketpair. Any WireError escaping serve() is recorded for assertions.
struct HostThread {
  HostThread(const sim::ScenarioConfig& config, std::size_t index, int fd)
      : thread([config, index, fd, this] {
          try {
            NodeHost host(config, index);
            host.serve(fd);
          } catch (const wire::WireError& e) {
            error = e.code();
          } catch (const std::exception&) {
            error = wire::ProtocolError::kBadPayload;  // unexpected kind
          }
        }) {}
  ~HostThread() { join(); }

  void join() {
    if (thread.joinable()) thread.join();
  }

  std::thread thread;
  wire::ProtocolError error = wire::ProtocolError::kNone;
};

std::pair<int, int> stream_pair() {
  int sv[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  return {sv[0], sv[1]};
}

TEST(Cluster, LockstepReplayMatchesSimulationByteForByte) {
  const sim::ScenarioConfig config = small_config();
  const crypto::Hash256 genesis = genesis_of(config);
  const std::size_t governors = config.topology.governors;

  std::vector<std::unique_ptr<HostThread>> hosts;
  std::vector<std::unique_ptr<SyncConn>> conns(governors);
  const wire::Welcome local = driver_welcome(genesis);
  for (std::size_t i = 0; i < governors; ++i) {
    const auto [driver_fd, node_fd] = stream_pair();
    hosts.push_back(std::make_unique<HostThread>(config, i, node_fd));
    auto conn = std::make_unique<SyncConn>(driver_fd);
    const wire::Welcome remote = handshake(*conn, local, genesis);
    ASSERT_EQ(remote.role, wire::Role::kNode);
    ASSERT_EQ(remote.node_index, i);
    ASSERT_EQ(remote.hosted.size(), 1u);
    conns[remote.node_index] = std::move(conn);
  }

  ClusterRun run(config, std::move(conns));
  const sim::RunResult socketed = run.run();
  const sim::RunResult simulated = sim::simulate_run(config);

  EXPECT_EQ(sim::encode_run_result(socketed), sim::encode_run_result(simulated))
      << "socket replay diverged from the simulation:\n=== simulated ===\n"
      << sim::render_run_result(simulated) << "\n=== socket replay ===\n"
      << sim::render_run_result(socketed);
  for (const auto& host : hosts) {
    EXPECT_EQ(host->error, wire::ProtocolError::kNone);
  }
}

TEST(Cluster, WrongGenesisNodeIsRefusedAtHandshake) {
  const sim::ScenarioConfig config = small_config();
  sim::ScenarioConfig other = config;
  other.seed = 8;  // different chain: different genesis hash
  ASSERT_NE(genesis_of(config), genesis_of(other));

  const auto [driver_fd, node_fd] = stream_pair();
  HostThread host(other, 0, node_fd);
  SyncConn conn(driver_fd);
  const crypto::Hash256 genesis = genesis_of(config);
  try {
    (void)handshake(conn, driver_welcome(genesis), genesis);
    FAIL() << "foreign-genesis node admitted";
  } catch (const wire::WireError& e) {
    EXPECT_EQ(e.code(), wire::ProtocolError::kWrongGenesis);
  }
}

TEST(Cluster, FutureOnlyDriverVersionIsAnsweredWithHighVersionError) {
  const sim::ScenarioConfig config = small_config();
  const auto [driver_fd, node_fd] = stream_pair();
  HostThread host(config, 0, node_fd);

  SyncConn conn(driver_fd);
  wire::Welcome future = driver_welcome(genesis_of(config));
  future.version_min = wire::kVersionMax + 1;
  future.version_max = wire::kVersionMax + 1;
  conn.send_frame(static_cast<std::uint16_t>(wire::PacketType::kWelcome),
                  wire::encode_welcome(future));

  // The node sends its own welcome first, then the admission verdict.
  const wire::Frame their_welcome = conn.recv_frame();
  EXPECT_EQ(their_welcome.type,
            static_cast<std::uint16_t>(wire::PacketType::kWelcome));
  const wire::Frame verdict = conn.recv_frame();
  ASSERT_EQ(verdict.type, static_cast<std::uint16_t>(wire::PacketType::kError));
  EXPECT_EQ(wire::decode_error(verdict.payload).code,
            wire::ProtocolError::kHighVersion);
  host.join();
  EXPECT_EQ(host.error, wire::ProtocolError::kHighVersion);
}

TEST(Cluster, NonDriverPeerIsRefusedWithBadRole) {
  const sim::ScenarioConfig config = small_config();
  const auto [driver_fd, node_fd] = stream_pair();
  HostThread host(config, 0, node_fd);

  SyncConn conn(driver_fd);
  wire::Welcome imposter = driver_welcome(genesis_of(config));
  imposter.role = wire::Role::kPeer;  // a mesh peer, not the cluster driver
  conn.send_frame(static_cast<std::uint16_t>(wire::PacketType::kWelcome),
                  wire::encode_welcome(imposter));

  (void)conn.recv_frame();  // the node's welcome
  const wire::Frame verdict = conn.recv_frame();
  ASSERT_EQ(verdict.type, static_cast<std::uint16_t>(wire::PacketType::kError));
  EXPECT_EQ(wire::decode_error(verdict.payload).code,
            wire::ProtocolError::kBadRole);
  host.join();
  EXPECT_EQ(host.error, wire::ProtocolError::kBadRole);
}

TEST(Cluster, OutOfRangeGovernorIndexIsAConfigError) {
  EXPECT_THROW(NodeHost(small_config(), 99), ConfigError);
}

TEST(Cluster, SyncConnRecvTimeoutIsPeerTimeout) {
  const auto [driver_fd, node_fd] = stream_pair();
  SyncConn conn(driver_fd);
  conn.set_timeout(100'000);  // 100ms deadline on a silent peer
  try {
    (void)conn.recv_frame();
    FAIL() << "recv on a silent peer returned";
  } catch (const wire::WireError& e) {
    EXPECT_EQ(e.code(), wire::ProtocolError::kPeerTimeout);
  }
  ::close(node_fd);
}

TEST(Cluster, HeadInfoCodecRoundTrip) {
  HeadInfo h;
  h.serial = 12;
  h.hash[0] = 0xAA;
  h.hash[31] = 0x55;
  h.committed_txs = 340;
  h.incarnation = 2;
  const HeadInfo d = decode_head(encode_head(h));
  EXPECT_EQ(d.serial, h.serial);
  EXPECT_EQ(d.hash, h.hash);
  EXPECT_EQ(d.committed_txs, h.committed_txs);
  EXPECT_EQ(d.incarnation, h.incarnation);
}

TEST(Cluster, RestartedNodeAnnouncesSessionResume) {
  const sim::ScenarioConfig config = small_config();
  const auto [driver_fd, node_fd] = stream_pair();
  char dir[] = "/tmp/repchain_resume_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);

  // A free-running incarnation 1 against an empty store: recovery finds
  // nothing (head serial 0), but the welcome must still announce the
  // returning life. Peer base 0 binds the mesh listener to an ephemeral
  // port; governor 0 dials no lower-indexed peer.
  wire::ProtocolError error = wire::ProtocolError::kNone;
  std::thread node([&, node_fd] {
    try {
      FreeNodeHost host(free_run_config(config), 0, /*peer_base=*/0, dir,
                        /*incarnation=*/1);
      host.run(node_fd);
    } catch (const wire::WireError& e) {
      error = e.code();
    } catch (const std::exception&) {
      error = wire::ProtocolError::kBadPayload;  // unexpected kind
    }
  });

  SyncConn conn(driver_fd);
  const crypto::Hash256 genesis = genesis_of(free_run_config(config));
  const wire::Welcome remote =
      handshake(conn, driver_welcome(genesis), genesis);
  EXPECT_TRUE(remote.resume);
  EXPECT_EQ(remote.incarnation, 1u);
  EXPECT_EQ(remote.head_serial, 0u);

  conn.send_frame(static_cast<std::uint16_t>(ClusterPacket::kShutdown), {});
  (void)conn.recv_frame();
  node.join();
  EXPECT_EQ(error, wire::ProtocolError::kNone);
  std::filesystem::remove_all(dir);
}

TEST(Cluster, CrashPlanParsesCanonicalSpec) {
  CrashPlan plan;
  ASSERT_TRUE(parse_crash_plan("1@2:4", plan));
  EXPECT_EQ(plan.victim, 1u);
  EXPECT_EQ(plan.kill_round, 2u);
  EXPECT_EQ(plan.restart_round, 4u);

  ASSERT_TRUE(parse_crash_plan("12@3:15", plan));
  EXPECT_EQ(plan.victim, 12u);
  EXPECT_EQ(plan.kill_round, 3u);
  EXPECT_EQ(plan.restart_round, 15u);
}

TEST(Cluster, CrashPlanRejectsMalformedSpecs) {
  CrashPlan plan;
  const char* bad[] = {
      "",        "1",      "1@2",    "@2:3",   "1@:3",    "1@2:",
      "x@2:3",   "1@x:3",  "1@2:x",  "1x@2:3", "1@2x:3",  "1@2:3x",
      "1:2@3",   "1@2:3:4x",
      "1@0:3",   // kill round 0: the schedule starts at round 1
      "1@3:3",   // restart not strictly after kill
      "1@3:2",
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(parse_crash_plan(spec, plan)) << "accepted: " << spec;
  }
}

TEST(Cluster, ValidateCrashPlansRejectsInconsistentSchedules) {
  const std::size_t governors = 4;
  const Round rounds = 5;
  const auto plan = [](std::size_t v, Round k, Round r) {
    return CrashPlan{v, k, r};
  };

  // Overlapping multi-victim windows — including quorum-breaking ones — are
  // exactly what the free-running mode exercises; they must validate.
  EXPECT_NO_THROW(validate_crash_plans({plan(1, 2, 4), plan(2, 2, 3)},
                                       governors, rounds));
  EXPECT_NO_THROW(validate_crash_plans({}, governors, rounds));

  EXPECT_THROW(validate_crash_plans({plan(1, 2, 3), plan(1, 4, 5)},
                                    governors, rounds),
               ConfigError);  // same victim scheduled twice
  EXPECT_THROW(validate_crash_plans({plan(4, 2, 3)}, governors, rounds),
               ConfigError);  // victim index out of range
  EXPECT_THROW(validate_crash_plans({plan(0, 0, 2)}, governors, rounds),
               ConfigError);  // kill round 0
  EXPECT_THROW(validate_crash_plans({plan(0, 6, 7)}, governors, rounds),
               ConfigError);  // kill round past the configured rounds
  EXPECT_THROW(validate_crash_plans({plan(0, 3, 3)}, governors, rounds),
               ConfigError);  // restart not strictly after kill
}

TEST(Cluster, MinLiveGovernorsTracksOverlappingWindows) {
  const auto plan = [](std::size_t v, Round k, Round r) {
    return CrashPlan{v, k, r};
  };

  EXPECT_EQ(min_live_governors({}, 4, 5), 4u);

  // One victim down for rounds [1, 2): never below quorum on 3 governors.
  EXPECT_EQ(min_live_governors({plan(0, 1, 2)}, 3, 3), 2u);
  EXPECT_GE(min_live_governors({plan(0, 1, 2)}, 3, 3), election_quorum(3));

  // Two overlapping windows on 4 governors: round 2 has both victims down
  // (2 live < quorum 3), round 3 has victim 2 back but victim 1 still out.
  const std::vector<CrashPlan> overlap = {plan(1, 2, 4), plan(2, 2, 3)};
  EXPECT_EQ(min_live_governors(overlap, 4, 5), 2u);
  EXPECT_LT(min_live_governors(overlap, 4, 5), election_quorum(4));

  // Disjoint windows never stack: one dead at a time.
  const std::vector<CrashPlan> disjoint = {plan(0, 1, 2), plan(1, 3, 4)};
  EXPECT_EQ(min_live_governors(disjoint, 4, 5), 3u);

  EXPECT_EQ(election_quorum(1), 1u);
  EXPECT_EQ(election_quorum(2), 2u);
  EXPECT_EQ(election_quorum(3), 2u);
  EXPECT_EQ(election_quorum(4), 3u);
  EXPECT_EQ(election_quorum(5), 3u);
}

}  // namespace
}  // namespace repchain::cluster
