// Recovery-path costs of the storage subsystem: how the durable footprint
// (WAL vs snapshot bytes) and the crash-restart cost grow with chain height
// and snapshot cadence. For each point we run a full fixed-seed scenario
// with durable governors, then kill governor 0 after the last round and
// time its rebuild — recover_from_store (snapshot restore + WAL tail
// replay + chain audit) plus the peer catch-up sync — in wall-clock and in
// simulated rejoin latency.
//
// Expected shape: with snapshot_interval = 1 the snapshot dominates and
// recovery wall time stays flat in height; with snapshots off the WAL grows
// linearly and replay time with it. Rejoin latency is a few network RTTs
// regardless (the restarted replica is only syncing, not re-executing).

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "bench_util.hpp"
#include "cluster/driver.hpp"
#include "cluster/free_run.hpp"
#include "cluster/supervisor.hpp"
#include "sim/harness/spec_codec.hpp"
#include "sim/scenario.hpp"

namespace {

using namespace repchain;
using repchain::bench::fmt;
using repchain::bench::Table;

sim::ScenarioConfig base_config(std::size_t rounds, std::size_t snapshot_interval) {
  sim::ScenarioConfig cfg;
  cfg.topology = {8, 4, 3, 2};
  cfg.rounds = rounds;
  cfg.txs_per_provider_per_round = 3;
  cfg.p_valid = 0.8;
  cfg.behaviors = {protocol::CollectorBehavior::honest(),
                   protocol::CollectorBehavior::noisy(0.85)};
  cfg.durable_governors = true;
  cfg.governor.snapshot_interval = snapshot_interval;
  cfg.seed = 31;
  return cfg;
}

struct Point {
  std::size_t rounds = 0;
  std::size_t snapshot_interval = 0;
  std::uint64_t height = 0;
  std::size_t wal_bytes = 0;
  std::size_t snapshot_bytes = 0;
  double recover_ms = 0.0;     // wall-clock: recover_from_store + sync_chain
  double rejoin_sim_ms = 0.0;  // simulated time until the sync settles
  std::uint64_t blocks_synced = 0;
};

/// Run the scenario to completion, then crash + restart governor 0 and
/// measure the recovery. `dir` empty => in-memory store backend.
Point measure(std::size_t rounds, std::size_t snapshot_interval,
              const std::filesystem::path& dir) {
  sim::ScenarioConfig cfg = base_config(rounds, snapshot_interval);
  cfg.storage_dir = dir;
  sim::Scenario s(cfg);
  s.run();

  Point p;
  p.rounds = rounds;
  p.snapshot_interval = snapshot_interval;
  p.wal_bytes = s.governor_store(0)->wal_bytes();
  p.snapshot_bytes = s.governor_store(0)->snapshot_bytes();

  s.crash_governor(0);
  const auto t0 = std::chrono::steady_clock::now();
  s.restart_governor(0);
  p.recover_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  const SimTime sim0 = s.queue().now();
  s.queue().run();  // let the catch-up sync settle
  p.rejoin_sim_ms =
      static_cast<double>(s.queue().now() - sim0) / static_cast<double>(kMillisecond);
  p.height = s.governor(0).chain().height();
  p.blocks_synced = s.governor(0).metrics().blocks_synced;
  return p;
}

void sweep(bench::JsonReport& json) {
  bench::section("recovery cost vs chain height and snapshot cadence (in-memory store)");
  Table table({"rounds", "snap_every", "height", "wal_B", "snap_B", "recover_ms",
               "rejoin_sim_ms"});
  table.print_header();
  for (std::size_t interval : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    for (std::size_t rounds : {std::size_t{4}, std::size_t{8}, std::size_t{16},
                               std::size_t{32}}) {
      const Point p = measure(rounds, interval, {});
      table.row({std::to_string(p.rounds),
                 interval == 0 ? "never" : std::to_string(interval),
                 std::to_string(p.height), std::to_string(p.wal_bytes),
                 std::to_string(p.snapshot_bytes), fmt(p.recover_ms, 3),
                 fmt(p.rejoin_sim_ms, 1)});
      json.row("height_sweep",
               {{"rounds", bench::ju(p.rounds)},
                {"snapshot_interval", bench::ju(p.snapshot_interval)},
                {"height", bench::ju(p.height)},
                {"wal_bytes", bench::ju(p.wal_bytes)},
                {"snapshot_bytes", bench::ju(p.snapshot_bytes)},
                {"recover_wall_ms", bench::jf(p.recover_ms, 4)},
                {"rejoin_sim_ms", bench::jf(p.rejoin_sim_ms, 2)},
                {"blocks_synced", bench::ju(p.blocks_synced)}});
    }
  }
}

void file_backed(bench::JsonReport& json) {
  bench::section("file-backed store (fsync + rename on the real filesystem)");
  const auto dir = std::filesystem::temp_directory_path() / "repchain_bench_recovery";
  Table table({"rounds", "snap_every", "wal_B", "snap_B", "recover_ms"});
  table.print_header();
  for (std::size_t rounds : {std::size_t{8}, std::size_t{32}}) {
    std::filesystem::remove_all(dir);
    const Point p = measure(rounds, 4, dir);
    table.row({std::to_string(p.rounds), "4", std::to_string(p.wal_bytes),
               std::to_string(p.snapshot_bytes), fmt(p.recover_ms, 3)});
    json.row("file_backed",
             {{"rounds", bench::ju(p.rounds)},
              {"snapshot_interval", bench::ju(p.snapshot_interval)},
              {"height", bench::ju(p.height)},
              {"wal_bytes", bench::ju(p.wal_bytes)},
              {"snapshot_bytes", bench::ju(p.snapshot_bytes)},
              {"recover_wall_ms", bench::jf(p.recover_ms, 4)}});
  }
  std::filesystem::remove_all(dir);
}

// --- live-cluster crash schedules ----------------------------------------

/// Directory of this binary, for locating the sibling tools/node build.
std::filesystem::path self_dir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::filesystem::path(buf).parent_path();
}

int listen_ephemeral(std::uint16_t& port_out) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError(std::string("socket: ") + std::strerror(errno));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    throw NetError(std::string("bind/listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_out = ntohs(addr.sin_port);
  return fd;
}

/// Free-running multi-crash cost: nodes self-drive rounds on real clocks
/// over the peer mesh while overlapping victims die and return. The single
/// crash keeps quorum; the double crash drops the 3-governor committee to a
/// lone survivor, so the series also prices the quorum-loss stall window
/// (watchdog span) against the post-respawn recovery rounds.
void free_run_multi_crash(bench::JsonReport& json) {
  bench::section("free-running cluster, overlapping crash schedules");
  const std::filesystem::path node_bin = self_dir() / ".." / "tools" / "node";
  if (!std::filesystem::exists(node_bin)) {
    std::printf("  tools/node not built — skipping the free-run section\n");
    return;
  }

  struct Series {
    const char* name;
    std::vector<cluster::CrashPlan> plans;
  };
  const std::vector<Series> series = {
      {"single_crash", {cluster::CrashPlan{1, 2, 4}}},
      // Victims 1 and 2 overlap in round 2: 1 of 3 alive < quorum 2.
      {"quorum_breaking", {cluster::CrashPlan{1, 2, 4},
                           cluster::CrashPlan{2, 2, 3}}},
  };

  Table table({"schedule", "min_live", "quorum_lost", "stalls", "stall_ms",
               "recover_rounds", "attempts", "wall_ms"});
  table.print_header();
  std::uint16_t peer_base = 23100;
  for (const Series& sr : series) {
    sim::ScenarioConfig cfg = cluster::free_run_config(base_config(6, 2));
    cfg.durable_governors = false;  // the node processes persist themselves
    sim::normalize_config(cfg);
    const std::size_t governors = cfg.topology.governors;
    cluster::validate_crash_plans(sr.plans, governors, cfg.rounds);
    const std::size_t min_live =
        cluster::min_live_governors(sr.plans, governors, cfg.rounds);

    const auto scratch =
        std::filesystem::temp_directory_path() /
        ("repchain_bench_free_" + std::to_string(::getpid()) + "_" + sr.name);
    std::filesystem::remove_all(scratch);
    std::filesystem::create_directories(scratch);
    const auto blob_path = scratch / "config.blob";
    {
      const Bytes blob = sim::encode_config(cfg);
      std::ofstream out(blob_path, std::ios::binary);
      out.write(reinterpret_cast<const char*>(blob.data()),
                static_cast<std::streamsize>(blob.size()));
    }

    std::uint16_t port = 0;
    const int listen_fd = listen_ephemeral(port);
    cluster::ProcessSupervisor::Options sopts;
    sopts.node_bin = node_bin.string();
    sopts.config_blob = blob_path.string();
    sopts.port = port;
    sopts.state_root = (scratch / "state").string();
    sopts.log_dir = (scratch / "logs").string();
    sopts.extra_args = {"--free-run", "--peer-base=" + std::to_string(peer_base)};
    cluster::ProcessSupervisor sup(sopts, governors);
    for (std::size_t i = 0; i < governors; ++i) sup.spawn(i);

    std::vector<std::unique_ptr<cluster::SyncConn>> conns(governors);
    const wire::Welcome local = cluster::driver_welcome(sim::config_genesis(cfg));
    for (std::size_t admitted = 0; admitted < governors; ++admitted) {
      wire::Welcome remote;
      auto conn = cluster::admit_node(listen_fd, local, sim::config_genesis(cfg),
                                      governors, 15'000, &remote);
      conns[remote.node_index] = std::move(conn);
    }

    cluster::FreeRunDriver::Options fopts;
    fopts.peer_base = peer_base;
    cluster::FreeRunDriver driver(cfg, std::move(conns), fopts);
    driver.set_supervision(
        sr.plans, [&sup](std::size_t i) { sup.kill(i); },
        [&](std::size_t i, std::uint32_t incarnation) {
          sup.spawn(i, incarnation);
          return cluster::admit_node(listen_fd, local, sim::config_genesis(cfg),
                                     governors, 15'000);
        });
    const auto t0 = std::chrono::steady_clock::now();
    const cluster::FreeRunReport r = driver.run();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count();
    ::close(listen_fd);
    for (std::size_t i = 0; i < governors; ++i) (void)sup.wait_exit(i);
    std::filesystem::remove_all(scratch);
    peer_base = static_cast<std::uint16_t>(peer_base + 64);

    const cluster::DegradationReport& d = r.degradation;
    const double stall_ms =
        d.stalled_events == 0
            ? 0.0
            : static_cast<double>(d.stall_last - d.stall_first) /
                  static_cast<double>(kMillisecond);
    table.row({sr.name, std::to_string(d.min_live),
               d.quorum_lost ? "yes" : "no", std::to_string(d.stalled_events),
               fmt(stall_ms, 1), std::to_string(d.rounds_to_recover),
               std::to_string(r.restart_attempts), fmt(wall_ms, 1)});
    json.row("free_run_multi_crash",
             {{"schedule", bench::js(sr.name)},
              {"victims", bench::ju(sr.plans.size())},
              {"predicted_min_live", bench::ju(min_live)},
              {"observed_min_live", bench::ju(d.min_live)},
              {"quorum_lost", d.quorum_lost ? "true" : "false"},
              {"contract_ok", r.ok() ? "true" : "false"},
              {"stalled_events", bench::ju(d.stalled_events)},
              {"stall_span_ms", bench::jf(stall_ms, 2)},
              {"rounds_to_recover", bench::ju(d.rounds_to_recover)},
              {"restart_attempts", bench::ju(r.restart_attempts)},
              {"rounds_run", bench::ju(r.rounds_run)},
              {"head_serial", bench::ju(r.head_serial)},
              {"committed_txs", bench::ju(r.committed_txs)},
              {"wall_ms", bench::jf(wall_ms, 2)}});
  }
}

}  // namespace

int main() {
  std::printf("bench_recovery — durable footprint and crash-restart cost\n");
  bench::JsonReport json("recovery", 31);
  sweep(json);
  file_backed(json);
  free_run_multi_crash(json);
  json.write();
  return 0;
}
