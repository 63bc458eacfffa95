// cluster_free: governor processes (the node binary, --free-run) on a
// loopback TCP mesh with file-backed state, observed by
// cluster::FreeRunDriver, which hosts the providers and collectors.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>

#include "cluster/driver.hpp"
#include "cluster/free_run.hpp"
#include "cluster/supervisor.hpp"
#include "common/errors.hpp"
#include "sim/harness/spec_codec.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repchain;
namespace fs = std::filesystem;

/// Reference simulations per run for the simulated-time outcome metrics:
/// 3000+ latency samples, and enough invalid-unchecked records that
/// unchecked_share is not dominated by counting noise.
constexpr std::uint64_t kRefSeeds = 8;

/// Bind a loopback listener; port 0 picks an ephemeral one. Returns -1 when
/// the port is taken.
int bind_loopback(std::uint16_t port, bool reuse) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw NetError(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  if (reuse) (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 16) < 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw NetError(std::string("getsockname: ") + std::strerror(errno));
  }
  return ntohs(addr.sin_port);
}

/// A run of `count` consecutive loopback ports that are free right now (no
/// listener, no TIME_WAIT), below the ephemeral range and away from the
/// fixed --peer-base ports of the cluster ctests (21100, 21200).
std::uint16_t free_peer_base(std::size_t count) {
  std::random_device rd;
  std::uniform_int_distribution<int> pick(22'000, 31'000);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const auto base = static_cast<std::uint16_t>(pick(rd));
    std::vector<int> fds;
    for (std::size_t i = 0; i < count; ++i) {
      const int fd = bind_loopback(static_cast<std::uint16_t>(base + i), false);
      if (fd < 0) break;
      fds.push_back(fd);
    }
    const bool ok = fds.size() == count;
    for (const int fd : fds) ::close(fd);
    if (ok) return base;
  }
  throw NetError("no free run of loopback ports for the peer mesh");
}

/// CPU seconds of an exited, not yet reaped child (its /proc entry stays
/// until the wait); waits up to 5 s for the exit.
double zombie_cpu_s(pid_t pid) {
  const std::string path = "/proc/" + std::to_string(pid) + "/stat";
  for (int i = 0; i < 5000; ++i) {
    std::ifstream in(path);
    std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    const std::size_t close = stat.rfind(')');
    if (close != std::string::npos && close + 2 < stat.size() && stat[close + 2] == 'Z') {
      // Fields after the command: state(3) ... utime(14) stime(15).
      std::istringstream rest(stat.substr(close + 2));
      std::string field;
      double ticks = 0.0;
      for (int f = 3; f <= 15 && rest >> field; ++f) {
        if (f >= 14) ticks += std::stod(field);
      }
      return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return 0.0;
}

/// One cluster session: spawn, admit, run the free-running rounds, reap.
struct Session {
  double setup_s = 0.0;     // spawn + admission + observer mesh dial
  double run_wall_s = 0.0;  // FreeRunDriver::run
  double node_cpu_s = 0.0;  // summed over the node processes
  double node_cpu_s_max = 0.0;
  std::uint64_t submitted = 0;
  cluster::FreeRunReport report;
};

Session run_session(const sim::ScenarioConfig& config, const Options& opts,
                    const std::string& name) {
  const fs::path dir = fs::path(opts.work_dir) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string blob = (dir / "config.bin").string();
  {
    const Bytes encoded = sim::encode_config(config);
    std::ofstream out(blob, std::ios::binary);
    out.write(reinterpret_cast<const char*>(encoded.data()),
              static_cast<std::streamsize>(encoded.size()));
  }
  sim::ScenarioConfig normalized = config;
  sim::normalize_config(normalized);
  const crypto::Hash256 genesis = sim::config_genesis(normalized);
  const std::size_t governors = normalized.topology.governors;

  Session out;
  const int listen_fd = bind_loopback(0, true);
  if (listen_fd < 0) throw NetError("cannot bind the control listener");
  const std::uint16_t peer_base = free_peer_base(governors);
  const double cpu0 = children_cpu_s();
  {
    cluster::ProcessSupervisor::Options sopts;
    sopts.node_bin = opts.node_bin;
    sopts.config_blob = blob;
    sopts.port = bound_port(listen_fd);
    sopts.state_root = (dir / "state").string();
    sopts.log_dir = (dir / "logs").string();
    sopts.extra_args = {"--free-run", "--peer-base=" + std::to_string(peer_base)};

    const double t0 = wall_s();
    cluster::ProcessSupervisor sup(sopts, governors);
    for (std::size_t i = 0; i < governors; ++i) sup.spawn(i);
    std::vector<std::unique_ptr<cluster::SyncConn>> conns(governors);
    const wire::Welcome local = cluster::driver_welcome(genesis);
    for (std::size_t admitted = 0; admitted < governors; ++admitted) {
      wire::Welcome remote;
      auto conn = cluster::admit_node(listen_fd, local, genesis, governors, 15'000, &remote);
      if (conns.at(remote.node_index) != nullptr) {
        throw CheckFailed{"governor " + std::to_string(remote.node_index) + " admitted twice"};
      }
      conns[remote.node_index] = std::move(conn);
    }
    cluster::FreeRunDriver::Options fopts;
    fopts.peer_base = peer_base;
    cluster::FreeRunDriver driver(config, std::move(conns), fopts);
    out.setup_s = wall_s() - t0;

    const double t1 = wall_s();
    out.report = driver.run();
    out.run_wall_s = wall_s() - t1;
    ::close(listen_fd);
    for (std::size_t i = 0; i < governors; ++i) {
      const double cpu = zombie_cpu_s(sup.pid(i));
      out.node_cpu_s_max = std::max(out.node_cpu_s_max, cpu);
      const int status = sup.wait_exit(i);
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw CheckFailed{"node " + std::to_string(i) + " exited abnormally (status " +
                          std::to_string(status) + ")"};
      }
    }
  }
  out.node_cpu_s = children_cpu_s() - cpu0;
  out.submitted = out.report.rounds_run * normalized.topology.providers *
                  normalized.txs_per_provider_per_round;
  if (!out.report.ok()) {
    throw CheckFailed{"free-run contract failed: converged=" +
                      std::to_string(out.report.converged) +
                      " prefix=" + std::to_string(out.report.prefix_ok) +
                      " monotone=" + std::to_string(out.report.monotone_ok) +
                      " txs_in_tolerance=" + std::to_string(out.report.txs_in_tolerance)};
  }
  fs::remove_all(dir);
  return out;
}

}  // namespace

void add_cluster_placeholders(Metrics& m) {
  for (const char* name : {"cluster.spawn_s", "cluster.node_cpu_s_max"}) m.add(name, 0.0, "s");
  for (const char* name : {"cluster.rounds_run", "cluster.reconnects",
                           "cluster.delivery_failures", "cluster.stalled_events",
                           "cluster.blocks_synced"}) {
    m.add(name, 0.0, "count");
  }
}

void run_cluster(const Options& opts, Result& res) {
  const sim::ScenarioConfig config = plan_for("cluster_free", opts.seed).config;
  std::vector<SimPlan> refs;
  for (std::uint64_t k = 0; k < kRefSeeds; ++k) {
    refs.push_back(plan_for("cluster_free", sub_seed(opts.seed, k)));
  }

  if (opts.trace) {
    const Session s = run_session(config, opts, "traced");
    res.attempted += s.submitted;
    add_traced_sim_metrics(res, refs);
    // add_traced_sim_metrics added zero cluster metrics; fill them in.
    res.metrics.set("cluster.spawn_s", s.setup_s);
    res.metrics.set("cluster.node_cpu_s_max", s.node_cpu_s_max);
    res.metrics.set("cluster.rounds_run", static_cast<double>(s.report.rounds_run));
    double reconnects = 0, failures = 0, stalled = 0, synced = 0;
    for (const cluster::FreeRunStats& n : s.report.node_stats) {
      reconnects += static_cast<double>(n.reconnects);
      failures += static_cast<double>(n.delivery_failures);
      stalled += static_cast<double>(n.stalled_events);
      synced += static_cast<double>(n.blocks_synced);
    }
    res.metrics.set("cluster.reconnects", reconnects);
    res.metrics.set("cluster.delivery_failures", failures);
    res.metrics.set("cluster.stalled_events", stalled);
    res.metrics.set("cluster.blocks_synced", synced);
    return;
  }

  // Simulated-time outcomes come from the in-process reference runs of the
  // same derived config (the runs the free-run contract is checked
  // against): the node processes do not expose per-transaction commits.
  // The budget covers them and the sessions; another session starts only
  // when it should end within the budget, and at least one runs.
  const double deadline = wall_s() + opts.seconds;
  std::vector<Execution> ref_runs;
  for (const SimPlan& p : refs) {
    ref_runs.push_back(execute(p, nullptr));
    check_execution(ref_runs.back(), "reference seed " + std::to_string(p.config.seed));
  }

  std::vector<double> setup, rate, cpu;
  double last = 0.0;
  int n = 0;
  do {
    const double t = wall_s();
    const Session s = run_session(config, opts, "session" + std::to_string(n++));
    last = wall_s() - t;
    setup.push_back(s.setup_s);
    rate.push_back(static_cast<double>(s.report.committed_txs) / s.run_wall_s);
    cpu.push_back(s.node_cpu_s * 1e6 / static_cast<double>(s.report.committed_txs));
    res.attempted += s.submitted;
    std::printf("# session %d: setup %.4fs run %.4fs committed %llu rounds %u node cpu %.4fs\n",
                n, s.setup_s, s.run_wall_s,
                static_cast<unsigned long long>(s.report.committed_txs),
                static_cast<unsigned>(s.report.rounds_run), s.node_cpu_s);
  } while (wall_s() + last < deadline);
  res.metrics.add("committed_tx_per_s", median(rate), "tx/s");
  res.metrics.add("cpu_us_per_committed_tx", median(cpu), "us");
  add_outcome_metrics(res.metrics, ref_runs);
  res.metrics.add("setup_s", median(setup), "s");
  res.metrics.add("peak_rss_mb", children_peak_rss_mb(), "MiB");
}

}  // namespace perfbench
