#pragma once

// Process supervision for live clusters: fork/exec of `node` processes with
// per-node persisted state directories, SIGKILL mid-run, respawn as a
// higher incarnation, and bounded-wait admission (accept + handshake with a
// deadline). Shared by the cluster_driver tool's free-running mode,
// bench_recovery's free_run_multi_crash series and the repository
// benchmark; the FreeRunDriver supervision callbacks (KillFn/RespawnFn) are
// thin lambdas over this class.

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/sync_conn.hpp"
#include "crypto/sha256.hpp"
#include "wire/codec.hpp"

namespace repchain::cluster {

class ProcessSupervisor {
 public:
  struct Options {
    std::string node_bin;     // path to the node binary
    std::string config_blob;  // path to the encoded ScenarioConfig
    std::uint16_t port = 0;   // where nodes dial the driver (or the proxy)
    /// Non-empty: per-node state directories <state_root>/node<i> are
    /// passed as --state-dir so chains survive a SIGKILL (free-running
    /// nodes only: `node` rejects --state-dir without --free-run).
    std::string state_root;
    /// Non-empty: each child's stderr is appended to <log_dir>/node<i>.log
    /// (an artifact CI uploads on failure).
    std::string log_dir;
    /// Extra argv entries appended to every spawn (e.g. --free-run,
    /// --peer-base=<port> for free-running nodes).
    std::vector<std::string> extra_args;
  };

  /// Lifecycle observations across the run.
  struct Report {
    /// Victims found already dead when kill() went to SIGKILL them: the
    /// child exited on its own (crash, exec failure) during the wait
    /// window, so the "kill" would otherwise be reported as a success it
    /// never was.
    std::uint32_t spontaneous_exits = 0;
  };

  ProcessSupervisor(Options opts, std::size_t nodes);
  /// SIGKILLs and reaps any children still running.
  ~ProcessSupervisor();

  ProcessSupervisor(const ProcessSupervisor&) = delete;
  ProcessSupervisor& operator=(const ProcessSupervisor&) = delete;

  /// Fork/exec governor `index` as `incarnation` (0 = first life). Throws
  /// NetError on fork failure.
  void spawn(std::size_t index, std::uint32_t incarnation = 0);

  /// SIGKILL + reap. No-op when the child is already gone. A victim that
  /// already exited on its own is reaped, logged and counted in
  /// report().spontaneous_exits instead of being treated as a kill.
  void kill(std::size_t index);

  /// Reap a child expected to exit on its own; returns its wait status.
  int wait_exit(std::size_t index);

  [[nodiscard]] pid_t pid(std::size_t index) const { return pids_[index]; }
  [[nodiscard]] const std::string& state_dir(std::size_t index) const {
    return state_dirs_[index];
  }
  [[nodiscard]] const Report& report() const { return report_; }

 private:
  Options opts_;
  std::vector<pid_t> pids_;
  std::vector<std::string> state_dirs_;
  Report report_;
};

/// Accept one node connection on `listen_fd` within `timeout_ms` (poll(2)
/// bounded), run the driver handshake against `genesis`, and verify the
/// peer is a node with an index below `governors`. Returns the admitted
/// connection; the peer's welcome (index, resume fields) lands in
/// `welcome_out` when non-null. Throws WireError(kPeerTimeout) when nothing
/// dials in time.
[[nodiscard]] std::unique_ptr<SyncConn> admit_node(
    int listen_fd, const wire::Welcome& local, const crypto::Hash256& genesis,
    std::size_t governors, int timeout_ms, wire::Welcome* welcome_out = nullptr);

}  // namespace repchain::cluster
