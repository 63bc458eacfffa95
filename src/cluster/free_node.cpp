#include "cluster/free_node.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>

#include "common/errors.hpp"
#include "sim/harness/spec_codec.hpp"
#include "storage/file_state_store.hpp"
#include "wire/codec.hpp"

namespace repchain::cluster {
namespace {

sim::ScenarioConfig free_normalized(sim::ScenarioConfig config) {
  sim::normalize_config(config);
  sim::require_cluster_runnable(config);
  if (!config.reliable_delivery) {
    throw ConfigError(
        "free-running node: reliable_delivery is required (no cross-process "
        "atomic-broadcast sequencer exists off the lockstep plane)");
  }
  return config;
}

std::size_t free_checked_index(const sim::ScenarioConfig& config, std::size_t i) {
  if (i >= config.topology.governors) {
    throw ConfigError("free-running node: governor index " + std::to_string(i) +
                      " out of range (" +
                      std::to_string(config.topology.governors) + " governors)");
  }
  return i;
}

std::unique_ptr<storage::NodeStateStore> free_make_store(const std::string& dir) {
  if (dir.empty()) return nullptr;
  return std::make_unique<storage::FileStateStore>(dir);
}

runtime::TcpTransport::Options mesh_options(const sim::ScenarioConfig& config) {
  runtime::TcpTransport::Options opts;
  opts.max_delay = config.latency.max_delay;
  // A crashed peer's link must heal well inside the ReliableChannel retry
  // ladder, so the re-dial schedule is much tighter than the deployment
  // defaults (rounds are hundreds of milliseconds, not seconds).
  opts.auto_reconnect = true;
  opts.reconnect_base = 25 * kMillisecond;
  opts.reconnect_max = 250 * kMillisecond;
  return opts;
}

std::uint16_t peer_port(std::uint16_t base, std::size_t index) {
  return static_cast<std::uint16_t>(base + index);
}

}  // namespace

void NoBroadcaster::broadcast(NodeId, runtime::MsgKind, const Bytes&) {
  throw NetError(
      "free-running node: atomic broadcast requested — only the reliable "
      "(per-peer channel) paths may run here");
}

void TraceCounters::on_event(const runtime::TraceEvent& ev) {
  switch (ev.kind) {
    case runtime::TraceKind::kRoundStarted:
      ++rounds_started;
      return;
    case runtime::TraceKind::kRoundStalled:
      ++stalled_events;
      std::fprintf(stderr, "free-node: round %llu stalled (%llu consecutive)\n",
                   static_cast<unsigned long long>(ev.round),
                   static_cast<unsigned long long>(ev.arg0));
      return;
    case runtime::TraceKind::kDeliveryFailed:
      ++delivery_failures;
      std::fprintf(stderr,
                   "free-node: reliable delivery exhausted (peer key %llu)\n",
                   static_cast<unsigned long long>(ev.arg0));
      return;
    default:
      return;
  }
}

FreeNodeHost::FreeNodeHost(sim::ScenarioConfig config, std::size_t governor_index,
                           std::uint16_t peer_base, const std::string& state_dir,
                           std::uint32_t incarnation)
    : config_(free_normalized(std::move(config))),
      index_(free_checked_index(config_, governor_index)),
      incarnation_(incarnation),
      genesis_(sim::config_genesis(config_)),
      model_(sim::SystemModel::build(config_, Rng(config_.seed))),
      store_(free_make_store(state_dir)),
      transport_(loop_, genesis_, mesh_options(config_)),
      broadcaster_(model_.directory.governor_nodes()),
      oracle_(config_.validation_cost),
      ctx_(model_.directory.node_of(GovernorId(static_cast<std::uint32_t>(index_))),
           transport_, Rng(config_.seed).derive(2000 + index_), &counters_) {
  const GovernorId id(static_cast<std::uint32_t>(index_));
  ctx_.enable_reliable(incarnation_);
  governor_ = std::make_unique<protocol::Governor>(
      id, ctx_, model_.governor_keys[index_], *model_.im, oracle_,
      model_.directory, broadcaster_, config_.governor, model_.genesis,
      model_.governor_visible[index_], store_.get());
  if (incarnation_ > 0 && store_ != nullptr) {
    // Restarted process: replay snapshot + WAL before joining the mesh; the
    // catch-up sync itself starts when the driver's kFreeStart arrives.
    governor_->recover_from_store();
  }
  if (incarnation_ > 0) transport_.set_resume(incarnation_, head().serial);
  transport_.set_trace_sink(&counters_);
  oracle_.set_miss_hook([this](const ledger::TxId& id) { await_truth(id); });
  // A healed link refreshes the retry budget of every in-flight envelope
  // addressed to the returning peer — without this, a crash window longer
  // than the backoff ladder burns budget against a dead socket.
  transport_.set_reconnect_hook([this](NodeId peer) { ctx_.on_peer_reconnect(peer); });
  // Mesh traffic is handled as it arrives, even before kFreeStart: an upload
  // or argue naming a transaction whose truth the driver has not replayed
  // yet blocks in await_truth until the kRegisterTx frame lands.
  transport_.host(governor_->node(),
                  [this](const runtime::Message& m) { governor_->on_message(m); });
  (void)transport_.listen(peer_port(peer_base, index_));
  // Dial every lower-indexed peer; higher-indexed peers (and the driver)
  // dial us. After a crash both halves heal: our respawn re-dials downward,
  // the survivors' auto-reconnect backoff re-dials our fresh listener.
  for (std::size_t j = 0; j < index_; ++j) transport_.connect(peer_port(peer_base, j));
}

FreeNodeHost::~FreeNodeHost() {
  if (control_fd_ >= 0) ::close(control_fd_);
}

HeadInfo FreeNodeHost::head() const {
  HeadInfo h;
  h.incarnation = incarnation_;
  const ledger::ChainStore& chain = governor_->chain();
  if (chain.empty()) return h;
  h.serial = chain.head().serial;
  h.hash = chain.head_hash();
  for (const ledger::Block& b : chain.blocks()) h.committed_txs += b.txs.size();
  return h;
}

FreeRunStats FreeNodeHost::stats() const {
  FreeRunStats s;
  s.head = head();
  s.current_round = governor_->current_round();
  s.rounds_started = counters_.rounds_started;
  s.stalled_events = counters_.stalled_events;
  s.watchdog_trips = governor_->metrics().watchdog_trips;
  s.delivery_failures = counters_.delivery_failures;
  s.reconnects = transport_.stats().reconnects;
  s.blocks_accepted = governor_->metrics().blocks_accepted;
  s.blocks_synced = governor_->metrics().blocks_synced;
  return s;
}

void FreeNodeHost::send_control(std::uint16_t type, BytesView payload) {
  const Bytes frame = wire::encode_frame(type, payload);
  std::size_t off = 0;
  while (off < frame.size()) {
    const ssize_t n = ::send(control_fd_, frame.data() + off,
                             frame.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Control replies are tiny and the driver drains promptly; a short
        // blocking poll bridges a momentarily full socket buffer.
        pollfd pfd{};
        pfd.fd = control_fd_;
        pfd.events = POLLOUT;
        const int rc = ::poll(&pfd, 1, 5000);
        if (rc > 0) continue;
        throw NetError("free-node control send: driver stopped draining");
      }
      throw NetError(std::string("free-node control send: ") +
                     std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

void FreeNodeHost::handle_control(const wire::Frame& frame) {
  switch (static_cast<ClusterPacket>(frame.type)) {
    case ClusterPacket::kRegisterTx: {
      const RegisterTx reg = decode_register_tx(frame.payload);
      oracle_.register_tx(reg.id, reg.valid);
      return;  // fire-and-forget
    }
    case ClusterPacket::kFreeStart: {
      const FreeStart s = decode_free_start(frame.payload);
      // A returning incarnation starts its chain catch-up before its first
      // self-driven round; survivors answer the sync while they keep
      // committing, and recovery holds announcements until the head checks.
      if (incarnation_ > 0) governor_->sync_chain();
      governor_->drive_rounds(s.first_round, loop_.now() + s.start_delay,
                              model_.timing);
      send_control(static_cast<std::uint16_t>(ClusterPacket::kDone),
                   encode_effects({}));
      return;
    }
    case ClusterPacket::kQueryHead:
      send_control(static_cast<std::uint16_t>(ClusterPacket::kHead),
                   encode_head(head()));
      return;
    case ClusterPacket::kQueryFreeStats:
      send_control(static_cast<std::uint16_t>(ClusterPacket::kFreeStats),
                   encode_free_stats(stats()));
      return;
    case ClusterPacket::kQueryBlockAt: {
      BlockHashInfo info;
      info.serial = decode_block_at(frame.payload);
      if (const auto block = governor_->chain().retrieve(info.serial)) {
        info.found = true;
        info.hash = block->hash();
      }
      send_control(static_cast<std::uint16_t>(ClusterPacket::kBlockHash),
                   encode_block_hash(info));
      return;
    }
    case ClusterPacket::kShutdown:
      send_control(static_cast<std::uint16_t>(ClusterPacket::kDone),
                   encode_effects({}));
      done_ = true;
      return;
    default:
      throw wire::WireError(wire::ProtocolError::kUnknownPacket,
                            "free-running node: packet type " +
                                std::to_string(frame.type));
  }
}

void FreeNodeHost::read_control() {
  std::uint8_t buf[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(control_fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      done_ = true;  // driver went away mid-read
      return;
    }
    if (n == 0) {
      done_ = true;  // driver closed: nothing left to serve
      return;
    }
    std::vector<wire::Frame> frames;
    control_reader_.feed(BytesView(buf, static_cast<std::size_t>(n)), frames);
    for (wire::Frame& frame : frames) control_backlog_.push_back(std::move(frame));
    if (static_cast<std::size_t>(n) < sizeof(buf)) return;
  }
}

void FreeNodeHost::drain_control() {
  while (!control_backlog_.empty() && !done_) {
    const wire::Frame frame = std::move(control_backlog_.front());
    control_backlog_.pop_front();
    handle_control(frame);
  }
}

void FreeNodeHost::on_control_readable() {
  read_control();
  drain_control();
}

void FreeNodeHost::apply_backlogged_truths() {
  std::deque<wire::Frame> rest;
  for (wire::Frame& frame : control_backlog_) {
    if (frame.type == static_cast<std::uint16_t>(ClusterPacket::kRegisterTx)) {
      handle_control(frame);
    } else {
      rest.push_back(std::move(frame));
    }
  }
  control_backlog_.swap(rest);
}

void FreeNodeHost::await_truth(const ledger::TxId& id) {
  if (control_fd_ < 0) return;  // no driver yet: nothing can supply it
  const SimTime deadline = loop_.now() + static_cast<SimTime>(kRpcTimeoutUs);
  apply_backlogged_truths();
  while (!oracle_.is_registered(id) && !done_ && loop_.now() < deadline) {
    pollfd pfd{};
    pfd.fd = control_fd_;
    pfd.events = POLLIN;
    const SimDuration left = deadline - loop_.now();
    const int rc = ::poll(&pfd, 1, static_cast<int>((left + 999) / 1000));
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    read_control();
    apply_backlogged_truths();
  }
  // Frames queued during the wait run after the current handler returns.
  if (!control_backlog_.empty()) {
    loop_.schedule_at(loop_.now(), [this] { drain_control(); });
  }
}

void FreeNodeHost::run(int fd) {
  control_fd_ = fd;

  // Blocking handshake, SyncConn-style but without surrendering fd
  // ownership: the same descriptor continues as a PollLoop watch.
  wire::Welcome local;
  local.genesis = genesis_;
  local.role = wire::Role::kNode;
  local.node_index = static_cast<std::uint32_t>(index_);
  local.hosted = {governor_->node()};
  local.resume = incarnation_ > 0;
  local.incarnation = incarnation_;
  local.head_serial = head().serial;
  send_control(static_cast<std::uint16_t>(wire::PacketType::kWelcome),
               wire::encode_welcome(local));

  std::vector<wire::Frame> frames;
  while (frames.empty()) {
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(control_fd_, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw NetError(std::string("free-node handshake recv: ") +
                     std::strerror(errno));
    }
    if (n == 0) throw NetError("free-node handshake: connection closed");
    control_reader_.feed(BytesView(buf, static_cast<std::size_t>(n)), frames);
  }
  const wire::Frame& first = frames.front();
  if (first.type != static_cast<std::uint16_t>(wire::PacketType::kWelcome)) {
    throw wire::WireError(wire::ProtocolError::kUnexpectedPacket,
                          "free-running node: first packet was not a welcome");
  }
  const wire::Welcome remote = wire::decode_welcome(first.payload);
  (void)wire::check_welcome(remote, genesis_);
  if (remote.role != wire::Role::kDriver) {
    throw wire::WireError(wire::ProtocolError::kBadRole,
                          "free-running node: peer is not a driver");
  }
  const int flags = ::fcntl(control_fd_, F_GETFL, 0);
  (void)::fcntl(control_fd_, F_SETFL, flags | O_NONBLOCK);
  loop_.watch(control_fd_, POLLIN, [this](short) { on_control_readable(); });
  // Anything the driver pipelined behind its welcome is already decoded.
  for (std::size_t i = 1; i < frames.size(); ++i) {
    control_backlog_.push_back(std::move(frames[i]));
  }
  drain_control();

  while (!done_) {
    (void)loop_.run_until(loop_.now() + 100 * kMillisecond,
                          [this] { return done_; });
  }
  loop_.unwatch(control_fd_);
  ::close(control_fd_);
  control_fd_ = -1;
}

}  // namespace repchain::cluster
