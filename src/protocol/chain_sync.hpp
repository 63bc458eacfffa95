#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "adversary/byzantine.hpp"
#include "identity/identity_manager.hpp"
#include "ledger/chain.hpp"
#include "protocol/directory.hpp"
#include "protocol/governor_types.hpp"
#include "runtime/node_context.hpp"

namespace repchain::protocol {

/// A governor's catch-up sync (the provider light-client sync, reused
/// node-to-node): a pass requests the blocks above the local head one serial
/// at a time, rotating over the peer governors, until a majority of peers
/// report nothing further or a request times out. Current-leader proposals
/// from above head + 1 are stashed meanwhile, committed once the gap below
/// them closes, and rejected if the pass ends with the gap still open. With
/// the byzantine defense on and more than one peer, a synced block is
/// committed only once two distinct peers served byte-identical encodings;
/// the servers of losing candidates and of unverifiable responses are
/// distrusted and skipped by later rotations.
class ChainSync {
 public:
  /// What the host governor decides; ChainSync only reads the chain.
  struct Hooks {
    /// Append and commit `block` on top of the head; false if refused.
    std::function<bool(const ledger::Block&, bool via_sync)> commit;
    /// A contiguous stashed proposal was refused: its leader misbehaved.
    std::function<void(const ledger::Block&)> misbehaved;
    /// A pass concluded; fires before the stash is settled.
    std::function<void()> finished;
    /// After a timed-out attempt: true polls the next peer.
    std::function<bool()> keep_polling;
    std::function<void(adversary::ByzantineKind, std::uint64_t offender)> evidence;
  };

  ChainSync(runtime::NodeContext& ctx, const ledger::ChainStore& chain,
            const identity::IdentityManager& im, const Directory& directory,
            GovernorMetrics& metrics, const GovernorConfig& config,
            const std::vector<NodeId>& peers, Hooks hooks)
      : ctx_(ctx), chain_(chain), im_(im), directory_(directory), metrics_(metrics),
        config_(config), peers_(peers), hooks_(std::move(hooks)) {}

  // Request timers capture `this`.
  ChainSync(const ChainSync&) = delete;
  ChainSync& operator=(const ChainSync&) = delete;

  /// Start a pass; no-op while one is in flight. Without peers the stash
  /// settles against the local head at once.
  void start();
  /// Hold an authenticated current-leader proposal from above head + 1 and
  /// start a pass to fill the gap below it.
  void stash(ledger::Block block);
  /// A kBlockResponse delivery.
  void on_block_response(const runtime::Message& msg);
  /// Restore path: drop the stash and forget the pass in flight.
  void clear() {
    future_blocks_.clear();
    in_flight_ = false;
  }

 private:
  struct SyncCandidate {
    Bytes encoding;
    std::set<NodeId> peers;
  };

  /// Ask a peer for block `serial` (round-robin over trusted peers).
  void request_block(BlockSerial serial);
  /// The pass ended (caught up or failed): settle the stash.
  void finish();
  /// Commit stashed proposals that have become contiguous with the head.
  void drain_stash();
  void note_lying_peer(NodeId peer);

  runtime::NodeContext& ctx_;
  const ledger::ChainStore& chain_;
  const identity::IdentityManager& im_;
  const Directory& directory_;
  GovernorMetrics& metrics_;
  const GovernorConfig& config_;
  const std::vector<NodeId>& peers_;  // the other governors' nodes
  Hooks hooks_;

  bool in_flight_ = false;
  std::uint64_t sync_nonce_ = 0;  // guards the per-request timeout timers
  std::uint64_t attempts_ = 0;    // rotates the polled peer across retries
  // Peers that reported nothing above our head in this pass. One such answer
  // is no proof of being caught up (the peer may be exactly as far behind,
  // e.g. our partition island mate); a majority must agree.
  std::size_t not_found_ = 0;
  std::map<BlockSerial, std::vector<SyncCandidate>> sync_candidates_;
  std::set<NodeId> distrusted_peers_;
  std::map<BlockSerial, ledger::Block> future_blocks_;  // the stash
};

}  // namespace repchain::protocol
