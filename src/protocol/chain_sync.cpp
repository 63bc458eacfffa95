#include "protocol/chain_sync.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "protocol/messages.hpp"

namespace repchain::protocol {

void ChainSync::start() {
  if (in_flight_) return;
  if (peers_.empty()) {
    // Nobody to ask; whatever is stashed can only settle against the local
    // head.
    finish();
    return;
  }
  in_flight_ = true;
  not_found_ = 0;
  request_block(chain_.height() + 1);
}

void ChainSync::stash(ledger::Block block) {
  future_blocks_.emplace(block.serial, std::move(block));
  start();
}

void ChainSync::note_lying_peer(NodeId peer) {
  distrusted_peers_.insert(peer);
  ++metrics_.lying_sync_rejected;
  const auto offender = directory_.governor_at(peer);
  hooks_.evidence(adversary::ByzantineKind::kLyingSync,
                  offender ? offender->value() : peer.value());
}

void ChainSync::request_block(BlockSerial serial) {
  // Distrusted peers (caught serving invalid or outvoted sync responses) are
  // skipped while any alternative remains; in honest runs the pool is
  // exactly peers_.
  std::vector<NodeId> pool;
  for (const NodeId n : peers_) {
    if (!distrusted_peers_.contains(n)) pool.push_back(n);
  }
  if (pool.empty()) pool = peers_;
  const NodeId peer = pool[(serial + attempts_) % pool.size()];
  BlockRequestMsg req;
  req.serial = serial;
  const std::uint64_t nonce = ++sync_nonce_;
  ctx_.send(peer, runtime::MsgKind::kBlockRequest, req.encode());
  // A lost request or response must not wedge the pass forever: give up on
  // this attempt after a grace window unless a newer request superseded it.
  // Stashed proposals stay stashed — a later pass (watchdog- or
  // proposal-triggered) can still fill the gap below them.
  ctx_.timers().schedule_after(8 * ctx_.delta(), [this, nonce] {
    if (!in_flight_ || nonce != sync_nonce_) return;
    ++metrics_.sync_timeouts;
    ++attempts_;
    in_flight_ = false;
    drain_stash();
    // The restart hold-down depends on a pass eventually succeeding: keep
    // polling (next peer each attempt) while the host asks for it — e.g. a
    // replica that restarted inside a partition can only catch up after the
    // heal, long after its first request died.
    if (hooks_.keep_polling()) start();
  });
}

void ChainSync::on_block_response(const runtime::Message& msg) {
  BlockResponseMsg resp;
  try {
    resp = BlockResponseMsg::decode(msg.payload);
  } catch (const DecodeError&) {
    return;
  }
  if (!in_flight_) return;
  if (resp.serial != chain_.height() + 1) return;  // stale response

  if (!resp.found) {
    // Peer has nothing above our head. Corroborate before concluding the
    // pass: a lone answer may come from a replica exactly as far behind as
    // we are, and a false "caught up" lets a stale replica win an election
    // and fork. Majority agreement (or a timeout ending the pass) decides.
    ++not_found_;
    if (not_found_ >= peers_.size() / 2 + 1) {
      finish();
    } else {
      ++attempts_;  // rotate to the next peer
      request_block(chain_.height() + 1);
    }
    return;
  }

  ledger::Block block;
  bool decoded = true;
  try {
    block = ledger::Block::decode(resp.block);
  } catch (const DecodeError&) {
    decoded = false;
  }
  // Same light-client verification as Provider::on_message: leader must be
  // an enrolled governor, signature must authenticate; append re-checks
  // serial continuity, hash link and tx-root.
  if (decoded) {
    const NodeId leader_node = directory_.node_of(block.leader);
    decoded = im_.authorize(leader_node, identity::Role::kGovernor,
                            block.signed_preimage(), block.leader_sig);
  }
  const bool corroborate = config_.byzantine_defense && peers_.size() > 1;
  if (!decoded) {
    ++metrics_.blocks_rejected;
    if (corroborate) {
      // An unverifiable response marks the server as a liar; retry the same
      // serial against the next peer instead of abandoning the pass.
      note_lying_peer(msg.from);
      ++attempts_;
      request_block(resp.serial);
      return;
    }
    finish();
    return;
  }

  if (corroborate) {
    // Corroborate before adopting: a lying peer can serve a forged block
    // that links perfectly onto our chain (tampered TXList, re-signed by
    // itself as leader), which every local check accepts. Adoption waits
    // until two distinct peers served byte-identical encodings; the losing
    // candidates' servers are distrusted.
    auto& candidates = sync_candidates_[resp.serial];
    auto match = std::find_if(candidates.begin(), candidates.end(),
                              [&](const auto& c) { return c.encoding == resp.block; });
    if (match == candidates.end()) {
      match = candidates.insert(match, SyncCandidate{resp.block, {}});
    }
    match->peers.insert(msg.from);
    if (match->peers.size() < 2) {
      ++attempts_;  // poll another peer for a second opinion
      request_block(resp.serial);
      return;
    }
    for (const auto& cand : candidates) {
      if (cand.encoding == match->encoding) continue;
      for (const NodeId liar : cand.peers) note_lying_peer(liar);
    }
    sync_candidates_.erase(resp.serial);
  }

  if (!hooks_.commit(block, /*via_sync=*/true)) {
    ++metrics_.blocks_rejected;
    finish();
    return;
  }
  not_found_ = 0;  // progress: restart the not-found corroboration
  future_blocks_.erase(block.serial);
  drain_stash();

  // Chain the next request until a peer reports not-found.
  request_block(chain_.height() + 1);
}

void ChainSync::finish() {
  in_flight_ = false;
  hooks_.finished();
  sync_candidates_.clear();
  drain_stash();
  // Stashed proposals still above the head are unadoptable: the gap below
  // them cannot be filled from any peer.
  metrics_.blocks_rejected += future_blocks_.size();
  future_blocks_.clear();
}

void ChainSync::drain_stash() {
  while (!future_blocks_.empty()) {
    const auto it = future_blocks_.begin();
    if (it->first <= chain_.height()) {
      future_blocks_.erase(it);  // arrived via sync in the meantime
      continue;
    }
    if (it->first != chain_.height() + 1) break;
    const ledger::Block block = std::move(it->second);
    future_blocks_.erase(it);
    if (!hooks_.commit(block, /*via_sync=*/false)) {
      // Contiguous serial but bad prev hash / tx root: misbehaviour after all.
      ++metrics_.blocks_rejected;
      hooks_.misbehaved(block);
    }
  }
}

}  // namespace repchain::protocol
