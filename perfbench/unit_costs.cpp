// Trace (d): unit costs of the public crypto, ledger, wire and transport
// functions, on inputs shaped by the run (its mean block, its mean upload
// wave). Each cost is the median of several timed batches.

#include <algorithm>
#include <cmath>
#include <functional>

#include "crypto/batch_verify.hpp"
#include "crypto/keygen.hpp"
#include "crypto/merkle.hpp"
#include "crypto/vrf.hpp"
#include "protocol/messages.hpp"
#include "runtime/poll_loop.hpp"
#include "runtime/tcp_transport.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace repchain;

volatile std::size_t g_sink = 0;  // keeps probe results observable

/// Microseconds per call of `op`: five batches of at least `min_batch_s`
/// each, median of the batch means.
double per_call_us(const std::function<void()>& op, double min_batch_s = 0.02) {
  std::vector<double> batches;
  for (int b = 0; b < 5; ++b) {
    std::size_t calls = 0;
    const double t0 = wall_s();
    double elapsed = 0.0;
    do {
      op();
      ++calls;
      elapsed = wall_s() - t0;
    } while (elapsed < min_batch_s);
    batches.push_back(elapsed * 1e6 / static_cast<double>(calls));
  }
  return median(batches);
}

/// Loopback TCP message rate: two TcpTransport endpoints on one PollLoop,
/// a pipelined stream of 256-byte messages (protocol-stack cost, single
/// thread).
double tcp_loopback_msgs_per_s() {
  constexpr std::size_t kMessages = 20'000;
  constexpr std::size_t kBatch = 64;
  runtime::PollLoop loop;
  const crypto::Hash256 genesis = crypto::Sha256::hash(Bytes{7});
  runtime::TcpTransport sender(loop, genesis);
  runtime::TcpTransport receiver(loop, genesis);
  std::size_t received = 0;
  sender.host(NodeId(1));
  receiver.host(NodeId(2), [&](const runtime::Message&) { ++received; });
  sender.connect(receiver.listen(0));
  loop.run_until(loop.now() + 2 * kSecond, [&] { return sender.reaches(NodeId(2)); });
  Rng rng(99);
  const Bytes payload = rng.bytes(256);
  const double t0 = wall_s();
  std::size_t sent = 0;
  while (sent < kMessages) {
    for (std::size_t i = 0; i < kBatch && sent < kMessages; ++i, ++sent) {
      sender.send(NodeId(1), NodeId(2), runtime::MsgKind::kTest, payload);
    }
    loop.run_until(loop.now() + kSecond, [&] { return received + 4 * kBatch >= sent; });
  }
  loop.run_until(loop.now() + 10 * kSecond, [&] { return received == kMessages; });
  if (received != kMessages) throw CheckFailed{"tcp loopback lost messages"};
  return static_cast<double>(received) / (wall_s() - t0);
}

}  // namespace

void add_unit_costs(Metrics& m, const Execution& e, double wave_size_mean) {
  if (!e.mean_block || e.mean_block->txs.empty()) {
    throw CheckFailed{"no block to shape the unit costs"};
  }
  const ledger::Block& block = *e.mean_block;
  Rng rng(4242);

  const crypto::PrivateSeed seed = crypto::random_seed(rng);
  m.add("crypto.keygen_us", per_call_us([&] {
          const crypto::SigningKey k(seed);
          g_sink = g_sink + k.public_key().bytes[0];
        }),
        "us");
  const crypto::SigningKey key(seed);
  const ledger::Transaction& tx = block.txs.front().tx;
  const Bytes msg = tx.signed_preimage();
  const crypto::Signature sig = key.sign(msg);
  m.add("crypto.sign_us", per_call_us([&] { g_sink = g_sink + key.sign(msg).bytes[0]; }), "us");
  m.add("crypto.verify_us",
        per_call_us([&] { g_sink = g_sink + crypto::verify(key.public_key(), msg, sig); }), "us");
  const Bytes alpha = protocol::vrf_alpha(1, GovernorId(0), 0);
  const crypto::VrfResult vrf = crypto::vrf_evaluate(key, alpha);
  m.add("crypto.vrf_evaluate_us",
        per_call_us([&] { g_sink = g_sink + crypto::vrf_evaluate(key, alpha).output[0]; }), "us");
  m.add("crypto.vrf_verify_us", per_call_us([&] {
          g_sink = g_sink + crypto::vrf_verify(key.public_key(), alpha, vrf.proof).has_value();
        }),
        "us");
  std::vector<Bytes> leaves;
  for (const ledger::TxRecord& rec : block.txs) leaves.push_back(rec.encode());
  m.add("crypto.merkle_root_us",
        per_call_us([&] { g_sink = g_sink + crypto::MerkleTree(leaves).root()[0]; }), "us");
  const Bytes encoded = block.encode();
  m.add("crypto.sha256_block_us",
        per_call_us([&] { g_sink = g_sink + crypto::Sha256::hash(encoded)[0]; }), "us");

  // Batch verification at the run's mean intake wave (at least one item).
  const std::size_t wave = std::max<std::size_t>(1, std::lround(wave_size_mean));
  std::vector<crypto::BatchItem> items;
  for (std::size_t i = 0; i < wave; ++i) {
    const crypto::SigningKey k(crypto::random_seed(rng));
    Bytes text = msg;
    text.push_back(static_cast<std::uint8_t>(i));
    items.push_back({k.public_key(), text, k.sign(text)});
  }
  m.add("crypto.verify_batch_us_per_sig",
        per_call_us([&] { g_sink = g_sink + crypto::verify_batch(items, rng); }) /
            static_cast<double>(wave),
        "us");

  m.add("ledger.block_encode_us", per_call_us([&] { g_sink = g_sink + block.encode().size(); }),
        "us");
  m.add("ledger.block_decode_us",
        per_call_us([&] { g_sink = g_sink + ledger::Block::decode(encoded).txs.size(); }), "us");
  m.add("ledger.block_bytes_mean", e.block_bytes_mean, "bytes");

  // Wire frames as the TCP transport sends them: message envelope + frame
  // header on encode, reassembly + envelope decode on the way back.
  const ledger::LabeledTransaction upload =
      ledger::make_labeled(tx, ledger::Label::kValid, CollectorId(0), key);
  const struct {
    const char* name;
    runtime::MsgKind kind;
    Bytes payload;
  } shapes[] = {{"upload", runtime::MsgKind::kCollectorUpload, upload.encode()},
                {"block", runtime::MsgKind::kBlockProposal, encoded}};
  for (const auto& shape : shapes) {
    runtime::Message wire_msg;
    wire_msg.from = NodeId(1);
    wire_msg.to = NodeId(2);
    wire_msg.kind = shape.kind;
    wire_msg.payload = shape.payload;
    const auto frame_type = static_cast<std::uint16_t>(wire::PacketType::kMessage);
    const Bytes frame = wire::encode_frame(frame_type, wire::encode_message(wire_msg));
    m.add(std::string("wire.frame_encode_us.") + shape.name, per_call_us([&] {
            g_sink = g_sink + wire::encode_frame(frame_type, wire::encode_message(wire_msg)).size();
          }),
          "us");
    m.add(std::string("wire.frame_decode_us.") + shape.name, per_call_us([&] {
            wire::FrameReader reader;
            std::vector<wire::Frame> frames;
            reader.feed(frame, frames);
            g_sink = g_sink + wire::decode_message(frames.at(0).payload).payload.size();
          }),
          "us");
  }
  m.add("runtime.tcp_loopback_msgs_per_s", tcp_loopback_msgs_per_s(), "1/s");
}

}  // namespace perfbench
