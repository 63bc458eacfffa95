// Storage-layer contracts: CRC-framed WAL scanning (torn tails vs genuine
// corruption), snapshot envelope integrity, and the MemoryStateStore /
// FileStateStore backends — including the crash artifacts a kill -9 can
// leave behind (partial tail frames, leftover snapshot.tmp, stale WAL after
// a snapshot rename). The invariant under test: no crash point between a
// wal_append and a snapshot rename may yield a store whose recovered chain
// fails ChainStore::audit().
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "common/serial.hpp"
#include "crypto/keygen.hpp"
#include "ledger/block.hpp"
#include "ledger/chain.hpp"
#include "storage/crc32.hpp"
#include "storage/file_state_store.hpp"
#include "storage/node_state_store.hpp"
#include "storage/wal_format.hpp"

namespace repchain::storage {
namespace {

Bytes payload(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

/// Fresh scratch directory under the system temp dir, removed on scope exit.
struct ScratchDir {
  explicit ScratchDir(const char* tag)
      : path(std::filesystem::temp_directory_path() /
             (std::string("repchain_store_") + tag)) {
    std::filesystem::remove_all(path);
  }
  ~ScratchDir() { std::filesystem::remove_all(path); }
  std::filesystem::path path;
};

/// Builds signed blocks so WAL records can be replayed into a ChainStore.
struct BlockFactory {
  BlockFactory() : rng(31337), provider_key(crypto::random_seed(rng)),
                   leader_key(crypto::random_seed(rng)) {}

  ledger::Block make(BlockSerial serial, const crypto::Hash256& prev) {
    std::vector<ledger::TxRecord> txs;
    for (std::size_t i = 0; i < 2; ++i) {
      ledger::TxRecord rec;
      rec.tx = ledger::make_transaction(ProviderId(1), serial * 100 + i,
                                        serial, to_bytes("p"), provider_key);
      rec.label = ledger::Label::kValid;
      rec.status = ledger::TxStatus::kCheckedValid;
      txs.push_back(std::move(rec));
    }
    return ledger::make_block(serial, serial, prev, GovernorId(0),
                              std::move(txs), leader_key);
  }

  Rng rng;
  crypto::SigningKey provider_key;
  crypto::SigningKey leader_key;
};

// --- CRC ---------------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  const Bytes check = to_bytes("123456789");
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32(Bytes{}), 0u);
}

TEST(Crc32, SensitiveToEveryByte) {
  Bytes data = to_bytes("the quick brown fox");
  const std::uint32_t base = crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 0x01;
    EXPECT_NE(crc32(data), base) << "flip at " << i;
    data[i] ^= 0x01;
  }
}

// --- WAL framing -------------------------------------------------------------

TEST(WalFormat, RoundTripPreservesOrder) {
  Bytes wal;
  const std::vector<Bytes> records = {payload({1, 2, 3}), payload({}),
                                      payload({0xff}), to_bytes("block-4")};
  for (const Bytes& r : records) append_frame(wal, r);

  const WalScan scan = scan_wal(wal);
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.clean_bytes, wal.size());
  ASSERT_EQ(scan.records.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(scan.records[i], records[i]) << i;
  }
}

TEST(WalFormat, EmptyLogIsClean) {
  const WalScan scan = scan_wal(Bytes{});
  EXPECT_TRUE(scan.records.empty());
  EXPECT_EQ(scan.clean_bytes, 0u);
  EXPECT_FALSE(scan.torn_tail);
}

TEST(WalFormat, EveryTruncationPointRecoversCleanPrefix) {
  // A crash can cut the log at any byte. Whatever the cut, scanning must
  // return exactly the records whose frames fit the prefix, flag the torn
  // tail, and report clean_bytes at the last frame boundary.
  Bytes wal;
  std::vector<std::size_t> boundaries = {0};
  for (std::uint8_t i = 1; i <= 4; ++i) {
    append_frame(wal, payload({i, i, i}));
    boundaries.push_back(wal.size());
  }
  for (std::size_t cut = 0; cut <= wal.size(); ++cut) {
    const Bytes prefix(wal.begin(), wal.begin() + static_cast<long>(cut));
    const WalScan scan = scan_wal(prefix);
    std::size_t complete = 0;
    while (complete + 1 < boundaries.size() && boundaries[complete + 1] <= cut) {
      ++complete;
    }
    EXPECT_EQ(scan.records.size(), complete) << "cut at " << cut;
    EXPECT_EQ(scan.clean_bytes, boundaries[complete]) << "cut at " << cut;
    EXPECT_EQ(scan.torn_tail, cut != boundaries[complete]) << "cut at " << cut;
  }
}

TEST(WalFormat, CompleteFrameCrcMismatchThrows) {
  Bytes wal;
  append_frame(wal, to_bytes("first"));
  append_frame(wal, to_bytes("second"));
  // Flip a payload byte of the *first* (complete, non-tail) frame: that is
  // corruption, not a torn write, and must refuse to load.
  wal[9] ^= 0x01;
  EXPECT_THROW((void)scan_wal(wal), ProtocolError);
}

TEST(WalFormat, TornTailRecordsReplayIntoAuditableChain) {
  // End-to-end: blocks appended to a WAL, log cut mid-frame, survivors
  // replayed into a ChainStore — the result must always pass audit().
  BlockFactory f;
  ledger::ChainStore chain;
  Bytes wal;
  for (BlockSerial s = 1; s <= 3; ++s) {
    const ledger::Block b = f.make(s, chain.head_hash());
    chain.append(b);
    append_frame(wal, b.encode());
  }
  // Cut in the middle of the last frame.
  const Bytes torn(wal.begin(), wal.begin() + static_cast<long>(wal.size() - 7));
  const WalScan scan = scan_wal(torn);
  EXPECT_TRUE(scan.torn_tail);
  ASSERT_EQ(scan.records.size(), 2u);

  ledger::ChainStore recovered;
  for (const Bytes& rec : scan.records) {
    recovered.append(ledger::Block::decode(rec));
  }
  EXPECT_TRUE(recovered.audit());
  EXPECT_TRUE(ledger::ChainStore::same_prefix(chain, recovered));
}

// --- Snapshot envelope -------------------------------------------------------

TEST(SnapshotFormat, RoundTrip) {
  const Bytes body = to_bytes("governor checkpoint bytes");
  EXPECT_EQ(decode_snapshot(encode_snapshot(body)), body);
  EXPECT_EQ(decode_snapshot(encode_snapshot(Bytes{})), Bytes{});
}

TEST(SnapshotFormat, EveryByteFlipRejected) {
  const Bytes image = encode_snapshot(to_bytes("checkpoint"));
  for (std::size_t i = 0; i < image.size(); ++i) {
    Bytes bad = image;
    bad[i] ^= 0x01;
    EXPECT_THROW((void)decode_snapshot(bad), DecodeError) << "flip at " << i;
  }
}

TEST(SnapshotFormat, TruncationRejected) {
  const Bytes image = encode_snapshot(to_bytes("checkpoint"));
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    const Bytes prefix(image.begin(), image.begin() + static_cast<long>(cut));
    EXPECT_THROW((void)decode_snapshot(prefix), DecodeError) << "cut at " << cut;
  }
}

TEST(SnapshotFormat, TrailingGarbageRejected) {
  Bytes image = encode_snapshot(to_bytes("checkpoint"));
  image.push_back(0x00);
  EXPECT_THROW((void)decode_snapshot(image), DecodeError);
}

// --- MemoryStateStore --------------------------------------------------------

TEST(MemoryStateStore, WalAppendAndSnapshotContract) {
  MemoryStateStore store;
  EXPECT_EQ(store.wal_bytes(), 0u);
  EXPECT_EQ(store.snapshot_bytes(), 0u);
  EXPECT_FALSE(store.load_snapshot().has_value());

  store.wal_append(to_bytes("a"));
  store.wal_append(to_bytes("bb"));
  const auto records = store.wal_records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], to_bytes("a"));
  EXPECT_EQ(records[1], to_bytes("bb"));
  EXPECT_GT(store.wal_bytes(), 0u);

  store.write_snapshot(to_bytes("snap"));
  EXPECT_EQ(store.wal_bytes(), 0u);  // snapshot truncates the log
  EXPECT_TRUE(store.wal_records().empty());
  ASSERT_TRUE(store.load_snapshot().has_value());
  EXPECT_EQ(*store.load_snapshot(), to_bytes("snap"));
  EXPECT_GT(store.snapshot_bytes(), 0u);
}

TEST(MemoryStateStore, TornRawWalTailDropped) {
  MemoryStateStore store;
  store.wal_append(to_bytes("kept"));
  store.wal_append(to_bytes("torn"));
  store.raw_wal().resize(store.raw_wal().size() - 3);  // crash mid-write
  const auto records = store.wal_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], to_bytes("kept"));
}

TEST(MemoryStateStore, CorruptRawSnapshotRefusesToLoad) {
  MemoryStateStore store;
  store.write_snapshot(to_bytes("snap"));
  (*store.raw_snapshot())[store.raw_snapshot()->size() / 2] ^= 0x40;
  EXPECT_THROW((void)store.load_snapshot(), DecodeError);
}

// --- FileStateStore ----------------------------------------------------------

TEST(FileStateStore, PersistsAcrossReopen) {
  ScratchDir dir("reopen");
  {
    FileStateStore store(dir.path);
    store.wal_append(to_bytes("one"));
    store.wal_append(to_bytes("two"));
    store.write_snapshot(to_bytes("snap-1"));
    store.wal_append(to_bytes("three"));
  }
  FileStateStore reopened(dir.path);
  ASSERT_TRUE(reopened.load_snapshot().has_value());
  EXPECT_EQ(*reopened.load_snapshot(), to_bytes("snap-1"));
  const auto records = reopened.wal_records();
  ASSERT_EQ(records.size(), 1u);  // snapshot truncated "one"/"two"
  EXPECT_EQ(records[0], to_bytes("three"));
}

TEST(FileStateStore, LeftoverSnapshotTmpIgnoredAndRemoved) {
  ScratchDir dir("tmpfile");
  {
    FileStateStore store(dir.path);
    store.write_snapshot(to_bytes("committed"));
  }
  // Crash mid-snapshot-write: a half-written temp file exists alongside the
  // last committed snapshot.
  {
    std::ofstream tmp(dir.path / "snapshot.tmp", std::ios::binary);
    tmp << "half-written garbage";
  }
  FileStateStore reopened(dir.path);
  EXPECT_FALSE(std::filesystem::exists(dir.path / "snapshot.tmp"));
  ASSERT_TRUE(reopened.load_snapshot().has_value());
  EXPECT_EQ(*reopened.load_snapshot(), to_bytes("committed"));
}

TEST(FileStateStore, TornWalTailTruncatedOnOpen) {
  ScratchDir dir("torn");
  {
    FileStateStore store(dir.path);
    store.wal_append(to_bytes("complete"));
  }
  // Simulate a torn append: half a frame at the tail.
  {
    std::ofstream out(dir.path / "wal.bin",
                      std::ios::binary | std::ios::app);
    const char partial[] = {0x50, 0x00, 0x00, 0x00, 0x01};  // bogus header
    out.write(partial, sizeof(partial));
  }
  FileStateStore reopened(dir.path);
  const auto records = reopened.wal_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], to_bytes("complete"));
  // The torn bytes are physically gone; appends land on a clean boundary.
  reopened.wal_append(to_bytes("after"));
  const auto after = reopened.wal_records();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[1], to_bytes("after"));
}

TEST(FileStateStore, CorruptCompleteFrameRefusesToOpen) {
  ScratchDir dir("corrupt");
  {
    FileStateStore store(dir.path);
    store.wal_append(to_bytes("first"));
    store.wal_append(to_bytes("second"));
  }
  // Flip a payload byte of the first frame (complete, CRC-covered).
  {
    std::fstream f(dir.path / "wal.bin",
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(8);
    char c;
    f.get(c);
    f.seekp(8);
    f.put(static_cast<char>(c ^ 0x01));
  }
  EXPECT_THROW(FileStateStore{dir.path}, ProtocolError);
}

TEST(FileStateStore, StaleWalAfterSnapshotRenameIsReadable) {
  // Crash window: snapshot.bin renamed into place but the WAL not yet
  // removed. Both must load; recovery (governor level) skips the stale
  // records by serial. Model it by writing the snapshot, then re-creating
  // the WAL image that preceded it.
  ScratchDir dir("stale");
  Bytes stale_wal;
  {
    FileStateStore store(dir.path);
    store.wal_append(to_bytes("covered-by-snapshot"));
    std::ifstream in(dir.path / "wal.bin", std::ios::binary);
    stale_wal.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    store.write_snapshot(to_bytes("snap"));
  }
  {
    std::ofstream out(dir.path / "wal.bin", std::ios::binary);
    out.write(reinterpret_cast<const char*>(stale_wal.data()),
              static_cast<long>(stale_wal.size()));
  }
  FileStateStore reopened(dir.path);
  ASSERT_TRUE(reopened.load_snapshot().has_value());
  EXPECT_EQ(*reopened.load_snapshot(), to_bytes("snap"));
  const auto records = reopened.wal_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], to_bytes("covered-by-snapshot"));
}

TEST(FileStateStore, KillBetweenAppendAndRenameNeverFailsAudit) {
  // The acceptance invariant: simulate every interruption point between a
  // WAL append and the snapshot rename by replaying the store's real on-disk
  // states, and check the recovered chain always audits clean.
  BlockFactory f;
  ledger::ChainStore chain;
  ScratchDir dir("killwin");

  // Build a store holding blocks 1..4 in the WAL (no snapshot yet), keeping
  // a byte-image of the WAL after each append.
  std::vector<Bytes> wal_images;
  {
    FileStateStore store(dir.path);
    for (BlockSerial s = 1; s <= 4; ++s) {
      const ledger::Block b = f.make(s, chain.head_hash());
      chain.append(b);
      store.wal_append(b.encode());
      std::ifstream in(dir.path / "wal.bin", std::ios::binary);
      wal_images.emplace_back(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
    }
  }

  const auto recover = [&](const std::filesystem::path& p) {
    FileStateStore store(p);
    ledger::ChainStore recovered;
    for (const Bytes& rec : store.wal_records()) {
      const ledger::Block b = ledger::Block::decode(rec);
      if (b.serial <= recovered.height()) continue;  // covered by snapshot
      recovered.append(b);
    }
    return recovered;
  };

  // Interruption states: after each append, plus every torn cut of the final
  // image (the in-flight 5th append that never completed).
  for (std::size_t i = 0; i < wal_images.size(); ++i) {
    ScratchDir state("killwin_state");
    std::filesystem::create_directories(state.path);
    std::ofstream(state.path / "wal.bin", std::ios::binary)
        .write(reinterpret_cast<const char*>(wal_images[i].data()),
               static_cast<long>(wal_images[i].size()));
    const ledger::ChainStore recovered = recover(state.path);
    EXPECT_TRUE(recovered.audit()) << "after append " << i + 1;
    EXPECT_EQ(recovered.height(), i + 1);
    EXPECT_TRUE(ledger::ChainStore::same_prefix(chain, recovered));
  }
  {
    // Torn tail of a 5th append at several cut points.
    const ledger::Block b5 = f.make(5, chain.head_hash());
    Bytes full = wal_images.back();
    append_frame(full, b5.encode());
    for (const std::size_t cut :
         {wal_images.back().size() + 1, wal_images.back().size() + 9,
          full.size() - 1}) {
      ScratchDir state("killwin_torn");
      std::filesystem::create_directories(state.path);
      std::ofstream(state.path / "wal.bin", std::ios::binary)
          .write(reinterpret_cast<const char*>(full.data()),
                 static_cast<long>(cut));
      const ledger::ChainStore recovered = recover(state.path);
      EXPECT_TRUE(recovered.audit()) << "torn cut " << cut;
      EXPECT_EQ(recovered.height(), 4u);  // the torn 5th block is dropped
    }
  }
}

TEST(FileStateStore, BackendsAgreeOnTheContract) {
  // Polymorphic smoke test: both backends behave identically through the
  // NodeStateStore interface.
  ScratchDir dir("contract");
  std::vector<std::unique_ptr<NodeStateStore>> stores;
  stores.push_back(std::make_unique<MemoryStateStore>());
  stores.push_back(std::make_unique<FileStateStore>(dir.path));
  for (const auto& store : stores) {
    store->wal_append(to_bytes("r1"));
    store->wal_append(to_bytes("r2"));
    EXPECT_EQ(store->wal_records().size(), 2u);
    store->write_snapshot(to_bytes("s"));
    EXPECT_EQ(store->wal_bytes(), 0u);
    EXPECT_TRUE(store->wal_records().empty());
    EXPECT_EQ(*store->load_snapshot(), to_bytes("s"));
    store->wal_append(to_bytes("r3"));
    EXPECT_EQ(store->wal_records().size(), 1u);
    store->wal_append(to_bytes("r4"));
    ASSERT_EQ(store->wal_records().size(), 2u);
    EXPECT_EQ(store->wal_records()[1], to_bytes("r4"));
  }
}

}  // namespace
}  // namespace repchain::storage
