#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "storage/wal_format.hpp"

namespace repchain::storage {

/// Durable state behind one node: a write-ahead log of appended blocks plus
/// a single checkpoint snapshot. The contract both backends honor:
///
///  - `wal_append` is durable once it returns; a crash at any later point
///    preserves the record.
///  - `write_snapshot` atomically replaces the previous snapshot and then
///    truncates the WAL. A crash anywhere inside leaves either the old
///    snapshot + full WAL or the new snapshot (possibly + stale WAL records
///    the snapshot already covers — recovery skips those by serial).
///  - Readers (`load_snapshot`, `wal_records`) always see a consistent view:
///    torn tails are dropped, half-written snapshots never load.
class NodeStateStore {
 public:
  virtual ~NodeStateStore() = default;

  /// Durably append one record (an encoded block) to the log.
  virtual void wal_append(BytesView record) = 0;

  /// All complete, CRC-verified records in append order.
  [[nodiscard]] virtual std::vector<Bytes> wal_records() const = 0;

  /// Atomically persist a checkpoint payload, then truncate the WAL.
  virtual void write_snapshot(BytesView payload) = 0;

  /// Latest durable snapshot payload, if one was ever written.
  [[nodiscard]] virtual std::optional<Bytes> load_snapshot() const = 0;

  /// Current log size in bytes (for bench/metrics).
  [[nodiscard]] virtual std::size_t wal_bytes() const = 0;

  /// Current snapshot size in bytes, 0 when absent (for bench/metrics).
  [[nodiscard]] virtual std::size_t snapshot_bytes() const = 0;
};

/// In-memory backend. Keeps the same framed byte images a file store would
/// hold on disk, so the exact scan/decode recovery path is exercised even in
/// pure-simulation runs, and survives the owning node's in-memory death as
/// long as the store object itself outlives it (Scenario keeps stores outside
/// the governors they back).
class MemoryStateStore final : public NodeStateStore {
 public:
  void wal_append(BytesView record) override { append_frame(wal_, record); }

  [[nodiscard]] std::vector<Bytes> wal_records() const override {
    return scan_wal(wal_).records;
  }

  void write_snapshot(BytesView payload) override {
    snapshot_ = encode_snapshot(payload);
    wal_.clear();
  }

  [[nodiscard]] std::optional<Bytes> load_snapshot() const override {
    if (!snapshot_) return std::nullopt;
    return decode_snapshot(*snapshot_);
  }

  [[nodiscard]] std::size_t wal_bytes() const override { return wal_.size(); }

  [[nodiscard]] std::size_t snapshot_bytes() const override {
    return snapshot_ ? snapshot_->size() : 0;
  }

  /// Test hooks: mutate the raw images to model crash artifacts.
  [[nodiscard]] Bytes& raw_wal() { return wal_; }
  [[nodiscard]] std::optional<Bytes>& raw_snapshot() { return snapshot_; }

 private:
  Bytes wal_;
  std::optional<Bytes> snapshot_;
};

}  // namespace repchain::storage
