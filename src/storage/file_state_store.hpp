#pragma once

#include <filesystem>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "storage/node_state_store.hpp"

namespace repchain::storage {

/// On-disk NodeStateStore. Layout inside `dir`:
///
///   wal.bin       append-only CRC-framed block log (fsync per append)
///   snapshot.bin  latest checkpoint (magic + CRC envelope)
///   snapshot.tmp  in-flight snapshot write; never read, removed on open
///
/// Snapshot replacement is write-temp + fsync + rename + fsync(dir), so the
/// visible snapshot.bin is always a complete image. The WAL is truncated only
/// after the rename lands; recovery tolerates the crash window in between by
/// skipping WAL records the snapshot already covers.
class FileStateStore final : public NodeStateStore {
 public:
  /// Opens (creating `dir` if needed). Repairs crash artifacts eagerly:
  /// removes a leftover snapshot.tmp and truncates a torn WAL tail back to
  /// its last complete frame. Throws ProtocolError on a complete-but-corrupt
  /// WAL frame, DecodeError on a corrupt snapshot.
  explicit FileStateStore(std::filesystem::path dir);

  void wal_append(BytesView record) override;
  [[nodiscard]] std::vector<Bytes> wal_records() const override;
  void write_snapshot(BytesView payload) override;
  [[nodiscard]] std::optional<Bytes> load_snapshot() const override;
  [[nodiscard]] std::size_t wal_bytes() const override;
  [[nodiscard]] std::size_t snapshot_bytes() const override;

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }

 private:
  [[nodiscard]] std::filesystem::path wal_path() const { return dir_ / "wal.bin"; }
  [[nodiscard]] std::filesystem::path snapshot_path() const { return dir_ / "snapshot.bin"; }
  [[nodiscard]] std::filesystem::path tmp_path() const { return dir_ / "snapshot.tmp"; }

  std::filesystem::path dir_;
};

}  // namespace repchain::storage
