#include "storage/file_state_store.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <string>
#include <system_error>
#include <utility>

#include "common/errors.hpp"
#include "storage/wal_format.hpp"

namespace repchain::storage {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw ProtocolError(what + ": " + std::strerror(errno));
}

/// Thin RAII fd so every early exit closes the descriptor.
class Fd {
 public:
  Fd(const std::filesystem::path& path, int flags, mode_t mode = 0644)
      : fd_(::open(path.c_str(), flags, mode)) {
    if (fd_ < 0) throw_errno("open " + path.string());
  }
  ~Fd() {
    if (fd_ >= 0) ::close(fd_);
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  void write_all(BytesView data) const {
    const std::uint8_t* p = data.data();
    std::size_t left = data.size();
    while (left > 0) {
      const ssize_t n = ::write(fd_, p, left);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw_errno("write");
      }
      p += n;
      left -= static_cast<std::size_t>(n);
    }
  }

  void sync() const {
    if (::fsync(fd_) != 0) throw_errno("fsync");
  }

 private:
  int fd_;
};

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ProtocolError("cannot open " + path.string());
  Bytes data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw ProtocolError("read failed: " + path.string());
  return data;
}

void fsync_dir(const std::filesystem::path& dir) {
  const Fd fd(dir, O_RDONLY | O_DIRECTORY);
  fd.sync();
}

}  // namespace

FileStateStore::FileStateStore(std::filesystem::path dir) : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
  // A leftover tmp file is an interrupted snapshot write; the rename never
  // happened, so it carries no committed state.
  std::filesystem::remove(tmp_path());
  if (std::filesystem::exists(wal_path())) {
    const Bytes image = read_file(wal_path());
    const WalScan scan = scan_wal(image);  // throws on genuine corruption
    if (scan.torn_tail) {
      std::filesystem::resize_file(wal_path(), scan.clean_bytes);
      const Fd fd(wal_path(), O_WRONLY);
      fd.sync();
    }
  }
  if (std::filesystem::exists(snapshot_path())) {
    (void)decode_snapshot(read_file(snapshot_path()));  // fail fast if corrupt
  }
}

void FileStateStore::wal_append(BytesView record) {
  Bytes frame;
  append_frame(frame, record);
  const Fd fd(wal_path(), O_WRONLY | O_CREAT | O_APPEND);
  fd.write_all(frame);
  fd.sync();
}

std::vector<Bytes> FileStateStore::wal_records() const {
  if (!std::filesystem::exists(wal_path())) return {};
  return scan_wal(read_file(wal_path())).records;
}

void FileStateStore::write_snapshot(BytesView payload) {
  const Bytes image = encode_snapshot(payload);
  {
    const Fd fd(tmp_path(), O_WRONLY | O_CREAT | O_TRUNC);
    fd.write_all(image);
    fd.sync();
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path(), snapshot_path(), ec);
  if (ec) throw ProtocolError("snapshot rename failed: " + ec.message());
  fsync_dir(dir_);
  // Snapshot is durable; the log it superseded can go. A crash right here
  // leaves stale WAL records, which recovery skips by block serial.
  std::filesystem::remove(wal_path());
  fsync_dir(dir_);
}

std::optional<Bytes> FileStateStore::load_snapshot() const {
  if (!std::filesystem::exists(snapshot_path())) return std::nullopt;
  return decode_snapshot(read_file(snapshot_path()));
}

std::size_t FileStateStore::wal_bytes() const {
  std::error_code ec;
  const auto size = std::filesystem::file_size(wal_path(), ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

std::size_t FileStateStore::snapshot_bytes() const {
  std::error_code ec;
  const auto size = std::filesystem::file_size(snapshot_path(), ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

}  // namespace repchain::storage
