#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "storage/codec.h"
#include "storage/page.h"

namespace dphist::storage {
namespace {

/// "DPW1" — every record starts with this.
constexpr std::uint32_t kWalMagic = 0x31575044;
constexpr std::uint16_t kWalVersion = 1;
/// magic u32 + version u16 + type u16 + payload_len u32 + crc u32.
constexpr std::size_t kWalHeaderSize = 16;
/// A structurally absurd payload length is treated as corruption, not
/// as a gigantic allocation attempt.
constexpr std::uint32_t kWalMaxPayload = 1u << 20;

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

std::string EncodePayload(const WalRecord& record) {
  ByteWriter payload;
  switch (record.type) {
    case WalRecordType::kSpend:
      payload.F64(record.epsilon);
      payload.String(record.purpose);
      break;
    case WalRecordType::kEpochSwap:
      payload.U64(record.epoch);
      break;
  }
  return payload.data();
}

Result<WalRecord> DecodePayload(WalRecordType type, std::string_view bytes) {
  WalRecord record;
  record.type = type;
  ByteReader reader(bytes);
  switch (type) {
    case WalRecordType::kSpend:
      record.epsilon = reader.F64();
      record.purpose = reader.String();
      break;
    case WalRecordType::kEpochSwap:
      record.epoch = reader.U64();
      break;
    default:
      return Status::IoError("corrupt WAL record: unknown type");
  }
  if (!reader.ok() || !reader.AtEnd()) {
    return Status::IoError("corrupt WAL record: payload structure");
  }
  return record;
}

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  struct stat info {};
  if (::fstat(fd, &info) < 0) {
    Status status = ErrnoStatus("fstat " + path);
    ::close(fd);
    return status;
  }
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(
      path, fd, static_cast<std::uint64_t>(info.st_size)));
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::uint64_t> WriteAheadLog::Append(const WalRecord& record) {
  const std::string payload = EncodePayload(record);
  ByteWriter framed;
  framed.U32(kWalMagic);
  framed.U16(kWalVersion);
  framed.U16(static_cast<std::uint16_t>(record.type));
  framed.U32(static_cast<std::uint32_t>(payload.size()));
  framed.U32(Crc32(payload.data(), payload.size()));
  framed.Bytes(payload.data(), payload.size());

  const std::uint64_t offset = size_;
  const std::string& bytes = framed.data();
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t n = ::write(fd_, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      // Drop whatever partial bytes landed so the in-memory offset and
      // the file stay consistent; a torn tail here would otherwise be
      // blamed on the NEXT crash.
      (void)::ftruncate(fd_, static_cast<off_t>(offset));
      return ErrnoStatus("write " + path_);
    }
    done += static_cast<std::size_t>(n);
  }
  int rc;
  do {
    rc = ::fsync(fd_);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    (void)::ftruncate(fd_, static_cast<off_t>(offset));
    return ErrnoStatus("fsync " + path_);
  }
  size_ = offset + bytes.size();
  return offset;
}

Status WriteAheadLog::TruncateTo(std::uint64_t offset) {
  if (offset > size_) {
    return Status::InvalidArgument("WAL truncate past the end");
  }
  if (::ftruncate(fd_, static_cast<off_t>(offset)) < 0) {
    return ErrnoStatus("ftruncate " + path_);
  }
  int rc;
  do {
    rc = ::fsync(fd_);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) return ErrnoStatus("fsync " + path_);
  size_ = offset;
  return Status::Ok();
}

Result<WalReplay> WriteAheadLog::Replay() const {
  std::string contents(size_, '\0');
  std::size_t done = 0;
  while (done < contents.size()) {
    const ssize_t n =
        ::pread(fd_, contents.data() + done, contents.size() - done,
                static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("pread " + path_);
    }
    if (n == 0) break;  // file shorter than expected: treat as torn
    done += static_cast<std::size_t>(n);
  }
  contents.resize(done);

  WalReplay replay;
  std::size_t offset = 0;
  while (offset < contents.size()) {
    const std::size_t remaining = contents.size() - offset;
    if (remaining < kWalHeaderSize) {
      // Crash mid-append: not even a full header made it out.
      replay.tail_torn = true;
      break;
    }
    ByteReader header(contents.data() + offset, kWalHeaderSize);
    const std::uint32_t magic = header.U32();
    const std::uint16_t version = header.U16();
    const std::uint16_t type = header.U16();
    const std::uint32_t payload_size = header.U32();
    const std::uint32_t checksum = header.U32();
    if (magic != kWalMagic || version != kWalVersion ||
        payload_size > kWalMaxPayload) {
      // The header bytes are fully present but wrong. Appends are the
      // only writer and each is fsynced whole, so this is corruption,
      // not a torn append.
      return Status::IoError("corrupt WAL record header at offset " +
                             std::to_string(offset) + " in " + path_);
    }
    if (remaining < kWalHeaderSize + payload_size) {
      // Complete header, partial payload: the fsync never finished.
      replay.tail_torn = true;
      break;
    }
    const std::string_view payload(contents.data() + offset + kWalHeaderSize,
                                   payload_size);
    if (Crc32(payload.data(), payload.size()) != checksum) {
      if (offset + kWalHeaderSize + payload_size == contents.size()) {
        // A final record whose length made it into the file metadata
        // but whose data blocks never fully persisted reads back as a
        // full-length record with a wrong checksum — a crash signature,
        // so tolerate it exactly like a short tail.
        replay.tail_torn = true;
        break;
      }
      return Status::IoError("corrupt WAL record payload at offset " +
                             std::to_string(offset) + " in " + path_);
    }
    Result<WalRecord> record =
        DecodePayload(static_cast<WalRecordType>(type), payload);
    if (!record.ok()) return record.status();
    replay.records.push_back(std::move(record).value());
    offset += kWalHeaderSize + payload_size;
  }
  replay.clean_size = offset;
  return replay;
}

}  // namespace dphist::storage
