#include "storage/epoch_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string_view>
#include <utility>

#include "storage/codec.h"
#include "storage/page.h"

namespace dphist::storage {
namespace {

constexpr std::uint16_t kSnapshotFormatVersion = 1;
constexpr char kWalFile[] = "wal.log";
constexpr char kSnapshotFile[] = "snapshot.db";
constexpr char kSnapshotTmpFile[] = "snapshot.db.tmp";

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// Owns one file descriptor and closes it on every return path.
class ScopedFd {
 public:
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int get() const { return fd_; }

 private:
  int fd_;
};

Status SyncFd(int fd, const std::string& what) {
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc < 0 && errno == EINTR);
  return rc < 0 ? ErrnoStatus("fsync " + what) : Status::Ok();
}

/// fsync on the directory so a rename inside it is itself durable.
Status SyncDir(const std::string& dir) {
  const ScopedFd fd(::open(dir.c_str(), O_RDONLY | O_DIRECTORY));
  if (fd.get() < 0) return ErrnoStatus("open dir " + dir);
  return SyncFd(fd.get(), "dir " + dir);
}

/// write(2) of all `size` bytes, retrying EINTR and short writes.
Status WriteAll(int fd, const void* data, std::size_t size,
                const std::string& path) {
  const auto* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + path);
    }
    if (n == 0) return Status::IoError("write " + path + " made no progress");
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

/// read(2) of exactly `size` bytes, retrying EINTR and short reads; an
/// early end of file is an IoError.
Status ReadAll(int fd, void* data, std::size_t size, const std::string& path) {
  auto* p = static_cast<char*>(data);
  while (size > 0) {
    const ssize_t n = ::read(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("read " + path);
    }
    if (n == 0) return Status::IoError("short read in " + path);
    p += n;
    size -= static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Result<StrategyKind> DecodeStrategy(std::uint16_t code) {
  switch (code) {
    case 0:
      return StrategyKind::kLTilde;
    case 1:
      return StrategyKind::kHTilde;
    case 2:
      return StrategyKind::kHBar;
    case 3:
      return StrategyKind::kWavelet;
    default:
      // kAuto is never persisted — a publish resolves it first.
      return Status::IoError("snapshot meta has an unknown strategy code");
  }
}

std::uint16_t EncodeStrategy(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kLTilde:
      return 0;
    case StrategyKind::kHTilde:
      return 1;
    case StrategyKind::kHBar:
      return 2;
    case StrategyKind::kWavelet:
      return 3;
    case StrategyKind::kAuto:
      break;
  }
  return 0xffff;  // refused by DecodeStrategy on the way back in
}

/// The snapshot's data stream: every shard's estimator state in domain
/// order, then the optional planner profile.
Result<std::string> EncodeDataStream(const Snapshot& snapshot,
                                     const planner::WorkloadProfile* profile) {
  ByteWriter out;
  out.U64(static_cast<std::uint64_t>(snapshot.shard_count()));
  for (std::int64_t i = 0; i < snapshot.shard_count(); ++i) {
    const std::vector<double>* state = snapshot.shard(i).SerializableState();
    if (state == nullptr) {
      return Status::FailedPrecondition(
          "shard estimator \"" + snapshot.shard(i).Name() +
          "\" does not support persistence");
    }
    out.F64Vector(*state);
  }
  out.U8(profile != nullptr ? 1 : 0);
  if (profile != nullptr) {
    out.I64(profile->domain_size());
    out.U64(static_cast<std::uint64_t>(profile->length_weights().size()));
    for (const auto& [length, weight] : profile->length_weights()) {
      out.I64(length);
      out.F64(weight);
    }
    for (double bin : profile->position_heat()) out.F64(bin);
  }
  return out.data();
}

struct DecodedDataStream {
  std::vector<std::vector<double>> shard_states;
  std::optional<planner::WorkloadProfile> profile;
};

Result<DecodedDataStream> DecodeDataStream(std::string_view stream) {
  ByteReader in(stream);
  DecodedDataStream out;
  const std::uint64_t shard_count = in.U64();
  if (shard_count > stream.size() / 8 + 1) {
    return Status::IoError("snapshot data stream: absurd shard count");
  }
  out.shard_states.reserve(static_cast<std::size_t>(shard_count));
  for (std::uint64_t i = 0; i < shard_count; ++i) {
    out.shard_states.push_back(in.F64Vector());
  }
  const bool has_profile = in.U8() != 0;
  if (has_profile) {
    const std::int64_t domain = in.I64();
    const std::uint64_t n_lengths = in.U64();
    if (n_lengths > stream.size() / 16 + 1) {
      return Status::IoError("snapshot data stream: absurd profile size");
    }
    std::map<std::int64_t, double> lengths;
    for (std::uint64_t i = 0; i < n_lengths; ++i) {
      const std::int64_t length = in.I64();
      lengths[length] = in.F64();
    }
    std::array<double, planner::WorkloadProfile::kHeatBins> heat{};
    for (double& bin : heat) bin = in.F64();
    if (!in.ok()) {
      return Status::IoError("snapshot data stream: truncated profile");
    }
    Result<planner::WorkloadProfile> profile =
        planner::WorkloadProfile::Restore(domain, std::move(lengths), heat);
    if (!profile.ok()) return profile.status();
    out.profile.emplace(std::move(profile).value());
  }
  if (!in.ok() || !in.AtEnd()) {
    return Status::IoError("snapshot data stream: structure mismatch");
  }
  return out;
}

/// The meta page's payload: format, epoch, domain, resolved options,
/// and the length + CRC of the data stream in the following pages.
std::string EncodeMetaPayload(const Snapshot& snapshot,
                              const std::string& data_stream) {
  const SnapshotOptions& options = snapshot.options();
  ByteWriter out;
  out.U16(kSnapshotFormatVersion);
  out.U64(snapshot.epoch());
  out.I64(snapshot.domain_size());
  out.F64(options.epsilon);
  out.U16(EncodeStrategy(options.strategy));
  out.I64(options.branching);
  out.I64(options.shards);
  out.U8(options.round_to_nonnegative_integers ? 1 : 0);
  out.U8(options.prune_nonpositive_subtrees ? 1 : 0);
  out.I64(options.build_threads);
  // Retired cache-admission threshold: the slot stays so the format
  // version (and every existing state dir) remains valid.
  out.F64(2.0);
  out.U64(static_cast<std::uint64_t>(data_stream.size()));
  out.U32(Crc32(data_stream.data(), data_stream.size()));
  return out.data();
}

struct DecodedMeta {
  std::uint64_t epoch = 0;
  std::int64_t domain_size = 0;
  SnapshotOptions options;
  std::uint64_t data_bytes = 0;
  std::uint32_t data_crc = 0;
};

Result<DecodedMeta> DecodeMetaPayload(std::string_view payload) {
  ByteReader in(payload);
  const std::uint16_t version = in.U16();
  if (version != kSnapshotFormatVersion) {
    return Status::IoError("snapshot meta: unsupported format version " +
                           std::to_string(version));
  }
  DecodedMeta meta;
  meta.epoch = in.U64();
  meta.domain_size = in.I64();
  meta.options.epsilon = in.F64();
  Result<StrategyKind> strategy = DecodeStrategy(in.U16());
  if (!strategy.ok()) return strategy.status();
  meta.options.strategy = strategy.value();
  meta.options.branching = in.I64();
  meta.options.shards = in.I64();
  meta.options.round_to_nonnegative_integers = in.U8() != 0;
  meta.options.prune_nonpositive_subtrees = in.U8() != 0;
  meta.options.build_threads = in.I64();
  in.F64();  // retired cache-admission threshold, ignored
  meta.data_bytes = in.U64();
  meta.data_crc = in.U32();
  if (!in.ok() || !in.AtEnd()) {
    return Status::IoError("snapshot meta: structure mismatch");
  }
  return meta;
}

// Staged pages go to and from disk as one contiguous run of bytes.
static_assert(sizeof(Page) == kPageSize);

/// Writes the meta page and then the data stream's pages to `fd` in one
/// sequential pass: pages are sealed into `staging`, and each full
/// buffer goes down with one write loop. Returns the pages written.
Result<std::uint64_t> WriteSnapshotPages(int fd, const std::string& path,
                                         std::string_view meta,
                                         std::string_view data,
                                         std::vector<Page>& staging) {
  std::size_t staged = 0;
  std::uint64_t pages = 0;
  auto flush = [&] {
    Status written = WriteAll(fd, staging.data(), staged * kPageSize, path);
    staged = 0;
    return written;
  };
  auto stage = [&](PageType type, std::string_view payload) {
    Status status = SealPage(type, payload.data(), payload.size(),
                             &staging[staged]);
    ++staged;
    ++pages;
    if (status.ok() && staged == staging.size()) status = flush();
    return status;
  };
  Status status = stage(PageType::kSnapshotMeta, meta);
  for (std::size_t offset = 0; status.ok() && offset < data.size();
       offset += kPagePayloadCapacity) {
    status = stage(PageType::kSnapshotData,
                   data.substr(offset, kPagePayloadCapacity));
  }
  if (status.ok() && staged > 0) status = flush();
  if (!status.ok()) return status;
  return pages;
}

struct SnapshotFile {
  DecodedMeta meta;
  /// The data stream reassembled from the data pages, CRC-verified.
  std::string data;
};

/// Reads a snapshot file front to back in batches of `staging.size()`
/// pages, verifying every page it consumes with OpenPage: page 0 must be
/// the meta page, and data pages follow until the stream's recorded
/// length is reached. A short, torn or damaged file is an IoError.
Result<SnapshotFile> ReadSnapshotPages(int fd, const std::string& path,
                                       std::vector<Page>& staging) {
  struct stat info {};
  if (::fstat(fd, &info) < 0) return ErrnoStatus("fstat " + path);
  const auto size = static_cast<std::uint64_t>(info.st_size);
  if (size == 0 || size % kPageSize != 0) {
    return Status::IoError(path + " is not a whole, non-zero number of "
                                  "pages (torn write?)");
  }
  const std::uint64_t file_pages = size / kPageSize;
  auto read_batch = [&](std::uint64_t first_page) {
    const std::uint64_t count =
        std::min<std::uint64_t>(staging.size(), file_pages - first_page);
    return ReadAll(fd, staging.data(), count * kPageSize, path);
  };

  Status loaded = read_batch(0);
  if (!loaded.ok()) return loaded;
  Result<PageView> meta_view = OpenPage(staging[0]);
  if (!meta_view.ok()) return meta_view.status();
  if (meta_view.value().type != PageType::kSnapshotMeta) {
    return Status::IoError("snapshot page 0 is not a meta page");
  }
  Result<DecodedMeta> meta = DecodeMetaPayload(meta_view.value().payload);
  if (!meta.ok()) return meta.status();
  SnapshotFile file;
  file.meta = meta.value();
  const std::uint64_t data_bytes = file.meta.data_bytes;
  // Bounded by what the file can hold, whatever the meta page claims.
  file.data.reserve(std::min<std::uint64_t>(data_bytes, size - kPageSize));
  std::uint32_t crc = 0;
  for (std::uint64_t page_id = 1; file.data.size() < data_bytes; ++page_id) {
    if (page_id == file_pages) {
      return Status::IoError(path + " ends before its data stream does");
    }
    const std::size_t slot = page_id % staging.size();
    if (slot == 0) {
      loaded = read_batch(page_id);
      if (!loaded.ok()) return loaded;
    }
    Result<PageView> view = OpenPage(staging[slot]);
    if (!view.ok()) return view.status();
    if (view.value().type != PageType::kSnapshotData) {
      return Status::IoError("snapshot page " + std::to_string(page_id) +
                             " is not a data page");
    }
    const std::string_view payload = view.value().payload;
    crc = Crc32(payload.data(), payload.size(), crc);
    file.data.append(payload);
  }
  if (file.data.size() != data_bytes) {
    return Status::IoError("snapshot data stream length mismatch");
  }
  if (crc != file.meta.data_crc) {
    return Status::IoError("snapshot data stream checksum mismatch");
  }
  return file;
}

}  // namespace

Result<std::unique_ptr<EpochStore>> EpochStore::Open(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) < 0 && errno != EEXIST) {
    return ErrnoStatus("mkdir " + dir);
  }
  // A leftover tmp file is a publish that never committed; drop it so it
  // can never be confused for durable state.
  (void)::unlink((dir + "/" + kSnapshotTmpFile).c_str());
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(dir + "/" + kWalFile);
  if (!wal.ok()) return wal.status();
  return std::unique_ptr<EpochStore>(
      new EpochStore(dir, std::move(wal).value()));
}

Result<std::uint64_t> EpochStore::AppendSpend(double epsilon,
                                              const std::string& purpose) {
  WalRecord record;
  record.type = WalRecordType::kSpend;
  record.epsilon = epsilon;
  record.purpose = purpose;
  return wal_->Append(record);
}

Status EpochStore::AppendEpochSwap(std::uint64_t epoch) {
  WalRecord record;
  record.type = WalRecordType::kEpochSwap;
  record.epoch = epoch;
  return wal_->Append(record).status();
}

Status EpochStore::RollbackTo(std::uint64_t wal_offset) {
  return wal_->TruncateTo(wal_offset);
}

Status EpochStore::PersistSnapshot(const Snapshot& snapshot,
                                   const planner::WorkloadProfile* profile) {
  Result<std::string> stream = EncodeDataStream(snapshot, profile);
  if (!stream.ok()) return stream.status();
  const std::string& data = stream.value();
  const std::string meta = EncodeMetaPayload(snapshot, data);

  const std::string tmp_path = dir_ + "/" + kSnapshotTmpFile;
  {
    const ScopedFd fd(
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) return ErrnoStatus("open " + tmp_path);
    Result<std::uint64_t> pages =
        WriteSnapshotPages(fd.get(), tmp_path, meta, data, staging_);
    if (!pages.ok()) return pages.status();
    Status synced = SyncFd(fd.get(), tmp_path);
    if (!synced.ok()) return synced;
    stats_.snapshot_pages_written += pages.value();
  }

  const std::string final_path = dir_ + "/" + kSnapshotFile;
  if (::rename(tmp_path.c_str(), final_path.c_str()) < 0) {
    return ErrnoStatus("rename " + tmp_path);
  }
  return SyncDir(dir_);
}

Result<RecoveredState> EpochStore::Recover() {
  RecoveredState state;

  Result<WalReplay> replay = wal_->Replay();
  if (!replay.ok()) return replay.status();
  if (replay.value().tail_torn) {
    // Truncate the torn append away so the next spend lands on a clean
    // boundary — the file then matches the ledger we return exactly.
    Status truncated = wal_->TruncateTo(replay.value().clean_size);
    if (!truncated.ok()) return truncated;
    state.wal_tail_torn = true;
  }
  for (const WalRecord& record : replay.value().records) {
    switch (record.type) {
      case WalRecordType::kSpend:
        state.ledger.push_back(
            PrivacyAccountant::Entry{record.epsilon, record.purpose});
        break;
      case WalRecordType::kEpochSwap:
        if (record.epoch > state.last_swap_epoch) {
          state.last_swap_epoch = record.epoch;
        }
        break;
    }
  }

  const std::string snapshot_path = dir_ + "/" + kSnapshotFile;
  const ScopedFd fd(::open(snapshot_path.c_str(), O_RDONLY));
  if (fd.get() < 0) {
    if (errno == ENOENT) return state;  // never persisted: WAL-only state
    return ErrnoStatus("open " + snapshot_path);
  }
  Result<SnapshotFile> file =
      ReadSnapshotPages(fd.get(), snapshot_path, staging_);
  if (!file.ok()) return file.status();
  const DecodedMeta& meta = file.value().meta;

  Result<DecodedDataStream> decoded = DecodeDataStream(file.value().data);
  if (!decoded.ok()) return decoded.status();
  DecodedDataStream stream = std::move(decoded).value();

  Result<std::shared_ptr<const Snapshot>> snapshot =
      Snapshot::Restore(meta.options, meta.epoch, meta.domain_size,
                        std::move(stream.shard_states));
  if (!snapshot.ok()) return snapshot.status();
  state.snapshot = std::move(snapshot).value();
  state.profile = std::move(stream.profile);
  return state;
}

}  // namespace dphist::storage
