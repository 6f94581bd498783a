#include "storage/epoch_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>
#include <vector>

#include "storage/codec.h"
#include "storage/fd_io.h"
#include "storage/page.h"

namespace dphist::storage {
namespace {

constexpr std::uint16_t kSnapshotFormatVersion = 1;
constexpr char kWalFile[] = "wal.log";
constexpr char kSnapshotFile[] = "snapshot.db";
constexpr char kSnapshotTmpFile[] = "snapshot.db.tmp";
/// Retired position-heat slots after the profile's lengths: written as
/// zeros and skipped on read, so the format version (and every existing
/// state dir) remains valid.
constexpr int kRetiredHeatSlots = 64;

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

/// The snapshot's data stream — the shard count, then each shard's
/// release state (count, doubles) in domain order, then the optional
/// planner profile — as the pieces it is made of, never one buffer: the
/// doubles stay where the release holds them, and every other byte is
/// encoded into `framing`. Pinned in place, as its pieces view its own
/// framing.
struct DataStream {
  DataStream() = default;
  DataStream(const DataStream&) = delete;
  DataStream& operator=(const DataStream&) = delete;

  std::string framing;
  /// The stream in order: views into `framing` and the shards' states.
  std::vector<std::string_view> pieces;
  std::uint64_t size = 0;
  std::uint32_t crc = 0;
};

/// Fills `stream` with `snapshot`'s data stream, its length and its CRC.
void ViewDataStream(const Snapshot& snapshot,
                    const planner::WorkloadProfile* profile,
                    DataStream* stream) {
  const auto shards = static_cast<std::size_t>(snapshot.shard_count());
  ByteWriter framing;
  framing.U64(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    framing.U64(snapshot.shard_state(static_cast<std::int64_t>(i)).size());
  }
  framing.U8(profile != nullptr ? 1 : 0);
  if (profile != nullptr) {
    const std::map<std::int64_t, double> lengths = profile->length_weights();
    framing.I64(profile->domain_size());
    framing.U64(static_cast<std::uint64_t>(lengths.size()));
    for (const auto& [length, weight] : lengths) {
      framing.I64(length);
      framing.F64(weight);
    }
    for (int i = 0; i < kRetiredHeatSlots; ++i) framing.F64(0.0);
  }

  stream->framing = std::move(framing).Take();
  const std::string_view encoded = stream->framing;
  stream->pieces.reserve(2 * shards + 1);
  // The framing up to and including shard i's count, then its doubles.
  std::size_t from = 0;
  for (std::size_t i = 0; i < shards; ++i) {
    const std::size_t to = 8 * (i + 2);
    const std::vector<double>& state =
        snapshot.shard_state(static_cast<std::int64_t>(i));
    stream->pieces.push_back(encoded.substr(from, to - from));
    stream->pieces.emplace_back(reinterpret_cast<const char*>(state.data()),
                                state.size() * sizeof(double));
    from = to;
  }
  stream->pieces.push_back(encoded.substr(from));
  for (const std::string_view piece : stream->pieces) {
    stream->size += piece.size();
    stream->crc = Crc32(piece.data(), piece.size(), stream->crc);
  }
}

/// Decodes the profile block, the stream's last piece: a flag, then
/// (when it is set) the profile's domain, its lengths with their weights
/// and the retired heat slots. Nothing may follow it.
Status DecodeProfileBlock(std::string_view block,
                          std::optional<planner::WorkloadProfile>* profile) {
  ByteReader in(block);
  const bool has_profile = in.U8() != 0;
  if (has_profile) {
    const std::int64_t domain = in.I64();
    const std::uint64_t n_lengths = in.U64();
    if (n_lengths > block.size() / 16 + 1) {
      return Status::IoError("snapshot data stream: absurd profile size");
    }
    // Lengths fold into the profile's buckets, so exact lengths from
    // an older writer restore as their bucket means.
    std::map<std::int64_t, double> lengths;
    for (std::uint64_t i = 0; i < n_lengths; ++i) {
      const std::int64_t length = in.I64();
      lengths[length] = in.F64();
    }
    for (int i = 0; i < kRetiredHeatSlots; ++i) in.F64();
    if (!in.ok()) {
      return Status::IoError("snapshot data stream: truncated profile");
    }
    Result<planner::WorkloadProfile> restored =
        planner::WorkloadProfile::Restore(domain, lengths);
    if (!restored.ok()) return restored.status();
    profile->emplace(std::move(restored).value());
  }
  if (!in.ok() || !in.AtEnd()) {
    return Status::IoError("snapshot data stream: structure mismatch");
  }
  return Status::Ok();
}

/// The meta page's payload: format, epoch, domain, resolved options,
/// and the length + CRC of the data stream in the following pages.
std::string EncodeMetaPayload(const Snapshot& snapshot,
                              const DataStream& stream) {
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
  out.U64(stream.size);
  out.U32(stream.crc);
  return std::move(out).Take();
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
/// sequential pass: the pieces are copied straight into the payloads of
/// pages in `staging` (a payload may span pieces), each page is sealed
/// where it lies, and each full buffer goes down with one write loop.
/// Returns the pages written.
Result<std::uint64_t> WriteSnapshotPages(int fd, const std::string& path,
                                         std::string_view meta,
                                         const DataStream& stream,
                                         std::vector<Page>& staging) {
  std::size_t staged = 0;
  std::uint64_t pages = 0;
  auto flush = [&] {
    Status written = WriteAll(fd, staging.data(), staged * kPageSize, path);
    staged = 0;
    return written;
  };
  auto stage = [&](PageType type, const char* payload, std::size_t size) {
    Status status = SealPage(type, payload, size, &staging[staged]);
    ++staged;
    ++pages;
    if (status.ok() && staged == staging.size()) status = flush();
    return status;
  };
  Status status = stage(PageType::kSnapshotMeta, meta.data(), meta.size());
  std::size_t filled = 0;  // payload bytes already in staging[staged]
  for (std::string_view piece : stream.pieces) {
    while (status.ok() && !piece.empty()) {
      char* payload = PagePayload(&staging[staged]);
      const std::size_t take =
          std::min(piece.size(), kPagePayloadCapacity - filled);
      std::memcpy(payload + filled, piece.data(), take);
      piece.remove_prefix(take);
      filled += take;
      if (filled == kPagePayloadCapacity) {
        status = stage(PageType::kSnapshotData, payload, filled);
        filled = 0;
      }
    }
  }
  if (status.ok() && filled > 0) {
    status = stage(PageType::kSnapshotData, PagePayload(&staging[staged]),
                   filled);
  }
  if (status.ok() && staged > 0) status = flush();
  if (!status.ok()) return status;
  return pages;
}

/// Reads a snapshot file's data stream front to back, after the meta
/// page, in batches of `staging.size()` pages, opening (and so
/// verifying) each data page as the stream reaches it. Read copies the
/// stream's next bytes wherever the caller wants them, so a read may
/// span pages and no buffer holds the whole stream. It keeps the CRC of
/// the payloads it opened, and refuses a file that ends before the
/// stream's recorded length or whose payloads run past it.
class DataPageReader {
 public:
  /// `staging` holds the file's first batch; page 0 was the meta page.
  DataPageReader(int fd, const std::string& path, std::vector<Page>& staging,
                 std::uint64_t file_pages, std::uint64_t stream_bytes)
      : fd_(fd),
        path_(path),
        staging_(staging),
        file_pages_(file_pages),
        unread_(stream_bytes),
        unopened_(stream_bytes) {}

  /// Stream bytes not yet read.
  std::uint64_t left() const { return unread_; }
  /// CRC of the payloads opened so far.
  std::uint32_t crc() const { return crc_; }

  /// Copies the stream's next `size` bytes to `to`.
  Status Read(void* to, std::uint64_t size) {
    if (size > unread_) {
      return Status::IoError("snapshot data stream: structure mismatch");
    }
    unread_ -= size;
    auto* out = static_cast<char*>(to);
    while (size > 0) {
      if (payload_.empty()) {
        Status opened = OpenNextPage();
        if (!opened.ok()) return opened;
        continue;
      }
      const std::size_t take = static_cast<std::size_t>(
          std::min<std::uint64_t>(size, payload_.size()));
      std::memcpy(out, payload_.data(), take);
      out += take;
      size -= take;
      payload_.remove_prefix(take);
    }
    return Status::Ok();
  }

  /// Reads one little-endian u64 of the stream into `*value`.
  Status U64(std::uint64_t* value) {
    char word[8] = {};
    Status read = Read(word, sizeof(word));
    *value = ByteReader(word, sizeof(word)).U64();
    return read;
  }

 private:
  Status OpenNextPage() {
    if (next_page_ == file_pages_) {
      return Status::IoError(path_ + " ends before its data stream does");
    }
    const std::size_t slot = next_page_ % staging_.size();
    if (slot == 0) {
      const std::uint64_t count =
          std::min<std::uint64_t>(staging_.size(), file_pages_ - next_page_);
      Status loaded = ReadAll(fd_, staging_.data(), count * kPageSize, path_);
      if (!loaded.ok()) return loaded;
    }
    Result<PageView> view = OpenPage(staging_[slot]);
    if (!view.ok()) return view.status();
    if (view.value().type != PageType::kSnapshotData) {
      return Status::IoError("snapshot page " + std::to_string(next_page_) +
                             " is not a data page");
    }
    payload_ = view.value().payload;
    if (payload_.size() > unopened_) {
      return Status::IoError("snapshot data stream length mismatch");
    }
    unopened_ -= payload_.size();
    crc_ = Crc32(payload_.data(), payload_.size(), crc_);
    ++next_page_;
    return Status::Ok();
  }

  const int fd_;
  const std::string& path_;
  std::vector<Page>& staging_;
  const std::uint64_t file_pages_;
  std::uint64_t next_page_ = 1;
  /// The current page's payload bytes not yet read.
  std::string_view payload_;
  std::uint64_t unread_;
  /// Stream bytes in pages not yet opened.
  std::uint64_t unopened_;
  std::uint32_t crc_ = 0;
};

/// Everything a snapshot file restores.
struct SnapshotFile {
  DecodedMeta meta;
  /// The shards' states, in domain order.
  std::vector<std::vector<double>> shard_states;
  std::optional<planner::WorkloadProfile> profile;
};

/// Reads and decodes a snapshot file: page 0 must be the meta page, and
/// the data stream it describes follows in data pages, read as the
/// pieces ViewDataStream writes. Each shard's doubles are copied from
/// the pages straight into that shard's array, sized from its count
/// once a count the rest of the stream can hold has been read; the
/// profile block is copied into a small buffer for DecodeProfileBlock.
/// A short, torn, damaged or inconsistent file is an IoError.
Result<SnapshotFile> ReadSnapshotFile(int fd, const std::string& path,
                                      std::vector<Page>& staging) {
  struct stat info {};
  if (::fstat(fd, &info) < 0) return ErrnoStatus("fstat " + path);
  const auto size = static_cast<std::uint64_t>(info.st_size);
  if (size == 0 || size % kPageSize != 0) {
    return Status::IoError(path + " is not a whole, non-zero number of "
                                  "pages (torn write?)");
  }
  const std::uint64_t file_pages = size / kPageSize;
  Status loaded = ReadAll(
      fd, staging.data(),
      std::min<std::uint64_t>(staging.size(), file_pages) * kPageSize, path);
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
  // Bounded by what the file can hold, whatever the meta page claims, so
  // no count checked against the stream's length asks for more.
  if (file.meta.data_bytes > (file_pages - 1) * kPagePayloadCapacity) {
    return Status::IoError(path + " ends before its data stream does");
  }

  DataPageReader in(fd, path, staging, file_pages, file.meta.data_bytes);
  std::vector<std::vector<double>>& shards = file.shard_states;
  std::uint64_t shard_count = 0;
  Status status = in.U64(&shard_count);
  if (!status.ok()) return status;
  // Each shard's count alone takes 8 of the bytes left.
  if (shard_count > in.left() / 8) {
    return Status::IoError("snapshot data stream: absurd shard count");
  }
  shards.reserve(static_cast<std::size_t>(shard_count));
  for (std::uint64_t i = 0; i < shard_count; ++i) {
    std::uint64_t count = 0;
    status = in.U64(&count);
    if (!status.ok()) return status;
    if (count > in.left() / sizeof(double)) {
      return Status::IoError("snapshot data stream: absurd shard length");
    }
    std::vector<double>& state =
        shards.emplace_back(static_cast<std::size_t>(count));
    status = in.Read(state.data(), count * sizeof(double));
    if (!status.ok()) return status;
  }
  // The profile block is the rest of the stream.
  std::string profile_block(static_cast<std::size_t>(in.left()), '\0');
  status = in.Read(profile_block.data(), profile_block.size());
  if (!status.ok()) return status;
  if (in.crc() != file.meta.data_crc) {
    return Status::IoError("snapshot data stream checksum mismatch");
  }
  status = DecodeProfileBlock(profile_block, &file.profile);
  if (!status.ok()) return status;
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
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd < 0) return ErrnoStatus("open dir " + dir);
  Result<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(dir + "/" + kWalFile);
  if (!wal.ok()) {
    ::close(dir_fd);
    return wal.status();
  }
  return std::unique_ptr<EpochStore>(
      new EpochStore(dir, dir_fd, std::move(wal).value()));
}

EpochStore::~EpochStore() { ::close(dir_fd_); }

Status EpochStore::Writable() const {
  // Only a write path sets either, and each refuses once one is set, so
  // both are set only when Recover's torn-tail truncation failed after
  // the store's own fsync did.
  const Status& first =
      sync_failure_.ok() ? wal_->sync_failure() : sync_failure_;
  if (first.ok()) return first;
  return Status::IoError("state store stopped until it is reopened: " +
                         first.message());
}

Result<std::uint64_t> EpochStore::AppendSpend(double epsilon,
                                              const std::string& purpose) {
  if (Status writable = Writable(); !writable.ok()) return writable;
  WalRecord record;
  record.type = WalRecordType::kSpend;
  record.epsilon = epsilon;
  record.purpose = purpose;
  return wal_->Append(record);
}

Status EpochStore::AppendEpochSwap(std::uint64_t epoch) {
  if (Status writable = Writable(); !writable.ok()) return writable;
  WalRecord record;
  record.type = WalRecordType::kEpochSwap;
  record.epoch = epoch;
  return wal_->Append(record).status();
}

Status EpochStore::RollbackTo(std::uint64_t wal_offset) {
  if (Status writable = Writable(); !writable.ok()) return writable;
  return wal_->TruncateTo(wal_offset);
}

Status EpochStore::PersistSnapshot(const Snapshot& snapshot,
                                   const planner::WorkloadProfile* profile,
                                   bool* installed) {
  if (installed != nullptr) *installed = false;
  if (Status writable = Writable(); !writable.ok()) return writable;
  DataStream stream;
  ViewDataStream(snapshot, profile, &stream);
  const std::string meta = EncodeMetaPayload(snapshot, stream);

  const std::string tmp_path = dir_ + "/" + kSnapshotTmpFile;
  {
    const ScopedFd fd(
        ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644));
    if (fd.get() < 0) return ErrnoStatus("open " + tmp_path);
    Result<std::uint64_t> pages =
        WriteSnapshotPages(fd.get(), tmp_path, meta, stream, staging_);
    if (!pages.ok()) return pages.status();
    Status synced = SyncFd(fd.get(), tmp_path, &sync_failure_);
    if (!synced.ok()) return synced;
    stats_.snapshot_pages_written += pages.value();
  }

  const std::string final_path = dir_ + "/" + kSnapshotFile;
  if (::rename(tmp_path.c_str(), final_path.c_str()) < 0) {
    return ErrnoStatus("rename " + tmp_path);
  }
  if (installed != nullptr) *installed = true;
  return SyncFd(dir_fd_, "dir " + dir_, &sync_failure_);
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
  Result<SnapshotFile> read =
      ReadSnapshotFile(fd.get(), snapshot_path, staging_);
  if (!read.ok()) return read.status();
  SnapshotFile file = std::move(read).value();

  Result<std::shared_ptr<const Snapshot>> snapshot = Snapshot::Restore(
      file.meta.options, file.meta.epoch, file.meta.domain_size,
      std::move(file.shard_states));
  if (!snapshot.ok()) return snapshot.status();
  state.snapshot = std::move(snapshot).value();
  state.profile = std::move(file.profile);
  return state;
}

}  // namespace dphist::storage
