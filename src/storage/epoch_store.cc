#include "storage/epoch_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "storage/codec.h"
#include "storage/page.h"

namespace dphist::storage {
namespace {

constexpr std::uint16_t kSnapshotFormatVersion = 1;
constexpr char kWalFile[] = "wal.log";
constexpr char kSnapshotFile[] = "snapshot.db";
constexpr char kSnapshotTmpFile[] = "snapshot.db.tmp";
/// Recovery's pool only rescans the file once; keep it small.
constexpr std::size_t kPoolFrames = 32;

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// fsync on the directory so a rename inside it is itself durable.
Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return ErrnoStatus("open dir " + dir);
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc < 0 && errno == EINTR);
  const int saved = errno;
  ::close(fd);
  if (rc < 0) {
    errno = saved;
    return ErrnoStatus("fsync dir " + dir);
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
  Result<std::uint64_t> offset = wal_->Append(record);
  if (offset.ok()) stats_.spends_logged += 1;
  return offset;
}

Status EpochStore::AppendEpochSwap(std::uint64_t epoch) {
  WalRecord record;
  record.type = WalRecordType::kEpochSwap;
  record.epoch = epoch;
  Result<std::uint64_t> offset = wal_->Append(record);
  if (!offset.ok()) return offset.status();
  stats_.swaps_logged += 1;
  return Status::Ok();
}

Status EpochStore::RollbackTo(std::uint64_t wal_offset) {
  Status status = wal_->TruncateTo(wal_offset);
  if (status.ok()) stats_.rollbacks += 1;
  return status;
}

Status EpochStore::PersistSnapshot(const Snapshot& snapshot,
                                   const planner::WorkloadProfile* profile) {
  Result<std::string> stream = EncodeDataStream(snapshot, profile);
  if (!stream.ok()) return stream.status();
  const std::string& data = stream.value();
  const std::string meta = EncodeMetaPayload(snapshot, data);

  const std::string tmp_path = dir_ + "/" + kSnapshotTmpFile;
  {
    Result<std::unique_ptr<DiskManager>> disk =
        DiskManager::Open(tmp_path, /*create=*/true);
    if (!disk.ok()) return disk.status();
    BufferPool pool(disk.value().get(), kPoolFrames);

    Page page;
    Status sealed = SealPage(PageType::kSnapshotMeta, meta.data(),
                             meta.size(), &page);
    if (!sealed.ok()) return sealed;
    Status put = pool.Put(0, page);
    if (!put.ok()) return put;

    std::uint64_t page_id = 1;
    for (std::size_t offset = 0; offset < data.size();
         offset += kPagePayloadCapacity) {
      const std::size_t chunk =
          std::min(kPagePayloadCapacity, data.size() - offset);
      sealed = SealPage(PageType::kSnapshotData, data.data() + offset, chunk,
                        &page);
      if (!sealed.ok()) return sealed;
      put = pool.Put(page_id, page);
      if (!put.ok()) return put;
      ++page_id;
    }
    // An empty data stream is impossible (shard count is always
    // present), but an empty-page guard costs nothing: the reader walks
    // pages by data_bytes, not by file size.
    Status flushed = pool.FlushAll();
    if (!flushed.ok()) return flushed;
    stats_.snapshot_pages_written += page_id;
  }

  const std::string final_path = dir_ + "/" + kSnapshotFile;
  if (::rename(tmp_path.c_str(), final_path.c_str()) < 0) {
    return ErrnoStatus("rename " + tmp_path);
  }
  Status synced = SyncDir(dir_);
  if (!synced.ok()) return synced;
  stats_.snapshots_persisted += 1;
  return Status::Ok();
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
  struct stat info {};
  if (::stat(snapshot_path.c_str(), &info) < 0) {
    if (errno == ENOENT) return state;  // never persisted: WAL-only state
    return ErrnoStatus("stat " + snapshot_path);
  }

  Result<std::unique_ptr<DiskManager>> disk =
      DiskManager::Open(snapshot_path, /*create=*/false);
  if (!disk.ok()) return disk.status();
  BufferPool pool(disk.value().get(), kPoolFrames);

  Result<std::shared_ptr<const Page>> meta_page = pool.Fetch(0);
  if (!meta_page.ok()) return meta_page.status();
  Result<PageView> meta_view = OpenPage(*meta_page.value());
  if (!meta_view.ok()) return meta_view.status();
  if (meta_view.value().type != PageType::kSnapshotMeta) {
    return Status::IoError("snapshot page 0 is not a meta page");
  }
  Result<DecodedMeta> meta = DecodeMetaPayload(meta_view.value().payload);
  if (!meta.ok()) return meta.status();

  std::string data;
  data.reserve(meta.value().data_bytes);
  std::uint64_t page_id = 1;
  while (data.size() < meta.value().data_bytes) {
    Result<std::shared_ptr<const Page>> page = pool.Fetch(page_id);
    if (!page.ok()) return page.status();
    Result<PageView> view = OpenPage(*page.value());
    if (!view.ok()) return view.status();
    if (view.value().type != PageType::kSnapshotData) {
      return Status::IoError("snapshot page " + std::to_string(page_id) +
                             " is not a data page");
    }
    data.append(view.value().payload);
    ++page_id;
  }
  if (data.size() != meta.value().data_bytes) {
    return Status::IoError("snapshot data stream length mismatch");
  }
  if (Crc32(data.data(), data.size()) != meta.value().data_crc) {
    return Status::IoError("snapshot data stream checksum mismatch");
  }

  Result<DecodedDataStream> decoded = DecodeDataStream(data);
  if (!decoded.ok()) return decoded.status();
  DecodedDataStream stream = std::move(decoded).value();

  Result<std::shared_ptr<const Snapshot>> snapshot = Snapshot::Restore(
      meta.value().options, meta.value().epoch, meta.value().domain_size,
      stream.shard_states);
  if (!snapshot.ok()) return snapshot.status();
  state.snapshot = std::move(snapshot).value();
  state.profile = std::move(stream.profile);
  return state;
}

}  // namespace dphist::storage
