// Durable state of the adaptive serving runtime: the WAL of privacy
// spends plus the page-checksummed snapshot of the last published epoch.
//
// Layout of a state directory (`serve --state-dir DIR`):
//
//   DIR/wal.log      append-only WriteAheadLog (see wal.h): one kSpend
//                    record per accountant charge, one kEpochSwap per
//                    publish that became visible. The privacy ledger IS
//                    this file — recovery refolds it bit-exactly.
//   DIR/snapshot.db  fixed-size checksummed pages (page.h): page 0 is a
//                    kSnapshotMeta header (epoch, domain, the resolved
//                    SnapshotOptions, byte count and CRC of the data
//                    stream), pages 1..N carry the serialized per-shard
//                    estimator state and the planner's WorkloadProfile.
//                    Replaced atomically by every publish, so the file
//                    is always a complete epoch: the pages are written
//                    front to back into a fresh temp file, 64 at a time
//                    from one reusable staging buffer, then the temp
//                    file is fsynced, renamed over snapshot.db, and the
//                    directory fsynced. Recovery reads the file front to
//                    back in the same batches and verifies every page
//                    it uses, so neither direction holds a whole-file
//                    copy.
//
// Ordering contract with the EpochManager (all under the busy token):
//
//   gate -> AppendSpend -> build -> AppendEpochSwap -> PersistSnapshot
//        -> commit (in-memory swap)
//
// A crash between AppendSpend and the commit loses at most the epsilon
// of a release that never served a byte — conservative by construction:
// budget can be lost to a crash, never minted, and no served release is
// ever uncharged. A build failure after the spend is rolled back by
// truncating the WAL to the offset AppendSpend returned (plus
// PrivacyAccountant::RollbackLast in memory, which matches the
// truncated replay bit for bit).
//
// Not thread-safe; the EpochManager serializes all calls.

#ifndef DPHIST_STORAGE_EPOCH_STORE_H_
#define DPHIST_STORAGE_EPOCH_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "mechanism/privacy_accountant.h"
#include "planner/workload_profile.h"
#include "service/snapshot.h"
#include "storage/page.h"
#include "storage/wal.h"

namespace dphist::storage {

/// Everything Recover() reconstructs from a state directory.
struct RecoveredState {
  /// The spend ledger in WAL order; folding it reproduces the crashed
  /// process's accountant bit for bit (PrivacyAccountant::ImportLedger).
  std::vector<PrivacyAccountant::Entry> ledger;
  /// Highest epoch a kEpochSwap record committed; 0 when none did.
  std::uint64_t last_swap_epoch = 0;
  /// True when the WAL ended in a partial record (crash mid-append);
  /// the torn tail was truncated away before this was returned.
  bool wal_tail_torn = false;
  /// The last persisted release, rebuilt with bit-identical answers;
  /// null when no snapshot has ever been persisted.
  std::shared_ptr<const Snapshot> snapshot;
  /// The planner profile persisted with the snapshot, if any — lets a
  /// restarted server replan sensibly before new traffic accumulates.
  std::optional<planner::WorkloadProfile> profile;
};

class EpochStore {
 public:
  /// Opens (creating the directory and an empty WAL if needed) the
  /// durable state at `dir`.
  static Result<std::unique_ptr<EpochStore>> Open(const std::string& dir);

  /// Durably records one accountant charge BEFORE the release it pays
  /// for is built. Returns the record's WAL offset for RollbackTo.
  Result<std::uint64_t> AppendSpend(double epsilon,
                                    const std::string& purpose);

  /// Durably records that `epoch` is about to become the served epoch.
  Status AppendEpochSwap(std::uint64_t epoch);

  /// Rolls the WAL back to `wal_offset` (an offset AppendSpend or
  /// AppendEpochSwap returned / preceded) after the action the records
  /// described failed before becoming visible.
  Status RollbackTo(std::uint64_t wal_offset);

  /// Atomically replaces snapshot.db with the serialized `snapshot`
  /// (via SerializableState per shard) plus the optional planner
  /// profile. The old snapshot file survives any failure here.
  Status PersistSnapshot(const Snapshot& snapshot,
                         const planner::WorkloadProfile* profile);

  /// Replays the WAL (truncating a torn tail) and loads the persisted
  /// snapshot, refusing loudly — IoError, never garbage — on any
  /// checksum or structure violation that is not a crash signature,
  /// including a snapshot.db that is empty, torn mid-page, or ends
  /// before its data stream does.
  Result<RecoveredState> Recover();

  const std::string& dir() const { return dir_; }
  std::uint64_t wal_size() const { return wal_->size(); }

  struct Stats {
    std::uint64_t snapshot_pages_written = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Pages per sequential write or read batch (256 KB).
  static constexpr std::size_t kStagingPages = 64;

  EpochStore(std::string dir, std::unique_ptr<WriteAheadLog> wal)
      : dir_(std::move(dir)), wal_(std::move(wal)), staging_(kStagingPages) {}

  std::string dir_;
  std::unique_ptr<WriteAheadLog> wal_;
  /// The one buffer PersistSnapshot and Recover move snapshot.db
  /// through, so neither holds a whole-file copy.
  std::vector<Page> staging_;
  Stats stats_;
};

}  // namespace dphist::storage

#endif  // DPHIST_STORAGE_EPOCH_STORE_H_
