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
//                    stream), pages 1..N carry the data stream: the
//                    shard count, each shard's release state
//                    (Snapshot::shard_state: count, then doubles), and
//                    the planner's WorkloadProfile. Replaced atomically
//                    by every publish, so the file is always a complete
//                    epoch.
//                    A publish never builds the stream as one buffer:
//                    it checksums the stream piece by piece where the
//                    release holds it, then copies the pieces into
//                    data pages that one reusable 64-page staging
//                    buffer seals in place, writing each full buffer
//                    front to back into a fresh temp file. The temp
//                    file is fsynced, renamed over snapshot.db, and the
//                    directory (open since Open) fsynced. Recovery
//                    reads the file front to back in the same batches,
//                    verifies every page it uses, and copies each
//                    payload's bytes straight to where the restored
//                    release keeps them: every shard's doubles into
//                    that shard's array, sized from its count once the
//                    count is read (a count the rest of the stream
//                    cannot hold is refused first), and the profile
//                    block into a small buffer. Nothing holds the
//                    whole stream, on the way out or back in.
//
// Ordering contract with the EpochManager (all under the busy token):
//
//   gate -> AppendSpend -> build -> AppendEpochSwap -> PersistSnapshot
//        -> commit (in-memory swap)
//
// A crash between AppendSpend and the commit loses at most the epsilon
// of a release that never served a byte — conservative by construction:
// budget can be lost to a crash, never minted, and no served release is
// ever uncharged. A failure before PersistSnapshot's rename is rolled
// back by truncating the WAL to the offset AppendSpend returned (plus
// PrivacyAccountant::RollbackLast in memory, which matches the
// truncated replay bit for bit); snapshot.db still holds the previous
// release. The rename rule: once the rename has returned, snapshot.db
// holds the new release and a restart will serve it, so a failure after
// it (the directory fsync) keeps the spend and swap records and the
// in-memory charge, and the publish still does not commit.
//
// The fsync rule: after a failed fsync the kernel may drop the dirty
// pages and clear the error, so a later fsync can report success for
// bytes that never reached the disk. The store therefore remembers the
// first fsync that failed — the WAL append's, the WAL truncate's, the
// snapshot temp file's or the directory's — and until the next Open
// every AppendSpend, AppendEpochSwap, RollbackTo and PersistSnapshot
// returns an IoError naming it. A refused spend is never charged, and
// serving continues on the last committed release. Recover only reads
// (bar truncating a torn WAL tail) and still works; a restart reopens
// the store and rebuilds its state from what the disk actually holds.
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
  /// durable state at `dir`, and holds the directory open for the
  /// fsync that makes each snapshot rename durable.
  static Result<std::unique_ptr<EpochStore>> Open(const std::string& dir);

  ~EpochStore();
  EpochStore(const EpochStore&) = delete;
  EpochStore& operator=(const EpochStore&) = delete;

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
  /// (each shard's shard_state()) plus the optional planner profile.
  /// When `installed` is given it is set to whether the rename
  /// returned: a failure with it false left the old snapshot file in
  /// place, one with it true (the directory fsync failed) left the new
  /// release in snapshot.db, so its spend must stay charged.
  Status PersistSnapshot(const Snapshot& snapshot,
                         const planner::WorkloadProfile* profile,
                         bool* installed = nullptr);

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

  /// OK until an fsync has failed; then the IoError every write returns.
  Status Writable() const;

  EpochStore(std::string dir, int dir_fd, std::unique_ptr<WriteAheadLog> wal)
      : dir_(std::move(dir)),
        dir_fd_(dir_fd),
        wal_(std::move(wal)),
        staging_(kStagingPages) {}

  std::string dir_;
  /// `dir_` opened read-only at Open, so no persist has to open it
  /// after its rename; closed by the destructor.
  int dir_fd_;
  std::unique_ptr<WriteAheadLog> wal_;
  /// The one buffer PersistSnapshot seals snapshot.db's pages in and
  /// Recover reads them through.
  std::vector<Page> staging_;
  Stats stats_;
  /// The first fsync of a snapshot temp file or of the directory that
  /// failed since Open, or OK; the WAL keeps its own (sync_failure()).
  Status sync_failure_;
};

}  // namespace dphist::storage

#endif  // DPHIST_STORAGE_EPOCH_STORE_H_
