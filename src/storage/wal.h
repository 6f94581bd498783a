// Write-ahead log of privacy-budget spends and epoch swaps.
//
// The accountant's ledger is the privacy guarantee's memory: sequential
// composition (paper Section 2.1) sums epsilon over every release ever
// made, so the ledger must survive the process. Every record is
// appended AND fsynced before the action it describes becomes visible
// in memory:
//
//   kSpend      one accountant Spend — epsilon (bit-exact) + purpose.
//               Appended after the budget gate admits the spend and
//               before the snapshot build starts, so a crash at any
//               later point still counts the epsilon (conservative:
//               budget can be lost to a crash, never minted by one).
//   kEpochSwap  the publish that spend paid for is about to become the
//               served epoch. Recovery uses these to anchor the epoch
//               counter; a spend with no following swap is the
//               signature of a crash mid-publish.
//
// Replay semantics: a torn tail (partial final record — the crash wrote
// some bytes of an append that never fsynced) is NOT corruption; replay
// returns every complete record and reports the clean prefix length so
// the store can truncate the tail away. A checksum or structure error
// in the middle of the file IS corruption and fails with IoError —
// serving from a ledger that cannot be reproduced exactly would void
// the privacy guarantee.
//
// Not thread-safe; serialized by the epoch store.

#ifndef DPHIST_STORAGE_WAL_H_
#define DPHIST_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace dphist::storage {

enum class WalRecordType : std::uint16_t {
  kSpend = 1,
  kEpochSwap = 2,
};

struct WalRecord {
  WalRecordType type = WalRecordType::kSpend;
  /// kSpend fields: the exact epsilon charged and the ledger label.
  double epsilon = 0.0;
  std::string purpose;
  /// kEpochSwap field: the epoch becoming current.
  std::uint64_t epoch = 0;
};

/// What a replay found.
struct WalReplay {
  std::vector<WalRecord> records;
  /// File offset just past the last complete record. Smaller than the
  /// file size exactly when a torn tail was skipped.
  std::uint64_t clean_size = 0;
  bool tail_torn = false;
};

class WriteAheadLog {
 public:
  /// Opens (creating if absent) the log at `path` for appending.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends and fsyncs one record. Returns the offset the record
  /// starts at — pass it to TruncateTo to roll the record back (only
  /// valid while nothing was appended after it).
  Result<std::uint64_t> Append(const WalRecord& record);

  /// Drops everything at and after `offset` (rollback of the most
  /// recent append(s) when the action they described failed).
  Status TruncateTo(std::uint64_t offset);

  /// Reads the log from the start (see replay semantics above).
  Result<WalReplay> Replay() const;

  /// Current append offset.
  std::uint64_t size() const { return size_; }

  /// The first fsync of this log that failed since Open, or OK (see
  /// SyncFd): the epoch store stops writing on it.
  const Status& sync_failure() const { return sync_failure_; }

 private:
  WriteAheadLog(std::string path, int fd, std::uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_;
  std::uint64_t size_;
  Status sync_failure_;
};

}  // namespace dphist::storage

#endif  // DPHIST_STORAGE_WAL_H_
