// The storage layer's POSIX write path, shared by the write-ahead log
// and the epoch store: errno to Status, a whole-buffer write(2) and an
// fsync(2), each retrying EINTR. Every durable byte the store writes
// goes through these, so a fault-injection test has one place to hook;
// SyncFd carries the one hook there is (g_sync_fault_for_test), and
// keeps the first fsync that failed for the store's stop rule.
// Internal to src/storage/.

#ifndef DPHIST_STORAGE_FD_IO_H_
#define DPHIST_STORAGE_FD_IO_H_

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <string>

#include "common/status.h"

namespace dphist::storage {

/// IoError "`what`: strerror(errno)".
inline Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

/// write(2) of all `size` bytes, retrying EINTR and short writes.
inline Status WriteAll(int fd, const void* data, std::size_t size,
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

/// Test-only fault injection, null in every program. When set, SyncFd
/// first calls it with its `what` ("dir DIR" for the state directory,
/// else a file's path); a non-zero return fails that fsync with the
/// returned errno, before fsync(2) runs. Set it only while no store
/// call is running, and reset it to null after.
inline int (*g_sync_fault_for_test)(const std::string& what) = nullptr;

/// fsync(2), retrying EINTR; a failure names "fsync `what`" and is kept
/// in `*first_failure` unless an earlier one is there. After a failed
/// fsync the kernel may have dropped the dirty pages and cleared the
/// error, so a later fsync of the same file can report success for bytes
/// that never reached the disk: the first failure is the one to act on.
inline Status SyncFd(int fd, const std::string& what, Status* first_failure) {
  const int injected =
      g_sync_fault_for_test != nullptr ? g_sync_fault_for_test(what) : 0;
  int rc = -1;
  if (injected != 0) {
    errno = injected;
  } else {
    do {
      rc = ::fsync(fd);
    } while (rc < 0 && errno == EINTR);
  }
  if (rc == 0) return Status::Ok();
  Status failed = ErrnoStatus("fsync " + what);
  if (first_failure->ok()) *first_failure = failed;
  return failed;
}

}  // namespace dphist::storage

#endif  // DPHIST_STORAGE_FD_IO_H_
