// Fixed worker pool driving a readiness loop over non-blocking sessions.
//
// The PR 5 transport parked one thread per connection in a blocking
// read — fine for 4 clients, fatal for 10k (stacks, scheduler churn,
// and a thread-per-idle-REPL cost model). SessionPool replaces that:
// a fixed set of worker threads, each owning an epoll instance (poll(2)
// on non-Linux builds) over a shard of the accepted connections. Every
// connection is a state machine, not a thread:
//
//   read buffer -> parse (text line or binary frame) -> execute against
//   the shared QueryService via a SessionExecutor -> write buffer,
//   flushed as the socket accepts bytes (EPOLLOUT backpressure: a slow
//   reader pauses its own reads once its write buffer passes the high
//   watermark, and only its own).
//
// Connections are sharded round-robin across workers at adoption and
// never migrate, so a connection's entire lifetime runs on one thread —
// no per-connection locks anywhere. Cross-thread signals (adoption,
// stop, completed-replan announcements) arrive over a self-pipe each
// worker keeps in its poll set.
//
// Both protocols run through the same state machine. A connection opens
// in text mode (auth line first when a token is configured, then the
// "# serving ..." banner); the first post-banner byte selects the
// protocol — wire::kMagic switches to length-prefixed frames (see
// wire_format.h), anything else is the line-text REPL, byte-for-byte
// unchanged. Completed replans are PUSHED: the EpochManager's
// announcement notifier wakes every worker, which drains each session's
// subscription into its write buffer ("# planned ..." lines or PLAN
// frames) without waiting for the client's next command.
//
// `quit`/GOODBYE intentionally drains any in-flight replan before the
// final receipt (deterministic transcript endings — the CI smoke greps
// for announcements before the receipt). The drain blocks one worker
// for the tail of one snapshot build; with several workers the other
// shards keep serving.

#ifndef DPHIST_RUNTIME_SESSION_POOL_H_
#define DPHIST_RUNTIME_SESSION_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "runtime/epoch_manager.h"
#include "runtime/serving_loop.h"
#include "service/query_service.h"

namespace dphist::runtime {

/// Everything the server wants to know about one finished session.
struct SessionDone {
  SessionSummary summary;
  /// Non-OK when the session ended in error (no published snapshot,
  /// protocol violation, refused auth handshake).
  Status status = Status::Ok();
  std::uint64_t write_errors = 0;
  bool auth_failed = false;
  bool binary = false;  // negotiated the frame protocol
};

struct SessionPoolOptions {
  /// Worker threads, each driving its own readiness loop over its shard
  /// of the connections. Clamped to at least 1.
  int workers = 2;
  /// Non-empty enables the auth handshake: the first line of every
  /// connection must be "auth <token>" (constant-time compare) before
  /// the banner is sent; failures are counted, answered with one error
  /// line, and closed.
  std::string auth_token;
  /// Invoked on the worker thread after each connection closes (for any
  /// reason, including a forced Stop()).
  std::function<void(const SessionDone&)> on_session_done;
};

/// The worker pool. Thread-safe: Adopt/NotifyAnnouncements/Stop may be
/// called from any thread.
class SessionPool {
 public:
  SessionPool(QueryService& service, EpochManager& manager,
              const SessionPoolOptions& options);
  ~SessionPool();

  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  /// Spawns the workers.
  Status Start();

  /// Hands a freshly accepted connection to a worker (round-robin). The
  /// pool owns the fd from here on. Returns false (and closes the fd)
  /// when the pool is stopping.
  bool Adopt(int fd);

  /// Wakes every worker to drain completed-replan announcements into
  /// session write buffers. Bound to
  /// EpochManager::SetAnnouncementNotifier by the server.
  void NotifyAnnouncements();

  /// Force-closes every connection (their on_session_done callbacks
  /// still fire) and joins the workers. Idempotent.
  void Stop();

  /// Live connections across all workers (approximate — adoption and
  /// closes race it).
  std::int64_t active_connections() const {
    return active_.load(std::memory_order_relaxed);
  }

 private:
  struct Worker;

  void WorkerLoop(Worker& worker);

  QueryService& service_;
  EpochManager& manager_;
  const SessionPoolOptions options_;
  Mutex start_mutex_;
  /// Created by Start, joined by Stop — both under start_mutex_, so a
  /// Stop racing another Stop (or the destructor) can never join the
  /// same std::thread twice, and an Adopt racing Start can never read a
  /// half-built vector. Worker loops never touch this vector (each gets
  /// its own Worker& at spawn), so holding the lock across the joins
  /// cannot deadlock.
  std::vector<std::unique_ptr<Worker>> workers_
      DPHIST_GUARDED_BY(start_mutex_);
  std::atomic<std::uint64_t> next_worker_{0};
  std::atomic<std::int64_t> active_{0};
  std::atomic<bool> stopping_{false};
  bool started_ DPHIST_GUARDED_BY(start_mutex_) = false;
};

/// Constant-time equality for secrets: the comparison time depends only
/// on the lengths, never on where the first mismatch sits.
bool ConstantTimeEquals(std::string_view a, std::string_view b);

}  // namespace dphist::runtime

#endif  // DPHIST_RUNTIME_SESSION_POOL_H_
