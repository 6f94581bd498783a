// Socket transport for the serving runtime: real network traffic into
// the stream-agnostic session layer.
//
// SocketServer binds a non-blocking listening socket (loopback by
// default; see TransportOptions::bind_addr) and runs a fixed set of
// worker threads, each driving its own epoll readiness loop (poll(2) on
// non-Linux builds). There is no accept thread: the listener is one more
// fd in worker 0's loop, which accepts until EAGAIN and hands each
// connection round-robin to a worker (itself included) through that
// worker's incoming queue and self-pipe. Worker 0 alone accepts and alone
// closes the listener (after max_sessions accepts, or at Stop), so no fd
// is ever closed under another thread's accept. No loop waits on a
// timeout: Stop wakes every worker through its pipe and joins it.
//
// A connection is a state machine in one worker's shard, never a thread
// of its own, so thousands of idle REPLs cost file descriptors, not
// stacks, and a connection's whole lifetime runs on one thread with no
// per-connection locks:
//
//   read buffer -> parse (text line or binary frame) -> execute against
//   the shared QueryService via a SessionExecutor -> write buffer,
//   flushed as the socket accepts bytes (EPOLLOUT backpressure: a slow
//   reader pauses its own reads once its write buffer passes the high
//   watermark, and only its own).
//
// All connections share ONE QueryService and ONE EpochManager:
//
//   - each connection owns a private write buffer and SessionWriter, so
//     per-connection transcripts can never interleave mid-line;
//   - each session reads the manager's one outcome log by its own
//     cursor, and completed replans are PUSHED into every session's
//     write buffer (the manager's announcement notifier wakes every
//     worker), so every client sees every replan announcement exactly
//     once — without waiting for its own next command. A connection
//     that has not picked its protocol yet reads the log once it does;
//     until then it holds only its cursor;
//   - queries from every connection feed the same observed-traffic
//     profile, so the every-N and drift triggers fire on the aggregate
//     load, and a republish lands for all clients at once (each
//     in-flight batch still finishes under the epoch it started on).
//
// Two protocols share the port. A connection opens in text mode (an
// "auth <token>" line first when a token is configured), then gets the
// same "# serving ..." banner as the stdin REPL; a client whose first
// post-banner byte is wire::kMagic switches to the length-prefixed
// binary frame protocol (wire_format.h — batched queries in, batched
// answers + epoch receipts out, replan announcements as push frames),
// anything else speaks the line-text protocol byte-for-byte unchanged
// and closes with the "# served N queries ..." receipt.
//
// `quit`/GOODBYE intentionally drains any in-flight replan before the
// final receipt (deterministic transcript endings — the CI smoke greps
// for announcements before the receipt). The drain blocks one worker for
// the tail of one snapshot build; the other shards keep serving, and
// when the blocked worker is worker 0, new connections wait that long
// for their banner.
//
// SocketStream / ConnectLoopback / ConnectTcp are exposed for text
// clients (tests, the socket bench, bash-style scripts driven from
// C++); BinaryClient is the frame-protocol equivalent.

#ifndef DPHIST_RUNTIME_TRANSPORT_H_
#define DPHIST_RUNTIME_TRANSPORT_H_

#include <atomic>
#include <cstdint>
#include <istream>
#include <memory>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "runtime/epoch_manager.h"
#include "runtime/serving_loop.h"
#include "runtime/wire_format.h"
#include "service/query_service.h"

namespace dphist::runtime {

/// Buffered std::streambuf over a connected socket fd (both
/// directions). Does not own the fd.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd);

  /// Flushes that failed to deliver every pending byte. A session whose
  /// answers were silently dropped by a dying connection used to look
  /// identical to a clean one; this counter is what `stats` and the
  /// server's final receipt surface instead.
  std::uint64_t write_errors() const {
    return write_errors_.load(std::memory_order_relaxed);
  }

 protected:
  int_type underflow() override;
  int_type overflow(int_type ch) override;
  int sync() override;

 private:
  /// Writes every pending output byte (looping over short writes).
  bool FlushOut();

  static constexpr std::size_t kBufSize = 1 << 13;
  int fd_;
  char in_buf_[kBufSize];
  char out_buf_[kBufSize];
  /// Atomic: bumped on the session thread, read from other threads.
  std::atomic<std::uint64_t> write_errors_{0};
};

/// Owning iostream over a connected socket: closes the fd on
/// destruction, flushing buffered output first.
class SocketStream : public std::iostream {
 public:
  explicit SocketStream(int fd);
  ~SocketStream() override;

  SocketStream(const SocketStream&) = delete;
  SocketStream& operator=(const SocketStream&) = delete;

  int fd() const { return fd_; }

  /// See FdStreamBuf::write_errors.
  std::uint64_t write_errors() const { return buf_.write_errors(); }

 private:
  FdStreamBuf buf_;
  int fd_;
};

/// Connects to 127.0.0.1:`port` and returns a ready client stream
/// (TCP_NODELAY set: the session protocol is request/response).
Result<std::unique_ptr<SocketStream>> ConnectLoopback(int port);

/// Connects to a numeric IPv4 address (no DNS — "10.0.0.7", not a
/// hostname) on `port`.
Result<std::unique_ptr<SocketStream>> ConnectTcp(const std::string& host,
                                                 int port);

/// Blocking binary-protocol client: reads the text banner, performs the
/// auth handshake when a token is given, sends the negotiation magic
/// byte, and consumes the HELLO frame. Thereafter any number of
/// requests may be pipelined (Send* then one Read* per expected reply;
/// the server answers in order). Not thread-safe.
class BinaryClient {
 public:
  /// A frame with owned payload bytes (safe past the next read).
  struct OwnedFrame {
    wire::FrameType type = wire::FrameType::kNote;
    std::string payload;
  };

  /// `host` as in ConnectTcp; empty auth_token skips the handshake.
  static Result<std::unique_ptr<BinaryClient>> Connect(
      const std::string& host, int port, const std::string& auth_token = "");

  /// The server's negotiation ack (protocol version, domain, epoch).
  const wire::HelloFrame& hello() const { return hello_; }
  /// The text banner line (without the trailing newline).
  const std::string& banner() const { return banner_; }

  /// Request senders; buffered until Flush (pipelining: send many, then
  /// flush once).
  void SendQuery(std::uint64_t id, std::uint64_t expect_epoch,
                 const Interval* ranges, std::size_t count);
  void SendStats(std::uint64_t id);
  void SendReplan(std::uint64_t id);
  void SendGoodbye();
  Status Flush();

  /// Blocks for the next frame of any type (pushes included).
  Result<OwnedFrame> ReadFrame();

  /// Reads until a reply frame (ANSWERS / STATS_TEXT / ERROR / BYE)
  /// arrives; push frames (PLAN / NOTE) encountered on the way are
  /// appended to `pushes` when non-null, dropped otherwise.
  Result<OwnedFrame> ReadReply(std::vector<OwnedFrame>* pushes = nullptr);

 private:
  explicit BinaryClient(std::unique_ptr<SocketStream> stream)
      : stream_(std::move(stream)) {}

  std::unique_ptr<SocketStream> stream_;
  std::string banner_;
  wire::HelloFrame hello_;
  std::string sendbuf_;
  std::string recvbuf_;
};

struct TransportOptions {
  /// Port to listen on; 0 asks the kernel for an ephemeral port (read
  /// the resolved one from SocketServer::port()).
  int port = 0;
  /// Numeric IPv4 address to bind. The default stays loopback-only;
  /// binding anything else ("0.0.0.0", a NIC address) exposes the
  /// server off-host — pair it with auth_token.
  std::string bind_addr = "127.0.0.1";
  /// Accept at most this many connections, then close the listener and
  /// let WaitUntilStopped return once they finish; 0 = accept until
  /// Stop().
  std::int64_t max_sessions = 0;
  /// Worker threads, each driving its own readiness loop over its shard
  /// of the connections; worker 0's loop also owns the listener.
  /// Clamped to at least 1.
  int workers = 2;
  /// Non-empty requires every connection to open with "auth <token>"
  /// (constant-time compare) before anything is served; failed
  /// handshakes are counted, answered with one error line, and closed.
  std::string auth_token;
};

/// TCP listener and worker readiness loops over one shared QueryService
/// + EpochManager. All public methods are thread-safe.
class SocketServer {
 public:
  /// The service must already have a published snapshot (PublishInitial
  /// first) before Start() accepts the first connection.
  SocketServer(QueryService& service, EpochManager& manager,
               const TransportOptions& options);

  /// Stops and joins everything.
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds bind_addr:port, listens, starts the workers (worker 0 watches
  /// the listener), and registers the announcement push notifier.
  Status Start();

  /// The bound port (resolves port 0); 0 before Start().
  int port() const;

  /// Closes the listener, force-closes every active connection, and
  /// joins the workers. Idempotent; a concurrent caller returns once the
  /// joins are done.
  void Stop();

  /// Blocks until the listener is closed (Stop() was called, or
  /// max_sessions connections were accepted) and every accepted
  /// connection has completed. Does NOT force active sessions to end.
  void WaitUntilStopped();

  struct Stats {
    std::uint64_t accepted = 0;        // connections accepted
    std::uint64_t completed = 0;       // sessions ended (incl. errors)
    std::uint64_t session_errors = 0;  // sessions that ended in error
    std::uint64_t auth_failures = 0;   // handshakes refused and closed
    std::uint64_t queries = 0;         // ranges answered across sessions
    std::uint64_t batches = 0;         // qb commands + QUERY frames
    std::uint64_t replans_announced = 0;  // PLAN frames + "# planned"
    std::uint64_t text_sessions = 0;      // completed line-text sessions
    std::uint64_t binary_sessions = 0;    // completed frame sessions
    std::uint64_t write_errors = 0;    // flushes that lost output bytes
  };
  Stats stats() const;

 private:
  struct Worker;
  enum class State { kIdle, kRunning, kStopping, kStopped };

  /// One worker's readiness loop until Stop; worker 0's also accepts.
  void WorkerLoop(Worker& worker);

  QueryService& service_;
  EpochManager& manager_;
  const TransportOptions options_;

  mutable Mutex mutex_;
  CondVar state_cv_;
  /// kIdle until Start succeeds; the first Stop moves kRunning to
  /// kStopping, joins the workers unlocked, then sets kStopped.
  State state_ DPHIST_GUARDED_BY(mutex_) = State::kIdle;
  /// Filled by Start before any worker runs and never resized before
  /// the destructor, so Stop may join through raw pointers it copied
  /// out under mutex_ while the loops take mutex_ to record sessions.
  std::vector<std::unique_ptr<Worker>> workers_ DPHIST_GUARDED_BY(mutex_);
  /// Round-robin cursor for handing accepted connections to workers.
  std::uint64_t next_worker_ DPHIST_GUARDED_BY(mutex_) = 0;
  int port_ DPHIST_GUARDED_BY(mutex_) = 0;
  /// True from Start until worker 0 closes the listener, so waiters
  /// never block on a listener that was never opened.
  bool listening_ DPHIST_GUARDED_BY(mutex_) = false;
  Stats stats_ DPHIST_GUARDED_BY(mutex_);
};

/// Constant-time equality for secrets: the comparison time depends only
/// on the lengths, never on where the first mismatch sits.
bool ConstantTimeEquals(std::string_view a, std::string_view b);

}  // namespace dphist::runtime

#endif  // DPHIST_RUNTIME_TRANSPORT_H_
