// Socket transport for the serving runtime: real network traffic into
// the stream-agnostic session layer.
//
// SocketServer binds a listening socket (loopback by default; see
// TransportOptions::bind_addr) and runs one accept loop; accepted
// connections are handed to a fixed-size SessionPool of worker threads
// driving an epoll/poll readiness loop (see session_pool.h) — a
// connection is a state machine in a worker's shard, never a dedicated
// thread, so thousands of idle REPLs cost file descriptors, not stacks.
// All connections share ONE QueryService and ONE EpochManager:
//
//   - each connection owns a private write buffer and SessionWriter, so
//     per-connection transcripts can never interleave mid-line;
//   - each session holds its own EpochManager subscription, and
//     completed replans are PUSHED into every session's write buffer
//     (the manager's announcement notifier wakes the pool), so every
//     client sees every replan announcement exactly once — without
//     waiting for its own next command;
//   - queries from every connection feed the same observed-traffic
//     profile, so the every-N and drift triggers fire on the aggregate
//     load, and a republish lands for all clients at once (each
//     in-flight batch still finishes under the epoch it started on).
//
// Two protocols share the port. A session opens with the same
// "# serving ..." banner as the stdin REPL; a client whose first
// post-banner byte is wire::kMagic switches to the length-prefixed
// binary frame protocol (wire_format.h — batched queries in, batched
// answers + epoch receipts out, replan announcements as push frames),
// anything else speaks the line-text protocol byte-for-byte unchanged
// and closes with the "# served N queries ..." receipt.
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
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "runtime/epoch_manager.h"
#include "runtime/serving_loop.h"
#include "runtime/session_pool.h"
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
  /// True once a read saw a clean FIN (recv returned 0): the peer
  /// finished and hung up on purpose.
  bool orderly_eof() const {
    return orderly_eof_.load(std::memory_order_relaxed);
  }
  /// True once a read failed with ECONNRESET: the peer vanished
  /// mid-conversation rather than closing.
  bool peer_reset() const {
    return peer_reset_.load(std::memory_order_relaxed);
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
  /// Atomics: bumped on the session thread, read by the server's stats
  /// aggregation from other threads.
  std::atomic<std::uint64_t> write_errors_{0};
  std::atomic<bool> orderly_eof_{false};
  std::atomic<bool> peer_reset_{false};
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

  /// See FdStreamBuf::write_errors / orderly_eof / peer_reset.
  std::uint64_t write_errors() const { return buf_.write_errors(); }
  bool orderly_eof() const { return buf_.orderly_eof(); }
  bool peer_reset() const { return buf_.peer_reset(); }

  /// Shuts the socket down in both directions, unblocking a thread
  /// parked in a read. Safe to call from another thread.
  void Shutdown();

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
  /// Listen backlog.
  int backlog = 128;
  /// Accept at most this many connections, then stop accepting and let
  /// WaitUntilStopped return once they finish; 0 = accept until Stop().
  std::int64_t max_sessions = 0;
  /// Worker threads in the session pool.
  int workers = 2;
  /// Non-empty requires every connection to open with "auth <token>"
  /// (constant-time compare) before anything is served; failed
  /// handshakes are counted and closed.
  std::string auth_token;
};

/// TCP listener fanning connections into the worker-pool readiness loop
/// over one shared QueryService + EpochManager. All public methods are
/// thread-safe.
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

  /// Binds bind_addr:port, listens, starts the worker pool and the
  /// accept loop, and registers the announcement push notifier.
  Status Start();

  /// The bound port (resolves port 0); 0 before Start().
  int port() const;

  /// Stops accepting, force-closes every active connection, and joins
  /// the accept loop and the worker pool. Idempotent.
  void Stop();

  /// Blocks until the accept loop has exited (Stop() was called, or
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
  void AcceptLoop();

  QueryService& service_;
  EpochManager& manager_;
  const TransportOptions options_;

  mutable Mutex mutex_;
  /// Created by Start() and never replaced while the accept loop or the
  /// workers run; users snapshot the raw pointer under mutex_ and call
  /// it unlocked (SessionPool is itself thread-safe).
  std::unique_ptr<SessionPool> pool_ DPHIST_GUARDED_BY(mutex_);
  int listen_fd_ DPHIST_GUARDED_BY(mutex_) = -1;
  int port_ DPHIST_GUARDED_BY(mutex_) = 0;
  bool stopping_ DPHIST_GUARDED_BY(mutex_) = false;
  bool started_ DPHIST_GUARDED_BY(mutex_) = false;
  /// True once the accept loop has exited (and before Start()), so
  /// waiters never block on a loop that was never started.
  bool accept_done_ DPHIST_GUARDED_BY(mutex_) = true;
  CondVar state_cv_;
  /// Assigned by Start, swapped out (for the join) by exactly one Stop.
  std::thread accept_thread_ DPHIST_GUARDED_BY(mutex_);
  Stats stats_ DPHIST_GUARDED_BY(mutex_);
};

}  // namespace dphist::runtime

#endif  // DPHIST_RUNTIME_TRANSPORT_H_
