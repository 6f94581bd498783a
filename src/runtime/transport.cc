#include "runtime/transport.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dphist::runtime {
namespace {

/// The session protocol is strict request/response over tiny lines;
/// Nagle + delayed ACK would serialize every round trip at ~40 ms.
void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status ErrnoStatus(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

// ----------------------------------------------------------- FdStreamBuf

FdStreamBuf::FdStreamBuf(int fd) : fd_(fd) {
  setg(in_buf_, in_buf_, in_buf_);
  setp(out_buf_, out_buf_ + kBufSize);
}

FdStreamBuf::int_type FdStreamBuf::underflow() {
  if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
  ssize_t n;
  do {
    n = ::recv(fd_, in_buf_, kBufSize, 0);
  } while (n < 0 && errno == EINTR);
  if (n == 0) {
    // Clean FIN: the peer finished its script and hung up on purpose.
    orderly_eof_.store(true, std::memory_order_relaxed);
    return traits_type::eof();
  }
  if (n < 0) {
    // Socket error. ECONNRESET (peer vanished mid-conversation) is the
    // crash signature worth distinguishing from an orderly goodbye.
    if (errno == ECONNRESET) {
      peer_reset_.store(true, std::memory_order_relaxed);
    }
    return traits_type::eof();
  }
  setg(in_buf_, in_buf_, in_buf_ + static_cast<std::size_t>(n));
  return traits_type::to_int_type(*gptr());
}

bool FdStreamBuf::FlushOut() {
  const char* begin = pbase();
  const char* end = pptr();
  while (begin < end) {
    // MSG_NOSIGNAL: a client hanging up mid-answer must surface as a
    // stream error on this session, not SIGPIPE the whole server.
    ssize_t n = ::send(fd_, begin, static_cast<std::size_t>(end - begin),
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET || errno == EPIPE) {
        peer_reset_.store(true, std::memory_order_relaxed);
      }
      // The pending bytes are gone; count the loss instead of silently
      // resetting the buffer — `stats` and the server receipt report it.
      write_errors_.fetch_add(1, std::memory_order_relaxed);
      setp(out_buf_, out_buf_ + kBufSize);
      return false;
    }
    begin += n;
  }
  setp(out_buf_, out_buf_ + kBufSize);
  return true;
}

FdStreamBuf::int_type FdStreamBuf::overflow(int_type ch) {
  if (pptr() == epptr() && !FlushOut()) return traits_type::eof();
  if (traits_type::eq_int_type(ch, traits_type::eof())) {
    return traits_type::not_eof(ch);
  }
  *pptr() = traits_type::to_char_type(ch);
  pbump(1);
  return ch;
}

int FdStreamBuf::sync() { return FlushOut() ? 0 : -1; }

// ---------------------------------------------------------- SocketStream

SocketStream::SocketStream(int fd)
    : std::iostream(nullptr), buf_(fd), fd_(fd) {
  rdbuf(&buf_);
}

SocketStream::~SocketStream() {
  buf_.pubsync();
  if (fd_ >= 0) ::close(fd_);
}

void SocketStream::Shutdown() { ::shutdown(fd_, SHUT_RDWR); }

Result<std::unique_ptr<SocketStream>> ConnectTcp(const std::string& host,
                                                 int port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not a numeric IPv4 address: " + host);
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    Status status = ErrnoStatus("connect");
    ::close(fd);
    return status;
  }
  SetNoDelay(fd);
  return std::make_unique<SocketStream>(fd);
}

Result<std::unique_ptr<SocketStream>> ConnectLoopback(int port) {
  return ConnectTcp("127.0.0.1", port);
}

// ---------------------------------------------------------- BinaryClient

Result<std::unique_ptr<BinaryClient>> BinaryClient::Connect(
    const std::string& host, int port, const std::string& auth_token) {
  Result<std::unique_ptr<SocketStream>> stream = ConnectTcp(host, port);
  if (!stream.ok()) return stream.status();
  std::unique_ptr<BinaryClient> client(
      new BinaryClient(std::move(stream).value()));
  if (!auth_token.empty()) {
    *client->stream_ << "auth " << auth_token << "\n";
    client->stream_->flush();
  }
  if (!std::getline(*client->stream_, client->banner_)) {
    return Status::IoError("connection closed before the banner");
  }
  if (!client->banner_.empty() && client->banner_.back() == '\r') {
    client->banner_.pop_back();
  }
  if (client->banner_.rfind("error:", 0) == 0) {
    // The server refused the session (bad token, nothing published yet)
    // with one text error line.
    return Status::FailedPrecondition(client->banner_);
  }
  client->stream_->put(static_cast<char>(wire::kMagic));
  client->stream_->flush();
  Result<OwnedFrame> first = client->ReadFrame();
  if (!first.ok()) return first.status();
  if (first.value().type != wire::FrameType::kHello) {
    return Status::InvalidArgument("expected a HELLO frame after the magic");
  }
  Status parsed = wire::ParseHello(first.value().payload, &client->hello_);
  if (!parsed.ok()) return parsed;
  if (client->hello_.version != wire::kProtocolVersion) {
    return Status::InvalidArgument(
        "server speaks protocol version " +
        std::to_string(client->hello_.version) + ", client speaks " +
        std::to_string(wire::kProtocolVersion));
  }
  return client;
}

void BinaryClient::SendQuery(std::uint64_t id, std::uint64_t expect_epoch,
                             const Interval* ranges, std::size_t count) {
  wire::EncodeQuery(id, expect_epoch, ranges, count, &sendbuf_);
}

void BinaryClient::SendStats(std::uint64_t id) {
  wire::EncodeStatsRequest(id, &sendbuf_);
}

void BinaryClient::SendReplan(std::uint64_t id) {
  wire::EncodeReplanRequest(id, &sendbuf_);
}

void BinaryClient::SendGoodbye() { wire::EncodeGoodbye(&sendbuf_); }

Status BinaryClient::Flush() {
  if (!sendbuf_.empty()) {
    stream_->write(sendbuf_.data(),
                   static_cast<std::streamsize>(sendbuf_.size()));
    sendbuf_.clear();
  }
  stream_->flush();
  if (!stream_->good() || stream_->write_errors() > 0) {
    return Status::IoError("failed to flush request bytes");
  }
  return Status::Ok();
}

Result<BinaryClient::OwnedFrame> BinaryClient::ReadFrame() {
  wire::Frame frame;
  while (true) {
    Result<std::size_t> consumed = wire::DecodeFrame(recvbuf_, &frame);
    if (!consumed.ok()) return consumed.status();
    if (consumed.value() > 0) {
      OwnedFrame owned;
      owned.type = frame.type;
      owned.payload.assign(frame.payload);
      recvbuf_.erase(0, consumed.value());
      return owned;
    }
    // Block for at least one byte, then take whatever else the stream
    // already buffered (pipelined replies arrive in clumps).
    char chunk[1 << 12];
    stream_->read(chunk, 1);
    if (stream_->gcount() <= 0) {
      return Status::IoError("connection closed mid-frame");
    }
    recvbuf_.append(chunk, 1);
    const std::streamsize extra =
        stream_->readsome(chunk, static_cast<std::streamsize>(sizeof(chunk)));
    if (extra > 0) recvbuf_.append(chunk, static_cast<std::size_t>(extra));
  }
}

Result<BinaryClient::OwnedFrame> BinaryClient::ReadReply(
    std::vector<OwnedFrame>* pushes) {
  while (true) {
    Result<OwnedFrame> frame = ReadFrame();
    if (!frame.ok()) return frame.status();
    const wire::FrameType type = frame.value().type;
    if (type == wire::FrameType::kPlan || type == wire::FrameType::kNote) {
      if (pushes != nullptr) pushes->push_back(std::move(frame.value()));
      continue;
    }
    return frame;
  }
}

// ---------------------------------------------------------- SocketServer

SocketServer::SocketServer(QueryService& service, EpochManager& manager,
                           const TransportOptions& options)
    : service_(service), manager_(manager), options_(options) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  MutexLock lock(mutex_);
  if (started_) return Status::FailedPrecondition("already started");
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bind_addr must be a numeric IPv4 address");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status status = ErrnoStatus("bind");
    ::close(fd);
    return status;
  }
  if (::listen(fd, options_.backlog) < 0) {
    Status status = ErrnoStatus("listen");
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) <
      0) {
    Status status = ErrnoStatus("getsockname");
    ::close(fd);
    return status;
  }

  SessionPoolOptions pool_options;
  pool_options.workers = options_.workers;
  pool_options.auth_token = options_.auth_token;
  pool_options.on_session_done = [this](const SessionDone& done) {
    {
      MutexLock agg_lock(mutex_);
      stats_.completed += 1;
      stats_.queries += done.summary.queries;
      stats_.batches += done.summary.batches;
      stats_.replans_announced += done.summary.replans_reported;
      stats_.write_errors += done.write_errors;
      if (done.auth_failed) {
        stats_.auth_failures += 1;
      } else if (done.binary) {
        stats_.binary_sessions += 1;
      } else {
        stats_.text_sessions += 1;
      }
      if (!done.status.ok()) stats_.session_errors += 1;
    }
    state_cv_.NotifyAll();
  };
  pool_ = std::make_unique<SessionPool>(service_, manager_, pool_options);
  Status pool_status = pool_->Start();
  if (!pool_status.ok()) {
    ::close(fd);
    pool_.reset();
    return pool_status;
  }
  // From here on, completed replans wake the pool, which pushes the
  // announcement into every session's write buffer.
  manager_.SetAnnouncementNotifier(
      [pool = pool_.get()] { pool->NotifyAnnouncements(); });

  listen_fd_ = fd;
  port_ = static_cast<int>(ntohs(bound.sin_port));
  started_ = true;
  stopping_ = false;
  accept_done_ = false;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

int SocketServer::port() const {
  MutexLock lock(mutex_);
  return port_;
}

void SocketServer::AcceptLoop() {
  SessionPool* pool;
  {
    // One snapshot for the thread's lifetime: pool_ is set before this
    // thread is spawned and reset only after Stop() has joined it.
    MutexLock lock(mutex_);
    pool = pool_.get();
  }
  std::int64_t accepted = 0;
  while (true) {
    int listen_fd;
    {
      MutexLock lock(mutex_);
      if (stopping_) break;
      if (options_.max_sessions > 0 && accepted >= options_.max_sessions) {
        break;
      }
      listen_fd = listen_fd_;
    }
    // Poll with a short timeout instead of blocking in accept forever:
    // Stop() only has to flip `stopping_` and wait one tick — no
    // close-while-accepting race.
    pollfd pfd{};
    pfd.fd = listen_fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, /*timeout_ms=*/100);
    if (ready <= 0) continue;  // timeout or EINTR
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      // Only a dead listener ends the loop; transient conditions
      // (EMFILE/ENFILE fd exhaustion, ENOMEM, aborted handshakes) must
      // not silently kill a long-lived server — the poll timeout above
      // already provides retry backoff.
      if (errno == EBADF || errno == EINVAL) break;
      continue;
    }
    SetNoDelay(fd);
    {
      // Count before handing off: a session may complete before we get
      // the lock back, and completed must never exceed accepted.
      MutexLock lock(mutex_);
      if (stopping_) {
        ::close(fd);
        break;
      }
      stats_.accepted += 1;
    }
    if (!pool->Adopt(fd)) {
      // The pool is stopping; the fd is already closed.
      MutexLock lock(mutex_);
      stats_.accepted -= 1;
      break;
    }
    ++accepted;
  }
  {
    MutexLock lock(mutex_);
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    accept_done_ = true;
  }
  state_cv_.NotifyAll();
}

void SocketServer::Stop() {
  {
    MutexLock lock(mutex_);
    if (!started_) return;
    stopping_ = true;
  }
  std::thread acceptor;
  {
    MutexLock lock(mutex_);
    while (!accept_done_) state_cv_.Wait(mutex_);
    acceptor.swap(accept_thread_);
  }
  if (acceptor.joinable()) acceptor.join();
  // Unhook the push notifier before tearing the pool down so a replan
  // completing mid-stop never touches joined workers.
  manager_.SetAnnouncementNotifier(nullptr);
  SessionPool* pool;
  {
    MutexLock lock(mutex_);
    pool = pool_.get();
  }
  if (pool != nullptr) pool->Stop();  // idempotent; fires callbacks
  MutexLock lock(mutex_);
  while (stats_.completed < stats_.accepted) state_cv_.Wait(mutex_);
}

void SocketServer::WaitUntilStopped() {
  MutexLock lock(mutex_);
  while (!accept_done_ || stats_.completed < stats_.accepted) {
    state_cv_.Wait(mutex_);
  }
}

SocketServer::Stats SocketServer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

}  // namespace dphist::runtime
