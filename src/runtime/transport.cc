#include "runtime/transport.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#if defined(__linux__)
#define DPHIST_HAVE_EPOLL 1
#include <sys/epoll.h>
#endif

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <map>
#include <thread>
#include <utility>

#include "runtime/session.h"
#include "service/snapshot.h"

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
  if (n <= 0) return traits_type::eof();  // FIN or a socket error
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

namespace {

/// Backpressure watermarks on a connection's write buffer: past kHigh
/// the connection stops reading (its own reads only — nobody else's);
/// once a flush gets it back under kLow, reading resumes.
constexpr std::size_t kHighWatermark = std::size_t{1} << 20;
constexpr std::size_t kLowWatermark = std::size_t{1} << 18;
/// A single command (text line or frame) larger than this is hostile.
constexpr std::size_t kMaxInputBuffer = std::size_t{1} << 26;
/// Compact a buffer once this much has been consumed off its front
/// (erase is O(remaining), so amortize it).
constexpr std::size_t kCompactThreshold = std::size_t{1} << 16;

/// Drops the consumed front [0, *pos) of `buf`: at once when nothing is
/// left, otherwise only past kCompactThreshold.
void CompactConsumed(std::string* buf, std::size_t* pos) {
  if (*pos == buf->size()) {
    buf->clear();
    *pos = 0;
  } else if (*pos >= kCompactThreshold) {
    buf->erase(0, *pos);
    *pos = 0;
  }
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Readiness events for one fd.
struct Ready {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool error = false;
};

/// Minimal level-triggered readiness poller: epoll on Linux, poll(2)
/// elsewhere. Not thread-safe — each worker owns one.
class Poller {
 public:
  ~Poller() {
#if DPHIST_HAVE_EPOLL
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
#endif
  }

  Status Init() {
#if DPHIST_HAVE_EPOLL
    epoll_fd_ = ::epoll_create1(0);
    if (epoll_fd_ < 0) {
      return Status::IoError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
#endif
    return Status::Ok();
  }

  void Watch(int fd, bool read, bool write) {
#if DPHIST_HAVE_EPOLL
    const std::uint32_t events =
        (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
    // The worker re-asserts interest after every pump; a steady-state
    // connection (readable, not write-blocked) must cost zero syscalls
    // here, not one epoll_ctl per round.
    const auto it = interest_.find(fd);
    if (it != interest_.end() && it->second == events) return;
    epoll_event ev{};
    ev.events = events;
    ev.data.fd = fd;
    if (it == interest_.end()) {
      interest_.emplace(fd, events);
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    } else {
      it->second = events;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
    }
#else
    interest_[fd] = (read ? POLLIN : 0) | (write ? POLLOUT : 0);
#endif
  }

  void Forget(int fd) {
#if DPHIST_HAVE_EPOLL
    if (interest_.erase(fd) > 0) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    }
#else
    interest_.erase(fd);
#endif
  }

  /// Blocks until at least one fd is ready; fills `out`.
  void Wait(std::vector<Ready>* out) {
    out->clear();
#if DPHIST_HAVE_EPOLL
    epoll_event events[128];
    int n;
    do {
      n = ::epoll_wait(epoll_fd_, events, 128, -1);
    } while (n < 0 && errno == EINTR);
    for (int i = 0; i < n; ++i) {
      Ready ready;
      ready.fd = events[i].data.fd;
      ready.readable = (events[i].events & (EPOLLIN | EPOLLHUP)) != 0;
      ready.writable = (events[i].events & EPOLLOUT) != 0;
      ready.error = (events[i].events & EPOLLERR) != 0;
      out->push_back(ready);
    }
#else
    std::vector<pollfd> fds;
    fds.reserve(interest_.size());
    for (const auto& [fd, events] : interest_) {
      pollfd p{};
      p.fd = fd;
      p.events = static_cast<short>(events);
      fds.push_back(p);
    }
    int n;
    do {
      n = ::poll(fds.data(), fds.size(), -1);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return;
    for (const pollfd& p : fds) {
      if (p.revents == 0) continue;
      Ready ready;
      ready.fd = p.fd;
      ready.readable = (p.revents & (POLLIN | POLLHUP)) != 0;
      ready.writable = (p.revents & POLLOUT) != 0;
      ready.error = (p.revents & (POLLERR | POLLNVAL)) != 0;
      out->push_back(ready);
    }
#endif
  }

 private:
#if DPHIST_HAVE_EPOLL
  int epoll_fd_ = -1;
  std::map<int, std::uint32_t> interest_;  // fd -> registered events
#else
  std::map<int, int> interest_;
#endif
};

/// One connection's state machine.
struct Conn {
  enum class Phase {
    kAuth,       // waiting for the "auth <token>" line
    kNegotiate,  // banner sent; first byte picks the protocol
    kText,       // line protocol
    kBinary,     // frame protocol
  };

  explicit Conn(int fd_in) : fd(fd_in), writer(&outbuf) {}
  Conn(const Conn&) = delete;  // the writer points at outbuf
  Conn& operator=(const Conn&) = delete;

  int fd;
  Phase phase = Phase::kAuth;
  std::string inbuf;
  std::size_t in_pos = 0;  // first unconsumed byte of inbuf
  std::string outbuf;
  std::size_t out_pos = 0;
  bool want_write = false;   // registered for writability
  bool paused_read = false;  // backpressure: over the high watermark
  bool close_after_flush = false;
  bool saw_eof = false;
  std::int64_t line_number = 0;
  std::uint64_t write_errors = 0;
  bool auth_failed = false;
  Status session_status = Status::Ok();
  std::int64_t domain_size = 0;
  /// Renders text-protocol output straight into outbuf.
  SessionWriter writer;
  std::unique_ptr<SessionExecutor> executor;
};

/// Everything the loop needs to drive one connection; methods are free
/// functions so the loop body stays readable.
class ConnDriver {
 public:
  ConnDriver(QueryService& service, EpochManager& manager,
             const TransportOptions& options)
      : service_(service), manager_(manager), options_(options) {}

  /// First contact: auth prompt is silent, so this only emits the error
  /// banner when there is nothing to serve yet.
  void Open(Conn& c) {
    if (options_.auth_token.empty()) {
      EnterSession(c);
    }
    // else: stay in kAuth; the banner goes out after a good token.
  }

  /// Consumes as much buffered input as the current phase allows.
  /// Returns false when the connection must close without flushing
  /// (protocol violation on a dead peer); normal closes set
  /// close_after_flush instead.
  void Process(Conn& c) {
    bool progress = true;
    while (progress && !c.close_after_flush) {
      progress = false;
      switch (c.phase) {
        case Conn::Phase::kAuth:
          progress = ProcessAuth(c);
          break;
        case Conn::Phase::kNegotiate:
          progress = ProcessNegotiate(c);
          break;
        case Conn::Phase::kText:
          progress = ProcessText(c);
          break;
        case Conn::Phase::kBinary:
          progress = ProcessBinary(c);
          break;
      }
    }
    // Commands are read through in_pos; compacting once per call, not
    // once per command, consumes a deeply pipelined write in linear time.
    CompactConsumed(&c.inbuf, &c.in_pos);
    if (c.saw_eof && !c.close_after_flush) {
      // The peer finished sending without an explicit quit/GOODBYE:
      // treat it as the implicit quit the blocking transport honored.
      FinishSession(c);
    }
  }

  /// Delivers queued replan announcements (the push path).
  void DeliverAnnouncements(Conn& c) {
    if (c.executor == nullptr || c.close_after_flush) return;
    // A connection that has not picked its protocol yet must not get
    // text pushed at it that a binary client would misparse; it reads
    // the log from its cursor right after negotiation.
    if (c.phase == Conn::Phase::kText) {
      c.executor->ReportAnnouncements();
    } else if (c.phase == Conn::Phase::kBinary) {
      for (const ReplanOutcome& outcome : c.executor->TakeAnnouncements()) {
        ReportBinary(c, outcome);
      }
    }
  }

  /// The final receipt + close for quit/GOODBYE/EOF.
  void FinishSession(Conn& c) {
    if (c.executor != nullptr) {
      // Deterministic endings: let any in-flight replan land and
      // announce it before the receipt (the CI smoke requires the
      // announcement to appear in every transcript). Triggers wait for
      // the next command of any session.
      manager_.Drain();
      const std::uint64_t epoch =
          c.executor->summary().last_epoch != 0
              ? c.executor->summary().last_epoch
              : service_.current_epoch();
      if (c.phase == Conn::Phase::kBinary) {
        for (const ReplanOutcome& outcome : c.executor->TakeAnnouncements()) {
          ReportBinary(c, outcome);
        }
        wire::EncodeBye(c.executor->summary().queries, epoch, &c.outbuf);
      } else {
        c.executor->ReportAnnouncements();
        c.writer.ServedReceipt(c.executor->summary().queries, epoch);
      }
    }
    c.close_after_flush = true;
  }

 private:
  /// Sends the banner (or the no-snapshot error) and creates the
  /// executor; the connection then negotiates its protocol.
  void EnterSession(Conn& c) {
    std::shared_ptr<const Snapshot> snapshot = service_.snapshot();
    if (snapshot == nullptr) {
      c.session_status = Status::FailedPrecondition(
          "socket session needs a published snapshot");
      c.writer.Error(c.session_status.ToString());
      c.close_after_flush = true;
      return;
    }
    c.domain_size = snapshot->domain_size();
    WriteServingBanner(c.writer, *snapshot);
    // Bind the stats line's write_errors field to THIS connection, so a
    // client can ask mid-session whether any of its answers were lost.
    // The Conn outlives its executor, and both live on this worker.
    Conn* raw = &c;
    c.executor = std::make_unique<SessionExecutor>(
        c.writer, service_, manager_, [raw] { return raw->write_errors; });
    c.phase = Conn::Phase::kNegotiate;
  }

  /// The next complete line of unconsumed input (without its '\n'),
  /// viewed in place; false when no full line has arrived yet. The view
  /// stays valid until Process compacts inbuf on its way out.
  static bool NextLine(Conn& c, std::string_view* line) {
    const std::size_t newline = c.inbuf.find('\n', c.in_pos);
    if (newline == std::string::npos) return false;
    *line = std::string_view(c.inbuf).substr(c.in_pos, newline - c.in_pos);
    c.in_pos = newline + 1;
    c.line_number += 1;
    return true;
  }

  bool ProcessAuth(Conn& c) {
    std::string_view line;
    if (!NextLine(c, &line)) return false;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    const std::string_view prefix = "auth ";
    const bool well_formed =
        line.size() > prefix.size() && line.substr(0, prefix.size()) == prefix;
    const std::string_view token =
        well_formed ? line.substr(prefix.size()) : std::string_view();
    // Compare even for malformed lines so a probe cannot time-split
    // "wrong command" from "wrong token".
    const bool match = ConstantTimeEquals(token, options_.auth_token);
    if (!well_formed || !match) {
      c.auth_failed = true;
      c.session_status = Status::FailedPrecondition("authentication failed");
      c.outbuf += "error: authentication failed\n";
      c.close_after_flush = true;
      return false;
    }
    EnterSession(c);
    return true;
  }

  bool ProcessNegotiate(Conn& c) {
    if (c.in_pos == c.inbuf.size()) return false;
    if (static_cast<unsigned char>(c.inbuf[c.in_pos]) == wire::kMagic) {
      c.in_pos += 1;
      c.phase = Conn::Phase::kBinary;
      c.executor->set_protocol("binary");
      wire::EncodeHello(static_cast<std::uint64_t>(c.domain_size),
                        service_.current_epoch(), &c.outbuf);
    } else {
      c.phase = Conn::Phase::kText;
    }
    // Announcements logged while the protocol was undecided.
    DeliverAnnouncements(c);
    return true;
  }

  bool ProcessText(Conn& c) {
    std::string_view line;
    if (!NextLine(c, &line)) return false;
    if (c.executor->ExecuteLine(line, c.line_number)) return true;
    FinishSession(c);  // quit
    return false;
  }

  bool ProcessBinary(Conn& c) {
    wire::Frame frame;
    Result<std::size_t> consumed =
        wire::DecodeFrame(std::string_view(c.inbuf).substr(c.in_pos), &frame);
    if (!consumed.ok()) {
      // Framing is broken: nothing after this point can be trusted.
      wire::EncodeError(0, wire::WireError::kBadRequest,
                        consumed.status().ToString(), &c.outbuf);
      c.session_status = consumed.status();
      c.close_after_flush = true;
      return false;
    }
    if (consumed.value() == 0) return false;  // incomplete frame
    const bool keep = DispatchFrame(c, frame);  // payload views inbuf
    c.in_pos += consumed.value();
    return keep;
  }

  /// Polls the triggers and announces what landed, before a QUERY,
  /// STATS or REPLAN frame's reply: the binary form of
  /// SessionExecutor::ExecuteLine's poll.
  void PollBeforeReply(Conn& c) {
    for (const ReplanOutcome& outcome : c.executor->PollAndTake()) {
      ReportBinary(c, outcome);
    }
  }

  bool DispatchFrame(Conn& c, const wire::Frame& frame) {
    switch (frame.type) {
      case wire::FrameType::kQuery: {
        PollBeforeReply(c);
        wire::QueryFrame& query = query_;
        Status parsed = wire::ParseQuery(frame.payload, c.domain_size, &query);
        if (!parsed.ok()) {
          if (parsed.code() == StatusCode::kOutOfRange) {
            // Bad ranges are a request-scoped error (the text protocol
            // survives them too); broken framing is fatal above.
            wire::EncodeError(query.id, wire::WireError::kBadRequest,
                              parsed.ToString(), &c.outbuf);
            return true;
          }
          wire::EncodeError(query.id, wire::WireError::kBadRequest,
                            parsed.ToString(), &c.outbuf);
          c.session_status = parsed;
          c.close_after_flush = true;
          return false;
        }
        if (query.expect_epoch != 0 &&
            service_.current_epoch() != query.expect_epoch) {
          wire::EncodeError(query.id, wire::WireError::kEpochMismatch,
                            "epoch " + std::to_string(query.expect_epoch) +
                                " is no longer current",
                            &c.outbuf);
          return true;
        }
        Result<std::uint64_t> answered = c.executor->AnswerBatch(
            query.ranges.data(), query.ranges.size(), &answers_);
        if (!answered.ok()) {
          // Request-scoped (a range the wire validation missed, or no
          // snapshot yet): the session survives, like the text path.
          wire::EncodeError(query.id, wire::WireError::kBadRequest,
                            answered.status().ToString(), &c.outbuf);
          return true;
        }
        const std::uint64_t epoch = answered.value();
        if (query.expect_epoch != 0 && epoch != query.expect_epoch) {
          // A swap landed between the check above and the batch's
          // snapshot load; honor the demand rather than the answers.
          wire::EncodeError(query.id, wire::WireError::kEpochMismatch,
                            "epoch " + std::to_string(query.expect_epoch) +
                                " swapped out mid-request",
                            &c.outbuf);
        } else {
          wire::EncodeAnswers(query.id, epoch, answers_.data(),
                              answers_.size(), &c.outbuf);
        }
        return true;
      }
      case wire::FrameType::kStats: {
        PollBeforeReply(c);
        std::uint64_t id = 0;
        if (!wire::ParseIdOnly(frame.payload, &id).ok()) {
          c.close_after_flush = true;
          return false;
        }
        wire::EncodeStatsText(id, c.executor->StatsText(), &c.outbuf);
        return true;
      }
      case wire::FrameType::kReplan: {
        PollBeforeReply(c);
        std::uint64_t id = 0;
        if (!wire::ParseIdOnly(frame.payload, &id).ok()) {
          c.close_after_flush = true;
          return false;
        }
        Result<ReplanOutcome> outcome = c.executor->ManualReplan();
        if (!outcome.ok()) {
          wire::EncodeError(id, wire::WireError::kFailed,
                            outcome.status().ToString(), &c.outbuf);
        } else {
          ReportBinary(c, outcome.value());
        }
        return true;
      }
      case wire::FrameType::kGoodbye:
        FinishSession(c);
        return false;
      default:
        // A client sending server->client frame types is out of
        // protocol.
        wire::EncodeError(0, wire::WireError::kBadRequest,
                          "unexpected frame type", &c.outbuf);
        c.session_status =
            Status::InvalidArgument("client sent a server frame type");
        c.close_after_flush = true;
        return false;
    }
  }

  void ReportBinary(Conn& c, const ReplanOutcome& outcome) {
    if (outcome.republished) {
      wire::EncodePlan(outcome.epoch,
                       StrategyKindName(outcome.plan.options.strategy),
                       static_cast<std::uint64_t>(outcome.plan.options.shards),
                       ReplanTriggerName(outcome.trigger),
                       outcome.plan.predicted_mean_variance, &c.outbuf);
      c.executor->summary().replans_reported += 1;
    } else {
      wire::EncodeNote(SessionExecutor::OutcomeComment(outcome), &c.outbuf);
    }
  }

  QueryService& service_;
  EpochManager& manager_;
  const TransportOptions& options_;
  // Reused across QUERY frames: a warm binary frame allocates nothing.
  wire::QueryFrame query_;
  std::vector<double> answers_;
};

/// Folds one closed connection into the server's totals (the caller
/// holds the server's mutex).
void AddSession(Conn& c, SocketServer::Stats* stats) {
  if (c.executor != nullptr) {
    const SessionSummary& summary = c.executor->summary();
    stats->queries += summary.queries;
    stats->batches += summary.batches;
    stats->replans_announced += summary.replans_reported;
  }
  stats->completed += 1;
  stats->write_errors += c.write_errors;
  if (c.auth_failed) {
    stats->auth_failures += 1;
  } else if (c.phase == Conn::Phase::kBinary) {
    stats->binary_sessions += 1;
  } else {
    stats->text_sessions += 1;
  }
  if (!c.session_status.ok()) stats->session_errors += 1;
}

}  // namespace

bool ConstantTimeEquals(std::string_view a, std::string_view b) {
  unsigned diff = static_cast<unsigned>(a.size() ^ b.size());
  const std::size_t n = std::max(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned char ca = i < a.size() ? static_cast<unsigned char>(a[i])
                                          : static_cast<unsigned char>(0);
    const unsigned char cb = i < b.size() ? static_cast<unsigned char>(b[i])
                                          : static_cast<unsigned char>(0);
    diff |= static_cast<unsigned>(ca ^ cb);
  }
  return diff == 0;
}

struct SocketServer::Worker {
  Poller poller;
  int wake_read = -1;
  int wake_write = -1;
  /// The listening socket: worker 0's alone, and -1 once its loop has
  /// closed it (and on every other worker). Only worker 0's loop accepts
  /// on it and closes it.
  int listen_fd = -1;
  Mutex mutex;
  std::deque<int> incoming        // handed-off fds waiting to join the loop
      DPHIST_GUARDED_BY(mutex);
  std::atomic<bool> announce{false};
  std::atomic<bool> stop{false};
  std::map<int, std::unique_ptr<Conn>> conns;  // owned by the loop thread
  std::thread thread;  // runs WorkerLoop over the members above

  ~Worker() {
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
    if (listen_fd >= 0) ::close(listen_fd);
  }

  void Wake() {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(wake_write, &byte, 1);
  }
};

SocketServer::SocketServer(QueryService& service, EpochManager& manager,
                           const TransportOptions& options)
    : service_(service), manager_(manager), options_(options) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  MutexLock lock(mutex_);
  if (state_ != State::kIdle) {
    return Status::FailedPrecondition("already started");
  }
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("port must be in [0, 65535]");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.bind_addr.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bind_addr must be a numeric IPv4 address");
  }

  std::vector<std::unique_ptr<Worker>> workers;
  const int worker_count = std::max(1, options_.workers);
  for (int i = 0; i < worker_count; ++i) {
    auto worker = std::make_unique<Worker>();
    Status init = worker->poller.Init();
    if (!init.ok()) return init;
    int pipe_fds[2];
    if (::pipe(pipe_fds) < 0) return ErrnoStatus("pipe");
    worker->wake_read = pipe_fds[0];
    worker->wake_write = pipe_fds[1];
    SetNonBlocking(worker->wake_read);
    SetNonBlocking(worker->wake_write);
    worker->poller.Watch(worker->wake_read, /*read=*/true, /*write=*/false);
    workers.push_back(std::move(worker));
  }

  // Worker 0 owns the listener from its creation, so every early return
  // below closes it with the worker.
  Worker& first = *workers.front();
  first.listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (first.listen_fd < 0) return ErrnoStatus("socket");
  int one = 1;
  ::setsockopt(first.listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(first.listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    return ErrnoStatus("bind");
  }
  if (::listen(first.listen_fd, SOMAXCONN) < 0) return ErrnoStatus("listen");
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(first.listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    return ErrnoStatus("getsockname");
  }
  SetNonBlocking(first.listen_fd);
  first.poller.Watch(first.listen_fd, /*read=*/true, /*write=*/false);

  workers_ = std::move(workers);
  std::vector<Worker*> running;
  for (const std::unique_ptr<Worker>& worker : workers_) {
    Worker* raw = worker.get();
    running.push_back(raw);
    raw->thread = std::thread([this, raw] { WorkerLoop(*raw); });
  }
  // From here on, completed replans wake every worker, which pushes the
  // announcement into each of its sessions' write buffers.
  manager_.SetAnnouncementNotifier([running] {
    for (Worker* worker : running) {
      worker->announce.store(true, std::memory_order_release);
      worker->Wake();
    }
  });
  port_ = static_cast<int>(ntohs(bound.sin_port));
  listening_ = true;
  state_ = State::kRunning;
  return Status::Ok();
}

int SocketServer::port() const {
  MutexLock lock(mutex_);
  return port_;
}

void SocketServer::Stop() {
  std::vector<Worker*> workers;
  {
    MutexLock lock(mutex_);
    if (state_ == State::kIdle) return;
    if (state_ != State::kRunning) {
      // Another Stop owns the joins; return once they are done.
      while (state_ != State::kStopped) state_cv_.Wait(mutex_);
      return;
    }
    // Ends the hand-offs: worker 0 closes any connection it accepts
    // from now on instead of queueing it.
    state_ = State::kStopping;
    for (const std::unique_ptr<Worker>& worker : workers_) {
      workers.push_back(worker.get());
    }
  }
  // Unhook the push notifier first so a replan completing mid-stop never
  // wakes a joined worker.
  manager_.SetAnnouncementNotifier(nullptr);
  for (Worker* worker : workers) {
    worker->stop.store(true, std::memory_order_release);
    worker->Wake();
  }
  for (Worker* worker : workers) worker->thread.join();
  {
    MutexLock lock(mutex_);
    state_ = State::kStopped;
  }
  state_cv_.NotifyAll();
}

void SocketServer::WaitUntilStopped() {
  MutexLock lock(mutex_);
  while (listening_ || stats_.completed < stats_.accepted) {
    state_cv_.Wait(mutex_);
  }
}

SocketServer::Stats SocketServer::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

void SocketServer::WorkerLoop(Worker& worker) {
  ConnDriver driver(service_, manager_, options_);
  std::vector<Ready> events;

  auto update_interest = [&worker](Conn& c) {
    worker.poller.Watch(c.fd, /*read=*/!c.paused_read && !c.close_after_flush,
                        /*write=*/c.want_write);
  };

  // Flushes what the socket will take. Returns false when the
  // connection died mid-write.
  auto flush = [&](Conn& c) -> bool {
    while (c.out_pos < c.outbuf.size()) {
      const ssize_t n =
          ::send(c.fd, c.outbuf.data() + c.out_pos,
                 c.outbuf.size() - c.out_pos, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        c.write_errors += 1;
        return false;
      }
      c.out_pos += static_cast<std::size_t>(n);
    }
    CompactConsumed(&c.outbuf, &c.out_pos);
    const std::size_t pending = c.outbuf.size() - c.out_pos;
    c.want_write = pending > 0;
    if (c.paused_read && pending < kLowWatermark) c.paused_read = false;
    return true;
  };

  // Closes the socket, then adds the session to the server's stats.
  auto finish_conn = [&](Conn& c) {
    worker.poller.Forget(c.fd);
    ::close(c.fd);
    {
      MutexLock lock(mutex_);
      AddSession(c, &stats_);
    }
    state_cv_.NotifyAll();
  };

  auto close_conn = [&](int fd) {
    auto it = worker.conns.find(fd);
    if (it == worker.conns.end()) return;
    finish_conn(*it->second);
    worker.conns.erase(it);
  };

  // Returns false when the connection is gone.
  auto pump = [&](Conn& c) -> bool {
    driver.Process(c);
    if (!flush(c)) return false;
    if (c.close_after_flush && c.out_pos == c.outbuf.size() &&
        c.outbuf.empty()) {
      return false;
    }
    // Backpressure: a slow reader with a swollen write buffer stops
    // being read until it drains (its fd only — the loop keeps serving
    // everyone else).
    if (!c.paused_read && c.outbuf.size() - c.out_pos > kHighWatermark) {
      c.paused_read = true;
    }
    update_interest(c);
    return true;
  };

  auto close_listener = [&] {
    worker.poller.Forget(worker.listen_fd);
    ::close(worker.listen_fd);
    worker.listen_fd = -1;
    {
      MutexLock lock(mutex_);
      listening_ = false;
    }
    state_cv_.NotifyAll();
  };

  // Worker 0's turn on the listener: accept until EAGAIN, counting each
  // connection before handing it round-robin to a worker (this one
  // included) through that worker's incoming queue and pipe, so a
  // session can never complete before it was accepted. Other accept
  // errors (EMFILE, ENFILE, ENOMEM) end the turn without closing the
  // listener: a long-lived server must not die of a transient shortage.
  auto accept_ready = [&] {
    while (worker.listen_fd >= 0) {
      const int fd = ::accept(worker.listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED) continue;
        return;
      }
      SetNoDelay(fd);
      SetNonBlocking(fd);
      Worker* target = nullptr;
      bool last = false;
      {
        MutexLock lock(mutex_);
        if (state_ == State::kRunning) {
          stats_.accepted += 1;
          target = workers_[next_worker_++ % workers_.size()].get();
          MutexLock target_lock(target->mutex);
          target->incoming.push_back(fd);
          last = options_.max_sessions > 0 &&
                 stats_.accepted >=
                     static_cast<std::uint64_t>(options_.max_sessions);
        }
      }
      if (target == nullptr) {
        ::close(fd);  // Stop has begun
        return;
      }
      target->Wake();
      if (last) close_listener();
    }
  };

  while (true) {
    if (worker.stop.load(std::memory_order_acquire)) break;

    worker.poller.Wait(&events);

    if (worker.stop.load(std::memory_order_acquire)) break;

    bool woke = false;
    for (const Ready& ready : events) {
      if (ready.fd == worker.wake_read) {
        char drain[256];
        while (::read(worker.wake_read, drain, sizeof(drain)) > 0) {
        }
        woke = true;
        continue;
      }
      if (ready.fd == worker.listen_fd) {
        accept_ready();
        continue;
      }
      auto it = worker.conns.find(ready.fd);
      if (it == worker.conns.end()) continue;
      Conn& c = *it->second;

      if (ready.error) {
        close_conn(ready.fd);
        continue;
      }
      if (ready.writable) {
        if (!flush(c)) {
          close_conn(ready.fd);
          continue;
        }
        if (c.close_after_flush && c.outbuf.empty()) {
          close_conn(ready.fd);
          continue;
        }
        update_interest(c);
      }
      if (ready.readable && !c.paused_read && !c.close_after_flush) {
        char buf[1 << 16];
        bool dead = false;
        while (true) {
          const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
          if (n > 0) {
            c.inbuf.append(buf, static_cast<std::size_t>(n));
            if (c.inbuf.size() - c.in_pos > kMaxInputBuffer) {
              c.session_status =
                  Status::InvalidArgument("input buffer limit exceeded");
              dead = true;
            }
            if (c.paused_read) break;
            // A short read drained the socket buffer — no need to pay
            // a second recv just to see EAGAIN. Level-triggered polling
            // re-reports the fd if more bytes arrive meanwhile.
            if (static_cast<std::size_t>(n) < sizeof(buf)) break;
            continue;
          }
          if (n == 0) {
            c.saw_eof = true;
            break;
          }
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          dead = true;
          break;
        }
        if (dead) {
          close_conn(ready.fd);
          continue;
        }
        if (!pump(c)) {
          close_conn(ready.fd);
          continue;
        }
      }
    }

    if (woke) {
      // Adopt newly handed-off connections.
      std::deque<int> incoming;
      {
        MutexLock lock(worker.mutex);
        incoming.swap(worker.incoming);
      }
      for (int fd : incoming) {
        auto conn = std::make_unique<Conn>(fd);
        Conn& c = *conn;
        worker.conns.emplace(fd, std::move(conn));
        driver.Open(c);
        if (!pump(c)) close_conn(fd);
      }
      // Push completed-replan announcements into every session.
      if (worker.announce.exchange(false, std::memory_order_acq_rel)) {
        std::vector<int> dead;
        for (auto& [fd, conn] : worker.conns) {
          driver.DeliverAnnouncements(*conn);
          if (!conn->outbuf.empty() || conn->close_after_flush) {
            if (!flush(*conn) ||
                (conn->close_after_flush && conn->outbuf.empty())) {
              dead.push_back(fd);
              continue;
            }
            update_interest(*conn);
          }
        }
        for (int fd : dead) close_conn(fd);
      }
    }
  }

  // Forced shutdown: close the listener, then every connection, including
  // any handed off but never picked up (Stop won the race against this
  // worker's wake), so each accepted session is counted completed (the
  // join condition of Stop and WaitUntilStopped). Nothing new can
  // arrive: Stop ended the hand-offs under mutex_ before it set this
  // worker's stop flag.
  if (worker.listen_fd >= 0) close_listener();
  {
    MutexLock lock(worker.mutex);
    for (int fd : worker.incoming) {
      worker.conns.emplace(fd, std::make_unique<Conn>(fd));
    }
    worker.incoming.clear();
  }
  for (auto& [fd, conn] : worker.conns) finish_conn(*conn);
  worker.conns.clear();
}

}  // namespace dphist::runtime
