#include "runtime/session_pool.h"

#include <fcntl.h>
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
#include <map>
#include <sstream>
#include <utility>

#include "runtime/session.h"
#include "runtime/wire_format.h"
#include "service/snapshot.h"

namespace dphist::runtime {
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

  explicit Conn(int fd_in) : fd(fd_in), writer(staging) {}

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
  /// Text output staging: the SessionWriter renders into this, and the
  /// worker moves the bytes to outbuf after each command.
  std::ostringstream staging;
  SessionWriter writer;
  std::unique_ptr<SessionExecutor> executor;
};

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

struct SessionPool::Worker {
  std::thread thread;
  Poller poller;
  int wake_read = -1;
  int wake_write = -1;
  Mutex mutex;
  std::deque<int> incoming        // adopted fds waiting to join the loop
      DPHIST_GUARDED_BY(mutex);
  std::atomic<bool> announce{false};
  std::map<int, std::unique_ptr<Conn>> conns;  // owned by the loop thread

  ~Worker() {
    if (wake_read >= 0) ::close(wake_read);
    if (wake_write >= 0) ::close(wake_write);
  }

  void Wake() {
    const char byte = 1;
    // A full pipe already guarantees a pending wakeup.
    (void)!::write(wake_write, &byte, 1);
  }
};

SessionPool::SessionPool(QueryService& service, EpochManager& manager,
                         const SessionPoolOptions& options)
    : service_(service), manager_(manager), options_(options) {}

SessionPool::~SessionPool() { Stop(); }

Status SessionPool::Start() {
  MutexLock lock(start_mutex_);
  if (started_) return Status::FailedPrecondition("pool already started");
  const int worker_count = std::max(1, options_.workers);
  workers_.reserve(static_cast<std::size_t>(worker_count));
  for (int i = 0; i < worker_count; ++i) {
    auto worker = std::make_unique<Worker>();
    Status init = worker->poller.Init();
    if (!init.ok()) return init;
    int pipe_fds[2];
    if (::pipe(pipe_fds) < 0) {
      return Status::IoError(std::string("pipe: ") + std::strerror(errno));
    }
    worker->wake_read = pipe_fds[0];
    worker->wake_write = pipe_fds[1];
    SetNonBlocking(worker->wake_read);
    SetNonBlocking(worker->wake_write);
    worker->poller.Watch(worker->wake_read, /*read=*/true, /*write=*/false);
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    Worker* raw = worker.get();
    raw->thread = std::thread([this, raw] { WorkerLoop(*raw); });
  }
  started_ = true;
  return Status::Ok();
}

bool SessionPool::Adopt(int fd) {
  MutexLock lock(start_mutex_);
  if (stopping_.load(std::memory_order_acquire) || workers_.empty()) {
    ::close(fd);
    return false;
  }
  SetNonBlocking(fd);
  const std::size_t index =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  Worker& worker = *workers_[index];
  {
    MutexLock worker_lock(worker.mutex);
    worker.incoming.push_back(fd);
  }
  active_.fetch_add(1, std::memory_order_relaxed);
  worker.Wake();
  return true;
}

void SessionPool::NotifyAnnouncements() {
  MutexLock lock(start_mutex_);
  for (auto& worker : workers_) {
    worker->announce.store(true, std::memory_order_release);
    worker->Wake();
  }
}

void SessionPool::Stop() {
  // Joining under start_mutex_ makes Stop safe against itself and the
  // destructor: exactly one caller performs each join, any other blocks
  // until the joins finish and then sees non-joinable threads. Worker
  // loops never take start_mutex_, so the joins cannot deadlock.
  MutexLock lock(start_mutex_);
  if (!started_) return;
  if (!stopping_.exchange(true)) {
    for (auto& worker : workers_) worker->Wake();
  }
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
}

// --------------------------------------------------------- worker loop

namespace {

/// Everything the loop needs to drive one connection; methods are free
/// functions so the loop body stays readable.
class ConnDriver {
 public:
  ConnDriver(QueryService& service, EpochManager& manager,
             const SessionPoolOptions& options)
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
    // text pushed at it that a binary client would misparse; its queue
    // drains right after negotiation.
    if (c.phase == Conn::Phase::kText) {
      for (const ReplanOutcome& outcome : c.executor->TakeAnnouncements()) {
        ReportText(c, outcome);
      }
      MoveStaging(c);
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
      // announcement to appear in every transcript).
      manager_.Drain();
      const std::uint64_t epoch =
          c.executor->summary().last_epoch != 0
              ? c.executor->summary().last_epoch
              : service_.current_epoch();
      if (c.phase == Conn::Phase::kBinary) {
        for (const ReplanOutcome& outcome : c.executor->PollAndTake()) {
          ReportBinary(c, outcome);
        }
        wire::EncodeBye(c.executor->summary().queries, epoch, &c.outbuf);
      } else {
        c.executor->PollAndReport();
        std::ostringstream text;
        text << "served " << c.executor->summary().queries
             << " queries from epoch " << epoch;
        c.writer.Comment(text.str());
        MoveStaging(c);
      }
    }
    c.close_after_flush = true;
  }

 private:
  void MoveStaging(Conn& c) {
    c.outbuf += c.staging.str();
    c.staging.str(std::string());
  }

  /// Sends the banner (or the no-snapshot error) and creates the
  /// executor; the connection then negotiates its protocol.
  void EnterSession(Conn& c) {
    std::shared_ptr<const Snapshot> snapshot = service_.snapshot();
    if (snapshot == nullptr) {
      c.session_status = Status::FailedPrecondition(
          "socket session needs a published snapshot");
      c.writer.Error(c.session_status);
      MoveStaging(c);
      c.close_after_flush = true;
      return;
    }
    c.domain_size = snapshot->domain_size();
    WriteServingBanner(c.writer, *snapshot);
    MoveStaging(c);
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
    // Announcements that queued while the protocol was undecided.
    DeliverAnnouncements(c);
    return true;
  }

  bool ProcessText(Conn& c) {
    std::string_view line;
    if (!NextLine(c, &line)) return false;
    SessionCommand command;
    Result<bool> parsed =
        ParseSessionLine(line, c.domain_size, c.line_number, &command);
    if (!parsed.ok()) {
      c.writer.Error(parsed.status());
      MoveStaging(c);
      return true;
    }
    if (!parsed.value()) return true;  // blank or comment
    if (command.verb == SessionVerb::kQuit) {
      FinishSession(c);
      return false;
    }
    Status status = c.executor->Execute(command, /*interactive=*/true);
    if (!status.ok()) c.writer.Error(status);
    c.executor->PollAndReport();
    MoveStaging(c);
    return true;
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

  bool DispatchFrame(Conn& c, const wire::Frame& frame) {
    switch (frame.type) {
      case wire::FrameType::kQuery: {
        wire::QueryFrame query;
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
        for (const ReplanOutcome& outcome : c.executor->PollAndTake()) {
          ReportBinary(c, outcome);
        }
        return true;
      }
      case wire::FrameType::kStats: {
        std::uint64_t id = 0;
        if (!wire::ParseIdOnly(frame.payload, &id).ok()) {
          c.close_after_flush = true;
          return false;
        }
        wire::EncodeStatsText(id, c.executor->StatsText(), &c.outbuf);
        return true;
      }
      case wire::FrameType::kReplan: {
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

  void ReportText(Conn& c, const ReplanOutcome& outcome) {
    if (outcome.republished) {
      c.writer.PlanNote(outcome.plan, outcome.epoch,
                        ReplanTriggerName(outcome.trigger));
      c.executor->summary().replans_reported += 1;
    } else {
      c.writer.Comment(SessionExecutor::OutcomeComment(outcome));
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
  const SessionPoolOptions& options_;
  std::vector<double> answers_;  // reused across QUERY frames
};

}  // namespace

void SessionPool::WorkerLoop(Worker& worker) {
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

  auto finish_conn = [&](Conn& c) {
    SessionDone done;
    if (c.executor != nullptr) done.summary = c.executor->summary();
    done.status = c.session_status;
    done.write_errors = c.write_errors;
    done.auth_failed = c.auth_failed;
    done.binary = c.phase == Conn::Phase::kBinary;
    worker.poller.Forget(c.fd);
    ::close(c.fd);
    active_.fetch_sub(1, std::memory_order_relaxed);
    if (options_.on_session_done) options_.on_session_done(done);
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

  while (true) {
    if (stopping_.load(std::memory_order_acquire)) break;

    worker.poller.Wait(&events);

    if (stopping_.load(std::memory_order_acquire)) break;

    bool woke = false;
    for (const Ready& ready : events) {
      if (ready.fd == worker.wake_read) {
        char drain[256];
        while (::read(worker.wake_read, drain, sizeof(drain)) > 0) {
        }
        woke = true;
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
      // Adopt newly assigned connections.
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

  // Forced shutdown: every remaining connection still reports its
  // completion (accepted == completed is the server's join condition).
  for (auto& [fd, conn] : worker.conns) finish_conn(*conn);
  worker.conns.clear();

  // Connections adopted but never picked up (Stop won the race against
  // this worker's wake) must be closed and reported too, or the
  // server's accepted == completed join would wait forever on sessions
  // that no longer exist. No new adoptions can arrive concurrently:
  // Adopt refuses once Stop has set stopping_, and both run under
  // start_mutex_.
  std::deque<int> orphaned;
  {
    MutexLock lock(worker.mutex);
    orphaned.swap(worker.incoming);
  }
  for (int fd : orphaned) {
    ::close(fd);
    active_.fetch_sub(1, std::memory_order_relaxed);
    if (options_.on_session_done) options_.on_session_done(SessionDone{});
  }
}

}  // namespace dphist::runtime
