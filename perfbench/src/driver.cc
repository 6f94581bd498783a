// dphist serving benchmark driver.
//
// Runs one named workload against the serving stack wired exactly as
// `dphist serve --listen` wires it — one QueryService, one EpochManager
// (over an EpochStore for the durable workload) and one SocketServer with
// two pool workers, all in this process — and drives it over loopback
// sockets from at most four load-generator threads.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --work-dir DIR [--git-sha SHA] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same load
// untraced, then replays the workload's own requests in-process through
// each layer's public entry points with spans around every call, and
// prints the per-layer metrics. The last stdout line is the result
// object; the line before it carries provenance, workload descriptors
// and raw counts. README.md in this directory defines every metric.

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "arith.h"
#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "domain/interval.h"
#include "engine/answer_engine.h"
#include "engine/kernels.h"
#include "inference/hierarchical.h"
#include "mechanism/laplace_mechanism.h"
#include "planner/planner.h"
#include "planner/workload_profile.h"
#include "runtime/epoch_manager.h"
#include "runtime/session.h"
#include "runtime/transport.h"
#include "runtime/wire_format.h"
#include "service/query_service.h"
#include "service/snapshot.h"
#include "storage/epoch_store.h"
#include "storage/page.h"
#include "tree/tree_layout.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {
namespace {

using dphist::Histogram;
using dphist::Interval;
using dphist::QueryService;
using dphist::QueryServiceOptions;
using dphist::Rng;
using dphist::Snapshot;
using dphist::SnapshotOptions;
using dphist::StrategyKind;
namespace runtime = dphist::runtime;
namespace wire = dphist::runtime::wire;
namespace planner = dphist::planner;
namespace storage = dphist::storage;
namespace engine = dphist::engine;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(std::int64_t deadline) {
  const std::int64_t now = NowNs();
  if (deadline > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline - now));
  }
}

/// The CPUs this process may run on, in ascending order.
const std::vector<int>& AllowedCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
      }
    }
    return out;
  }();
  return cpus;
}

/// Restricts the calling thread (and threads it creates afterwards) to
/// allowed CPUs number [first, first + count); a no-op when fewer are
/// allowed.
void PinCurrentThread(int first, int count) {
  const std::vector<int>& cpus = AllowedCpus();
  if (static_cast<int>(cpus.size()) < first + count) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = first; i < first + count; ++i) {
    CPU_SET(cpus[static_cast<std::size_t>(i)], &set);
  }
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

/// One SCHED_IDLE busy loop per allowed CPU, so no CPU ever halts while
/// the benchmark runs. On a virtual machine a halted vCPU that is woken —
/// the server worker a request arrives for, the client its reply arrives
/// for — waits until the host schedules it again, and that wait depends
/// on the host's other tenants: it dominated the run-to-run spread of
/// every timing. A spinner gives way the moment any other thread on its
/// CPU is runnable, and its CPU time is excluded from the figures.
class IdleSpinners {
 public:
  IdleSpinners() {
    for (int i = 0; i < static_cast<int>(AllowedCpus().size()); ++i) {
      threads_.emplace_back([this, i] {
        PinCurrentThread(i, 1);
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
      clockid_t clock{};
      if (pthread_getcpuclockid(threads_.back().native_handle(), &clock) == 0) {
        clocks_.push_back(clock);
      }
    }
  }
  ~IdleSpinners() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// CPU seconds the spinners have used so far.
  double cpu_seconds() const {
    double total = 0.0;
    for (clockid_t clock : clocks_) {
      timespec ts{};
      if (clock_gettime(clock, &ts) == 0) {
        total += static_cast<double>(ts.tv_sec) +
                 static_cast<double>(ts.tv_nsec) * 1e-9;
      }
    }
    return total;
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<clockid_t> clocks_;
  std::vector<std::thread> threads_;
};

/// Process CPU time split by mode, without the spinners' time.
struct CpuSample {
  double user_s = 0.0;
  double sys_s = 0.0;

  static CpuSample Now(const IdleSpinners& spinners) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    CpuSample sample;
    sample.user_s = static_cast<double>(usage.ru_utime.tv_sec) +
                    static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 -
                    spinners.cpu_seconds();
    sample.sys_s = static_cast<double>(usage.ru_stime.tv_sec) +
                   static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
    return sample;
  }
};

/// Peak resident set since the last ResetPeakRss (or since start).
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Hands the pages an earlier episode's stack freed back to the system
/// and restarts the peak-RSS high-water mark at the resulting resident
/// set (Linux's clear_refs "5"), so each episode reports its own peak,
/// as a fresh `serve` process would, not what the allocator kept from the
/// stacks torn down before it. The allocator's settings stay glibc's
/// defaults.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Independent seed per purpose from the workload seed (SplitMix64).
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

// ------------------------------------------------------------ workloads

enum class RangeMix {
  kHotAndFresh,  // half Zipf-weighted from a fixed hot set, half fresh uniform
  kShort,        // lengths 1..32, uniform positions
  kUniform,      // lo ~ U(0, n-1), hi ~ U(lo, n-1), as the bench/ drivers
};

struct WorkloadSpec {
  const char* name;
  int domain_log2;
  StrategyKind strategy;
  std::int64_t shards;
  std::int64_t cache_capacity;
  bool durable;
  bool binary;             // reader protocol
  int readers;             // reader connections
  int client_threads;      // reader threads (connections are split over them)
  int batch;               // ranges per request
  int in_flight;           // requests outstanding per connection
  RangeMix mix;
  int pool_batches;        // pre-generated requests per connection (cycled)
  int replay_batches;      // requests per connection per replay pass
  int rmse_releases;       // independent releases averaged by answer_rmse
  int check_every;         // answer-check one reply in this many
  int checks_per_reply;    // answers compared per checked reply
  double replan_period_ms; // in-window operator republish schedule; 0 = none
};

// README.md documents each workload and why it was chosen. Pools are
// large enough that a fresh range of hbar-default is evicted long before
// it recurs (each recurrence is ~2^19 distinct ranges away, against a
// 65536-entry cache), and on the cached workloads an episode's three
// replay passes fit in a pool, so no request an episode replays repeats
// an earlier one of that episode.
const WorkloadSpec kWorkloads[] = {
    {"hbar-default", 16, StrategyKind::kHBar, 1, 1 << 16, false, true, 4, 2,
     64, 4, RangeMix::kHotAndFresh, 4096, 384, 128, 8, 1, 0.0},
    {"ltilde-bulk", 20, StrategyKind::kLTilde, 8, 0, false, true, 2, 2, 4096,
     2, RangeMix::kShort, 64, 512, 8, 1, 8, 0.0},
    {"replan-durable", 18, StrategyKind::kAuto, 1, 1 << 16, true, false, 2, 2,
     64, 4, RangeMix::kUniform, 2048, 224, 64, 4, 1, 250.0},
};

constexpr double kEpsilon = 1.0;
constexpr int kServerWorkers = 2;
constexpr std::int64_t kHotSetSize = 16384;
constexpr int kRmseSample = 4096;
constexpr int kEpisodes = 10;
constexpr int kIdleRepublishes = 3;
constexpr double kIdleRepublishPeriodMs = 100.0;
constexpr double kWarmupSeconds = 0.5;
constexpr double kSliceSeconds = 0.25;
constexpr int kPublishTraceRepeats = 5;

/// Generates one workload's ranges from its own RNG stream.
class RangeSource {
 public:
  RangeSource(const WorkloadSpec& spec, std::int64_t n, std::uint64_t seed)
      : mix_(spec.mix), n_(n), rng_(seed), hot_zipf_(kHotSetSize, 1.1) {
    if (mix_ == RangeMix::kHotAndFresh) {
      Rng hot_rng(DeriveSeed(seed, 99));
      hot_.reserve(static_cast<std::size_t>(kHotSetSize));
      for (std::int64_t i = 0; i < kHotSetSize; ++i) {
        hot_.push_back(Uniform(&hot_rng));
      }
    }
  }

  Interval Next() {
    switch (mix_) {
      case RangeMix::kHotAndFresh:
        if (rng_.NextBernoulli(0.5)) {
          return hot_[static_cast<std::size_t>(hot_zipf_.Sample(&rng_))];
        }
        return Uniform(&rng_);
      case RangeMix::kShort: {
        const std::int64_t length = rng_.NextInt(1, 32);
        const std::int64_t lo = rng_.NextInt(0, n_ - length);
        return Interval(lo, lo + length - 1);
      }
      case RangeMix::kUniform:
        return Uniform(&rng_);
    }
    return Interval(0, 0);
  }

 private:
  Interval Uniform(Rng* rng) const {
    const std::int64_t lo = rng->NextInt(0, n_ - 1);
    return Interval(lo, rng->NextInt(lo, n_ - 1));
  }

  RangeMix mix_;
  std::int64_t n_;
  Rng rng_;
  dphist::ZipfDistribution hot_zipf_;
  std::vector<Interval> hot_;
};

/// One connection's pre-generated requests, cycled during the run so the
/// load generator spends its time on the wire, not on drawing ranges.
struct RequestPool {
  std::vector<std::vector<Interval>> batches;
  std::vector<std::string> lines;  // text workloads: "qb K lo hi ...\n"
  std::size_t next = 0;
  std::uint64_t sent = 0;  // requests taken so far, over every episode

  std::size_t Take() {
    const std::size_t index = next;
    next = (next + 1) % batches.size();
    sent += 1;
    return index;
  }
};

std::string FormatQbLine(const std::vector<Interval>& ranges) {
  std::string line = "qb " + std::to_string(ranges.size());
  for (const Interval& range : ranges) {
    line += ' ';
    line += std::to_string(range.lo());
    line += ' ';
    line += std::to_string(range.hi());
  }
  line += '\n';
  return line;
}

// ---------------------------------------------------------- connections

/// A loopback client connection over a raw fd: one large receive buffer,
/// in-place frame and line decoding (no iostream on the hot path).
class Conn {
 public:
  static std::unique_ptr<Conn> Open(int port, bool binary) {
    auto stream = runtime::ConnectLoopback(port);
    if (!stream.ok()) return nullptr;
    std::unique_ptr<Conn> conn(new Conn(std::move(stream).value()));
    std::string_view banner;
    if (!conn->ReadLine(&banner) || banner.rfind("# serving", 0) != 0) {
      return nullptr;
    }
    if (binary) {
      const char magic = static_cast<char>(wire::kMagic);
      wire::Frame hello;
      if (!conn->Send(std::string_view(&magic, 1)) ||
          !conn->ReadFrame(&hello) || hello.type != wire::FrameType::kHello) {
        return nullptr;
      }
    }
    return conn;
  }

  bool Send(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t sent =
          ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      bytes.remove_prefix(static_cast<std::size_t>(sent));
    }
    return true;
  }

  /// Outcome of decoding from what has been received so far.
  enum class Got { kYes, kNeedMore, kBroken };

  /// The next '\n'-terminated line (without the newline) already in the
  /// buffer; the view is valid until the next Fill.
  Got TryLine(std::string_view* line) {
    const char* start = buf_.data() + begin_;
    const void* newline = std::memchr(start, '\n', end_ - begin_);
    if (newline == nullptr) return Got::kNeedMore;
    const auto length =
        static_cast<std::size_t>(static_cast<const char*>(newline) - start);
    *line = std::string_view(start, length);
    begin_ += length + 1;
    return Got::kYes;
  }

  /// The next complete frame already in the buffer; its payload view is
  /// valid until the next Fill.
  Got TryFrame(wire::Frame* frame) {
    auto consumed = wire::DecodeFrame(
        std::string_view(buf_.data() + begin_, end_ - begin_), frame);
    if (!consumed.ok()) return Got::kBroken;
    if (consumed.value() == 0) return Got::kNeedMore;
    begin_ += consumed.value();
    return Got::kYes;
  }

  /// Blocking forms: receive until a line / frame is complete. False on
  /// EOF, error or a malformed frame.
  bool ReadLine(std::string_view* line) {
    while (true) {
      const Got got = TryLine(line);
      if (got == Got::kYes) return true;
      if (!Fill()) return false;
    }
  }
  bool ReadFrame(wire::Frame* frame) {
    while (true) {
      const Got got = TryFrame(frame);
      if (got == Got::kYes) return true;
      if (got == Got::kBroken || !Fill()) return false;
    }
  }

  /// One recv into the buffer (blocks until bytes arrive); false on EOF
  /// or error. Invalidates views handed out earlier.
  bool Fill() {
    if (begin_ > 0) {
      std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
      end_ -= begin_;
      begin_ = 0;
    }
    if (end_ == buf_.size()) buf_.resize(buf_.size() * 2);
    while (true) {
      const ssize_t got =
          ::recv(fd_, buf_.data() + end_, buf_.size() - end_, 0);
      if (got > 0) {
        end_ += static_cast<std::size_t>(got);
        return true;
      }
      if (got < 0 && errno == EINTR) continue;
      return false;
    }
  }

  int fd() const { return fd_; }

 private:
  explicit Conn(std::unique_ptr<runtime::SocketStream> stream)
      : stream_(std::move(stream)), fd_(stream_->fd()), buf_(1 << 16) {}

  std::unique_ptr<runtime::SocketStream> stream_;  // owns the fd
  int fd_;
  std::vector<char> buf_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

// ------------------------------------------------------------- the stack

/// Keeps every snapshot an answer may cite, so sampled answers are
/// checked against the release of the epoch that served them.
class SnapshotBook {
 public:
  explicit SnapshotBook(const QueryService* service) : service_(service) {}

  void Record(std::shared_ptr<const Snapshot> snapshot) {
    if (snapshot == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex_);
    by_epoch_[snapshot->epoch()] = std::move(snapshot);
    while (by_epoch_.size() > kRetained) by_epoch_.erase(by_epoch_.begin());
  }

  /// The snapshot that served `epoch`; null when it is no longer known.
  std::shared_ptr<const Snapshot> Get(std::uint64_t epoch) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = by_epoch_.find(epoch);
      if (it != by_epoch_.end()) return it->second;
    }
    std::shared_ptr<const Snapshot> current = service_->snapshot();
    if (current == nullptr || current->epoch() != epoch) return nullptr;
    Record(current);
    return current;
  }

 private:
  // Replans land every 250 ms at most; an answer cites one of the last
  // two epochs, and every retained release costs resident memory.
  static constexpr std::size_t kRetained = 3;
  const QueryService* service_;
  std::mutex mutex_;
  std::map<std::uint64_t, std::shared_ptr<const Snapshot>> by_epoch_;
};

struct Stack {
  // Declaration order is teardown order reversed: connections close
  // first, then the listener, the manager, the service, the store.
  std::unique_ptr<storage::EpochStore> store;
  std::unique_ptr<QueryService> service;
  std::unique_ptr<runtime::EpochManager> manager;
  std::unique_ptr<runtime::SocketServer> server;
  std::vector<std::unique_ptr<Conn>> readers;
  std::unique_ptr<Conn> operator_conn;  // REPLAN requests (durable only)
};

struct Config {
  const WorkloadSpec* spec = nullptr;
  std::int64_t n = 0;
  SnapshotOptions base;
  QueryServiceOptions service_options;
  runtime::EpochManagerOptions manager_options;
  std::string state_dir;
};

Config MakeConfig(const WorkloadSpec& spec, const std::string& work_dir) {
  Config config;
  config.spec = &spec;
  config.n = std::int64_t{1} << spec.domain_log2;
  config.base.epsilon = kEpsilon;
  config.base.strategy = spec.strategy;
  config.base.branching = 2;
  config.base.shards = spec.shards;
  config.base.build_threads = 1;  // serve's default
  // Replans on the fixed-config workloads republish that same config;
  // replan-durable plans over serve's default candidates (README records
  // what `auto` resolves to).
  planner::PlannerOptions planner_options;
  if (spec.strategy != StrategyKind::kAuto) {
    planner_options.strategies = {spec.strategy};
    planner_options.shard_counts = {spec.shards};
  }
  config.service_options.cache_capacity = spec.cache_capacity;
  config.service_options.planner = planner_options;
  config.manager_options.base = config.base;
  config.manager_options.planner = planner_options;
  if (spec.durable) {
    config.state_dir = work_dir + "/state-" + spec.name + "-" +
                       std::to_string(::getpid());
  }
  return config;
}

/// Builds the serving stack and connects every client: the span setup_s
/// times. Returns null on any failure.
std::unique_ptr<Stack> SetUp(const Config& config, const Histogram& data,
                             std::uint64_t seed) {
  auto stack = std::make_unique<Stack>();
  runtime::EpochManagerOptions manager_options = config.manager_options;
  if (config.spec->durable) {
    auto store = storage::EpochStore::Open(config.state_dir);
    if (!store.ok()) return nullptr;
    stack->store = std::move(store).value();
    manager_options.store = stack->store.get();
  }
  stack->service = std::make_unique<QueryService>(config.service_options);
  stack->manager = std::make_unique<runtime::EpochManager>(
      stack->service.get(), data, manager_options, seed);
  if (config.spec->durable) {
    auto recovered = stack->manager->Recover();
    if (!recovered.ok() || !recovered.value().republished) return nullptr;
  } else if (!stack->manager->PublishInitial().ok()) {
    return nullptr;
  }
  runtime::TransportOptions transport;
  transport.port = 0;
  transport.workers = kServerWorkers;
  stack->server = std::make_unique<runtime::SocketServer>(
      *stack->service, *stack->manager, transport);
  if (!stack->server->Start().ok()) return nullptr;
  const int port = stack->server->port();
  for (int c = 0; c < config.spec->readers; ++c) {
    auto conn = Conn::Open(port, config.spec->binary);
    if (conn == nullptr) return nullptr;
    stack->readers.push_back(std::move(conn));
  }
  if (config.spec->replan_period_ms > 0.0) {
    stack->operator_conn = Conn::Open(port, /*binary=*/true);
    if (stack->operator_conn == nullptr) return nullptr;
  }
  return stack;
}

/// Fills the durable workload's state dir with one published epoch, so
/// every timed set-up is a warm Recover (untimed).
void PrefillStateDir(const Config& config, const Histogram& data,
                     const planner::WorkloadProfile& profile,
                     std::uint64_t seed) {
  std::filesystem::remove_all(config.state_dir);
  auto store = storage::EpochStore::Open(config.state_dir);
  if (!store.ok()) Fatal("cannot open state dir " + config.state_dir);
  runtime::EpochManagerOptions options = config.manager_options;
  options.store = store.value().get();
  QueryService service(config.service_options);
  runtime::EpochManager manager(&service, data, options, seed);
  auto published = manager.PublishInitial(&profile);
  if (!published.ok()) {
    Fatal("pre-run publish failed: " + published.status().ToString());
  }
}

// ------------------------------------------------------------ the load

struct ClientStats {
  std::vector<SlicedSample> latencies_us;  // requests sent inside the window
  std::uint64_t attempted = 0;          // requests sent (whole run)
  std::uint64_t failed = 0;             // ERROR / error: / dropped / check
  std::uint64_t answered_in_window = 0;
  std::uint64_t checks = 0;             // answers compared
  std::uint64_t check_failures = 0;
  std::uint64_t unchecked = 0;          // epoch no longer known
  std::vector<double> publish_ms;       // operator republish latencies
  std::vector<double> lateness_ms;      // how late each REPLAN was sent
  std::string first_error;
};

/// The measured window, cut into equal slices for the batch percentiles.
struct Window {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t slice_ns = 1;
};

void NoteFailure(ClientStats* stats, const std::string& what) {
  stats->failed += 1;
  if (stats->first_error.empty()) stats->first_error = what;
}

void RecordReply(const Window& window, std::int64_t sent_ns,
                 std::int64_t done_ns, std::size_t answered,
                 ClientStats* stats) {
  if (sent_ns >= window.start_ns && done_ns <= window.end_ns) {
    const auto slice = static_cast<std::uint32_t>(
        (sent_ns - window.start_ns) / window.slice_ns);
    stats->latencies_us.push_back(
        SlicedSample{slice, static_cast<double>(done_ns - sent_ns) / 1e3});
  }
  if (done_ns >= window.start_ns && done_ns < window.end_ns) {
    stats->answered_in_window += answered;
  }
}

/// Which answers of reply number `seq` the answer check samples.
std::size_t CheckedIndex(std::uint64_t seq, int k, std::size_t count) {
  return static_cast<std::size_t>((seq * 2654435761ULL + k * 7919ULL) %
                                  count);
}

/// Parses "# batch n=K epoch=E"; false for any other line.
bool ParseReceipt(std::string_view line, std::uint64_t* count,
                  std::uint64_t* epoch) {
  constexpr std::string_view kPrefix = "# batch n=";
  if (line.rfind(kPrefix, 0) != 0) return false;
  line.remove_prefix(kPrefix.size());
  auto [after_count, ec] =
      std::from_chars(line.data(), line.data() + line.size(), *count);
  if (ec != std::errc()) return false;
  const std::string_view rest(after_count,
                              line.data() + line.size() - after_count);
  constexpr std::string_view kEpoch = " epoch=";
  if (rest.rfind(kEpoch, 0) != 0) return false;
  return std::from_chars(rest.data() + kEpoch.size(),
                         rest.data() + rest.size(), *epoch)
             .ec == std::errc();
}

/// One connection of a reader thread: its request pool, the requests it
/// has outstanding (oldest first) and, on the text protocol, the reply
/// being read.
struct Lane {
  struct Pending {
    std::int64_t sent_ns = 0;  // 0 until the request is written
    std::size_t batch = 0;
  };
  Conn* conn = nullptr;
  RequestPool* pool = nullptr;
  std::deque<Pending> pending;
  std::string out;  // requests queued for the next write
  bool alive = true;
  std::uint64_t replies = 0;
  std::size_t answer_lines = 0;  // text: answer lines of the current reply
  std::vector<std::pair<std::size_t, std::string>> sampled;
};

/// One reader thread: a closed loop keeping exactly `in_flight` requests
/// outstanding on each of its connections — every reply that arrives is
/// answered with the next request — multiplexed with poll(2). Stops
/// sending at the window's end and drains what is outstanding.
class Reader {
 public:
  Reader(const WorkloadSpec& spec, const Window& window,
         std::vector<Lane> lanes, SnapshotBook* book, ClientStats* stats)
      : spec_(spec),
        window_(window),
        lanes_(std::move(lanes)),
        book_(book),
        stats_(stats) {}

  void Run() {
    for (Lane& lane : lanes_) {
      for (int d = 0; d < spec_.in_flight; ++d) Queue(lane);
      Flush(lane);
    }
    // A server that stops answering fails the run instead of hanging it.
    const std::int64_t give_up = window_.end_ns + 30'000'000'000;
    std::vector<pollfd> fds;
    std::vector<Lane*> polled;
    while (true) {
      fds.clear();
      polled.clear();
      for (Lane& lane : lanes_) {
        if (lane.alive && !lane.pending.empty()) {
          fds.push_back(pollfd{lane.conn->fd(), POLLIN, 0});
          polled.push_back(&lane);
        }
      }
      if (fds.empty()) return;
      if (NowNs() > give_up) {
        for (Lane* lane : polled) Drop(*lane, "server stopped answering");
        return;
      }
      if (::poll(fds.data(), fds.size(), 1000) < 0 && errno != EINTR) {
        for (Lane* lane : polled) Drop(*lane, "poll failed");
        return;
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (fds[i].revents == 0) continue;
        Lane& lane = *polled[i];
        if (!lane.conn->Fill()) {
          Drop(lane, "read failed (connection dropped)");
          continue;
        }
        const bool intact =
            spec_.binary ? DrainFrames(lane) : DrainLines(lane);
        if (!intact) {
          Drop(lane, "malformed reply stream");
          continue;
        }
        Flush(lane);
      }
    }
  }

 private:
  void Queue(Lane& lane) {
    const std::size_t index = lane.pool->Take();
    if (spec_.binary) {
      const auto& batch = lane.pool->batches[index];
      wire::EncodeQuery(++next_id_, 0, batch.data(), batch.size(), &lane.out);
    } else {
      lane.out += lane.pool->lines[index];
    }
    lane.pending.push_back(Lane::Pending{0, index});
    stats_->attempted += 1;
  }

  void Flush(Lane& lane) {
    if (lane.out.empty() || !lane.alive) return;
    const std::int64_t now = NowNs();
    for (auto it = lane.pending.rbegin();
         it != lane.pending.rend() && it->sent_ns == 0; ++it) {
      it->sent_ns = now;
    }
    if (!lane.conn->Send(lane.out)) {
      Drop(lane, "send failed (connection dropped)");
    }
    lane.out.clear();
  }

  void Drop(Lane& lane, const char* why) {
    for (std::size_t i = 0; i < lane.pending.size(); ++i) {
      NoteFailure(stats_, why);
    }
    lane.pending.clear();
    lane.alive = false;
  }

  /// Completes the oldest request: records it (failed or answered) and,
  /// while the window is open, replaces it with the next request.
  void Complete(Lane& lane, const char* failure) {
    const Lane::Pending done = lane.pending.front();
    lane.pending.pop_front();
    lane.replies += 1;
    if (failure != nullptr) {
      NoteFailure(stats_, failure);
    } else {
      RecordReply(window_, done.sent_ns, NowNs(),
                  lane.pool->batches[done.batch].size(), stats_);
    }
    if (NowNs() < window_.end_ns) Queue(lane);
  }

  bool CheckThisReply(const Lane& lane) const {
    return (lane.replies + 1) % static_cast<std::uint64_t>(spec_.check_every) ==
           0;
  }

  bool DrainFrames(Lane& lane) {
    wire::Frame frame;
    Conn::Got got = Conn::Got::kNeedMore;
    while (!lane.pending.empty() &&
           (got = lane.conn->TryFrame(&frame)) == Conn::Got::kYes) {
      if (frame.type == wire::FrameType::kPlan ||
          frame.type == wire::FrameType::kNote) {
        continue;  // a pushed republish announcement
      }
      if (frame.type != wire::FrameType::kAnswers) {
        Complete(lane, "server replied with an ERROR frame");
        continue;
      }
      const auto& batch = lane.pool->batches[lane.pending.front().batch];
      if (!wire::ParseAnswers(frame.payload, &answers_).ok() ||
          answers_.values.size() != batch.size()) {
        Complete(lane, "malformed ANSWERS frame");
        continue;
      }
      bool ok = true;
      if (CheckThisReply(lane)) {
        std::shared_ptr<const Snapshot> snap = book_->Get(answers_.epoch);
        if (snap == nullptr) {
          stats_->unchecked += 1;
        } else {
          for (int k = 0; k < spec_.checks_per_reply; ++k) {
            const std::size_t i = CheckedIndex(lane.replies, k, batch.size());
            const double expected = snap->RangeCount(batch[i]);
            stats_->checks += 1;
            if (std::memcmp(&expected, &answers_.values[i], sizeof(double)) !=
                0) {
              stats_->check_failures += 1;
              ok = false;
            }
          }
        }
      }
      Complete(lane,
               ok ? nullptr : "served answer differs from Snapshot::RangeCount");
    }
    return lane.pending.empty() || got != Conn::Got::kBroken;
  }

  bool DrainLines(Lane& lane) {
    std::string_view line;
    while (!lane.pending.empty() &&
           lane.conn->TryLine(&line) == Conn::Got::kYes) {
      const auto& batch = lane.pool->batches[lane.pending.front().batch];
      if (line.rfind("error:", 0) == 0) {
        lane.answer_lines = 0;
        lane.sampled.clear();
        Complete(lane, "server replied with an error: line");
        continue;
      }
      std::uint64_t count = 0;
      std::uint64_t epoch = 0;
      if (line.rfind("#", 0) == 0) {
        if (!ParseReceipt(line, &count, &epoch)) continue;  // a push
        const bool whole =
            count == batch.size() && lane.answer_lines == batch.size();
        bool ok = true;
        if (whole && CheckThisReply(lane)) {
          std::shared_ptr<const Snapshot> snap = book_->Get(epoch);
          if (snap == nullptr) {
            stats_->unchecked += 1;
          } else {
            for (const auto& [index, served] : lane.sampled) {
              expected_.clear();
              runtime::AppendAnswerLine(snap->RangeCount(batch[index]),
                                        &expected_);
              expected_.pop_back();  // the newline
              stats_->checks += 1;
              if (served != expected_) {
                stats_->check_failures += 1;
                ok = false;
              }
            }
          }
        }
        lane.answer_lines = 0;
        lane.sampled.clear();
        Complete(lane,
                 !whole ? "batch receipt does not match the request"
                 : ok   ? nullptr
                        : "served answer differs from Snapshot::RangeCount");
        continue;
      }
      if (CheckThisReply(lane)) {
        for (int k = 0; k < spec_.checks_per_reply; ++k) {
          if (CheckedIndex(lane.replies + 1, k, batch.size()) ==
              lane.answer_lines) {
            lane.sampled.emplace_back(lane.answer_lines, std::string(line));
          }
        }
      }
      lane.answer_lines += 1;
    }
    return true;
  }

  const WorkloadSpec& spec_;
  const Window& window_;
  std::vector<Lane> lanes_;
  SnapshotBook* book_;
  ClientStats* stats_;
  std::uint64_t next_id_ = 0;
  wire::AnswersFrame answers_;
  std::string expected_;
};

/// The operator: `count` REPLAN requests on a fixed schedule (one every
/// `period_ms` from `first_due_ns`, independent of how fast the server
/// answers), each timed from when it was due until its PLAN arrives.
/// Each new release is recorded in `book` (when given) for the readers'
/// answer check.
void RunOperator(Conn* conn, std::int64_t first_due_ns, double period_ms,
                 std::int64_t stop_ns, int max_count, const QueryService* service,
                 SnapshotBook* book, ClientStats* stats) {
  std::string request;
  std::uint64_t next_id = 1u << 30;
  for (int k = 0; k < max_count; ++k) {
    const std::int64_t due =
        first_due_ns + static_cast<std::int64_t>(k * period_ms * 1e6);
    if (due >= stop_ns) break;
    SleepUntilNs(due);
    request.clear();
    wire::EncodeReplanRequest(++next_id, &request);
    stats->attempted += 1;
    const std::int64_t sent = NowNs();
    stats->lateness_ms.push_back(static_cast<double>(sent - due) / 1e6);
    if (!conn->Send(request)) {
      NoteFailure(stats, "REPLAN send failed");
      return;
    }
    wire::Frame frame;
    bool got = false;
    while ((got = conn->ReadFrame(&frame))) {
      if (frame.type == wire::FrameType::kPlan ||
          frame.type == wire::FrameType::kError ||
          frame.type == wire::FrameType::kNote) {
        break;
      }
    }
    const std::int64_t done = NowNs();
    if (!got) {
      NoteFailure(stats, "REPLAN read failed (connection dropped)");
      return;
    }
    if (frame.type != wire::FrameType::kPlan) {
      NoteFailure(stats, "REPLAN did not republish");
      continue;
    }
    stats->publish_ms.push_back(static_cast<double>(done - due) / 1e6);
    if (book != nullptr) book->Record(service->snapshot());
  }
}

/// Ends every session politely (GOODBYE / quit) and waits for the
/// server's final receipt, so the transport counts no session errors.
void CloseSessions(Stack* stack, bool binary) {
  std::string goodbye;
  wire::EncodeGoodbye(&goodbye);
  auto close_binary = [&](Conn* conn) {
    if (!conn->Send(goodbye)) return;
    wire::Frame frame;
    while (conn->ReadFrame(&frame) && frame.type != wire::FrameType::kBye) {
    }
  };
  for (auto& conn : stack->readers) {
    if (binary) {
      close_binary(conn.get());
    } else if (conn->Send("quit\n")) {
      std::string_view line;
      while (conn->ReadLine(&line)) {
      }
    }
  }
  if (stack->operator_conn != nullptr) close_binary(stack->operator_conn.get());
  stack->readers.clear();
  stack->operator_conn.reset();
}

// --------------------------------------------------------------- tracing

/// In-memory span log of one replay thread; disabled recorders make
/// every call a no-op so the untraced replay runs the identical calls.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  std::int32_t Begin(const char* name, std::int32_t parent,
                     std::uint64_t request) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void End(std::int32_t index) {
    if (index >= 0) spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  }

  std::vector<Span>& spans() { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanRecorder* rec, const char* name, std::int32_t parent,
        std::uint64_t request)
      : rec_(rec), index_(rec->Begin(name, parent, request)) {}
  ~Scope() { rec_->End(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  std::int32_t index() const { return index_; }

 private:
  SpanRecorder* rec_;
  std::int32_t index_;
};

// Span names double as the per-layer metric stems.
constexpr const char* kSpanRequest = "request";
constexpr const char* kSpanProbe = "probe";
constexpr const char* kSpanWireEncode = "runtime.wire.encode";
constexpr const char* kSpanWireDecode = "runtime.wire.decode";
constexpr const char* kSpanSessionParse = "runtime.session.parse";
constexpr const char* kSpanSessionFormat = "runtime.session.format";
constexpr const char* kSpanBatch = "service.query_service.batch";
constexpr const char* kSpanValidate = "service.query_service.validate";
constexpr const char* kSpanEngine = "engine.answer_engine";
constexpr const char* kSpanWalker = "service.snapshot.walker";

struct ReplayResult {
  std::vector<Span> spans;
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t mismatches = 0;  // served vs. probe answers
  double seconds = 0.0;
};

/// Adds `from` to `into`; span parent indexes are rebased into the merged
/// log.
void Merge(ReplayResult from, ReplayResult* into) {
  into->queries += from.queries;
  into->cache_hits += from.cache_hits;
  into->mismatches += from.mismatches;
  into->seconds += from.seconds;
  const auto offset = static_cast<std::int32_t>(into->spans.size());
  for (Span span : from.spans) {
    if (span.parent >= 0) span.parent += offset;
    into->spans.push_back(span);
  }
}

/// Replays `batches` requests of every pool, starting `skip` requests
/// past where the load left it, through the layers' public entry points:
/// one thread per server worker, each running the calls the server's
/// connection handler makes (plus the client's encode and decode), then
/// probing the inner answer path on the same ranges. Request ids start
/// at `first_id`.
ReplayResult Replay(const Config& config, QueryService* service,
                    std::vector<RequestPool>* pools, std::size_t skip,
                    int batches, bool traced, std::uint64_t first_id) {
  const WorkloadSpec& spec = *config.spec;
  std::shared_ptr<const Snapshot> snap = service->snapshot();
  const engine::AnswerPlan* plan = snap->answer_plan();
  const int threads = kServerWorkers;
  std::vector<ReplayResult> results(static_cast<std::size_t>(threads));
  std::vector<std::thread> pool;
  const std::int64_t start = NowNs();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ReplayResult& out = results[static_cast<std::size_t>(t)];
      SpanRecorder rec(traced);
      std::string request;
      std::string reply;
      std::vector<double> answers;
      std::vector<double> probe;
      wire::QueryFrame query;
      wire::AnswersFrame parsed;
      std::ostringstream text;
      runtime::SessionWriter writer(text);
      runtime::SessionCommand command;
      std::uint64_t id = first_id + (static_cast<std::uint64_t>(t) << 32);
      for (std::size_t c = static_cast<std::size_t>(t); c < pools->size();
           c += static_cast<std::size_t>(threads)) {
        RequestPool& rp = (*pools)[c];
        for (int b = 0; b < batches; ++b) {
          const std::size_t index =
              (rp.next + skip + static_cast<std::size_t>(b)) %
              rp.batches.size();
          const std::vector<Interval>& ranges = rp.batches[index];
          const std::size_t count = ranges.size();
          answers.resize(count);
          probe.resize(count);
          ++id;
          std::uint64_t hits = 0;
          {
            Scope root(&rec, kSpanRequest, -1, id);
            const Interval* served = ranges.data();
            if (spec.binary) {
              {
                Scope s(&rec, kSpanWireEncode, root.index(), id);
                request.clear();
                wire::EncodeQuery(id, 0, ranges.data(), count, &request);
              }
              {
                Scope s(&rec, kSpanWireDecode, root.index(), id);
                wire::Frame frame;
                if (!wire::DecodeFrame(request, &frame).ok() ||
                    !wire::ParseQuery(frame.payload, config.n, &query).ok()) {
                  Fatal("replay: request did not decode");
                }
              }
              served = query.ranges.data();
            } else {
              Scope s(&rec, kSpanSessionParse, root.index(), id);
              std::string_view line = rp.lines[index];
              line.remove_suffix(1);  // the newline
              auto parsed_line = runtime::ParseSessionLine(
                  line, config.n, static_cast<std::int64_t>(b) + 1, &command);
              if (!parsed_line.ok() || !parsed_line.value()) {
                Fatal("replay: qb line did not parse");
              }
              served = command.ranges.data();
            }
            std::uint64_t epoch = 0;
            {
              Scope s(&rec, kSpanBatch, root.index(), id);
              auto answered =
                  service->TryQueryBatch(served, count, answers.data(), &hits);
              if (!answered.ok()) Fatal("replay: TryQueryBatch failed");
              epoch = answered.value();
            }
            if (spec.binary) {
              {
                Scope s(&rec, kSpanWireEncode, root.index(), id);
                reply.clear();
                wire::EncodeAnswers(id, epoch, answers.data(), count, &reply);
              }
              Scope s(&rec, kSpanWireDecode, root.index(), id);
              wire::Frame frame;
              if (!wire::DecodeFrame(reply, &frame).ok() ||
                  !wire::ParseAnswers(frame.payload, &parsed).ok()) {
                Fatal("replay: reply did not decode");
              }
            } else {
              Scope s(&rec, kSpanSessionFormat, root.index(), id);
              text.str(std::string());
              writer.Answers(answers.data(), count);
              writer.BatchReceipt(count, epoch);
            }
          }
          {
            Scope root(&rec, kSpanProbe, -1, id);
            {
              Scope s(&rec, kSpanValidate, root.index(), id);
              if (!service->ValidateBatch(ranges.data(), count).ok()) {
                Fatal("replay: ValidateBatch failed");
              }
            }
            if (plan != nullptr) {
              Scope s(&rec, kSpanEngine, root.index(), id);
              engine::AnswerBatch(*plan, ranges.data(), nullptr, count,
                                  probe.data());
            } else {
              Scope s(&rec, kSpanWalker, root.index(), id);
              snap->RangeCountsInto(ranges.data(), count, probe.data());
            }
          }
          if (std::memcmp(answers.data(), probe.data(),
                          count * sizeof(double)) != 0) {
            out.mismatches += 1;
          }
          out.queries += count;
          out.cache_hits += hits;
        }
      }
      out.spans = std::move(rec.spans());
    });
  }
  for (std::thread& thread : pool) thread.join();
  ReplayResult merged;
  for (ReplayResult& r : results) Merge(std::move(r), &merged);
  merged.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return merged;
}

/// One episode's replay: an untraced and a traced pass over disjoint runs
/// of the requests the load sent longest ago.
struct EpisodeReplay {
  ReplayResult untraced;
  ReplayResult traced;
  std::uint64_t mismatches = 0;  // every pass, the warm-up included
};

/// Replays on episode `episode`'s stack right after its load, so the
/// layer times sample the same stretch of the machine's time as the CPU
/// basis they are subtracted from: a replay run once at the end of a run
/// lasts about a second, and one slow second of a shared 4-vCPU KVM guest
/// moved hbar-default's residual from about 0 to -38% of the CPU basis. A
/// warm-up pass first fills a cached workload's cache for the epoch the
/// republishes after the window left (entries are keyed by epoch); the
/// untraced and traced passes then swap order from episode to episode.
EpisodeReplay ReplayEpisode(const Config& config, QueryService* service,
                            std::vector<RequestPool>* pools, int episode) {
  const int batches = config.spec->replay_batches;
  const auto span = static_cast<std::size_t>(batches);
  const std::uint64_t first_id = static_cast<std::uint64_t>(episode) << 40;
  EpisodeReplay out;
  out.mismatches +=
      Replay(config, service, pools, 0, batches, false, first_id).mismatches;
  const bool traced_first = episode % 2 == 1;
  for (std::size_t pass = 1; pass <= 2; ++pass) {
    const bool traced = (pass == 1) == traced_first;
    ReplayResult& result = traced ? out.traced : out.untraced;
    result = Replay(config, service, pools, pass * span, batches, traced,
                    first_id + (pass << 36));
    out.mismatches += result.mismatches;
  }
  return out;
}

/// Sum of self time per span name, in ns.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = SelfTimes(spans);
  std::map<std::string, double> total;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    total[spans[i].name] += static_cast<double>(self[i]);
  }
  return total;
}

struct PublishTrace {
  std::vector<Span> spans;
  double bytes_per_publish = 0.0;
  double laplace_ns_per_draw = 0.0;
  double hierarchical_ms = 0.0;
  double recover_ms = 0.0;
};

/// Times the publish pipeline at the workload's resolved configuration
/// through the calls the EpochManager makes (plan, WAL spend, build, WAL
/// swap, persist, commit) against a scratch EpochStore, then probes the
/// mechanism, inference and recovery on their own.
PublishTrace TracePublish(const Config& config, const Histogram& data,
                          QueryService* service, std::uint64_t seed,
                          const std::string& store_dir) {
  PublishTrace trace;
  SpanRecorder rec(true);
  const SnapshotOptions resolved = service->snapshot()->options();
  std::filesystem::remove_all(store_dir);
  auto opened = storage::EpochStore::Open(store_dir);
  if (!opened.ok()) Fatal("cannot open " + store_dir);
  std::unique_ptr<storage::EpochStore> owner = std::move(opened).value();
  storage::EpochStore& store = *owner;
  const planner::WorkloadProfile profile = service->ObservedWorkload(config.n);
  // The planner probe sweeps serve's default candidates (what `auto`
  // pays), not the pinned set the workload republishes with.
  planner::PlannerOptions sweep;
  const std::uint64_t wal_before = store.wal_size();
  const std::uint64_t pages_before = store.stats().snapshot_pages_written;
  for (int i = 0; i < kPublishTraceRepeats; ++i) {
    const auto id = static_cast<std::uint64_t>(i);
    Scope root(&rec, "publish", -1, id);
    {
      Scope s(&rec, "planner.choose_plan", root.index(), id);
      SnapshotOptions base = config.base;
      base.strategy = StrategyKind::kAuto;
      if (!planner::ChoosePlan(profile, base, sweep).ok()) {
        Fatal("ChoosePlan failed on the observed profile");
      }
    }
    {
      Scope s(&rec, "storage.wal_append", root.index(), id);
      if (!store.AppendSpend(resolved.epsilon, "perfbench").ok()) {
        Fatal("AppendSpend failed");
      }
    }
    std::optional<QueryService::PendingPublish> pending;
    {
      Scope s(&rec, "service.snapshot.build", root.index(), id);
      auto built =
          service->BuildForPublish(data, resolved, DeriveSeed(seed, 500 + id));
      if (!built.ok()) Fatal("BuildForPublish failed");
      pending.emplace(std::move(built).value());
    }
    {
      Scope s(&rec, "storage.wal_append", root.index(), id);
      if (!store.AppendEpochSwap(pending->epoch()).ok()) {
        Fatal("AppendEpochSwap failed");
      }
    }
    {
      Scope s(&rec, "storage.persist", root.index(), id);
      if (!store.PersistSnapshot(*pending->snapshot(), &profile).ok()) {
        Fatal("PersistSnapshot failed");
      }
    }
    {
      Scope s(&rec, "service.query_service.commit", root.index(), id);
      (void)service->CommitPublish(std::move(*pending));
    }
  }
  trace.bytes_per_publish =
      static_cast<double>(store.wal_size() - wal_before +
                          (store.stats().snapshot_pages_written - pages_before) *
                              storage::kPageSize) /
      kPublishTraceRepeats;

  const std::int64_t width = service->snapshot()->shard_width();
  const bool tree = resolved.strategy == StrategyKind::kHBar ||
                    resolved.strategy == StrategyKind::kHTilde;
  const dphist::TreeLayout layout(width, resolved.branching);
  const std::size_t draws =
      static_cast<std::size_t>(tree ? layout.node_count() : width);
  dphist::LaplaceMechanism mechanism(resolved.epsilon);
  Rng rng(DeriveSeed(seed, 600));
  std::vector<double> noisy(draws, 0.0);
  std::vector<double> laplace_ns;
  std::vector<double> inference_ms;
  std::vector<double> recover_ms;
  for (int i = 0; i < kPublishTraceRepeats; ++i) {
    std::fill(noisy.begin(), noisy.end(), 0.0);
    std::int64_t t0 = NowNs();
    const double sensitivity = tree ? static_cast<double>(layout.height()) : 1.0;
    mechanism.PerturbInPlace(&noisy, sensitivity / resolved.epsilon, &rng);
    laplace_ns.push_back(static_cast<double>(NowNs() - t0) /
                         static_cast<double>(draws));
    if (resolved.strategy == StrategyKind::kHBar) {
      t0 = NowNs();
      dphist::HierarchicalInferenceResult inferred =
          dphist::HierarchicalInference(layout, noisy);
      inference_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
      if (inferred.node_estimates.empty()) Fatal("inference returned nothing");
    }
    t0 = NowNs();
    if (!store.Recover().ok()) Fatal("EpochStore::Recover failed");
    recover_ms.push_back(static_cast<double>(NowNs() - t0) / 1e6);
  }
  trace.laplace_ns_per_draw = Median(laplace_ns);
  trace.hierarchical_ms = inference_ms.empty() ? 0.0 : Median(inference_ms);
  trace.recover_ms = Median(recover_ms);
  trace.spans = std::move(rec.spans());
  owner.reset();
  std::filesystem::remove_all(store_dir);
  return trace;
}

/// Median duration (ms) of the spans named `name`, summed per request.
double MedianPerRequestMs(const std::vector<Span>& spans, const char* name) {
  std::map<std::uint64_t, double> per_request;
  for (const Span& span : spans) {
    if (std::strcmp(span.name, name) == 0) {
      per_request[span.request] +=
          static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
  }
  std::vector<double> values;
  for (const auto& [request, ms] : per_request) values.push_back(ms);
  return values.empty() ? 0.0 : Median(values);
}

/// Appends `spans` to the span file, one JSON line each; `parent` is
/// written as the 0-based line of the parent span in the file. `*lines`
/// counts the lines written so far.
void WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const char* phase, std::int64_t* lines) {
  std::ofstream out(path, std::ios::app);
  for (const Span& span : spans) {
    out << "{\"phase\":\"" << phase << "\",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":"
        << (span.parent < 0 ? -1 : span.parent + *lines)
        << ",\"request\":" << span.request << "}\n";
  }
  *lines += static_cast<std::int64_t>(spans.size());
}

// --------------------------------------------------------------- output

std::string Num(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

/// Ordered JSON object builder (flat values only).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + Quote(key) + ": " + raw;
    return *this;
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Add(key, Quote(value));
  }
  JsonObject& Val(const std::string& key, double value) {
    return Add(key, Num(value));
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Kernel() {
  utsname name{};
  if (uname(&name) != 0) return "unknown";
  return std::string(name.sysname) + " " + name.release;
}

// ------------------------------------------------------------ the run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--git-sha") {
      args.git_sha = value;
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else {
      Fatal("unknown flag " + key);
    }
  }
  if (args.seconds <= 0.0) Fatal("--seconds must be positive");
  return args;
}

struct Inputs {
  Histogram data;
  std::vector<RequestPool> pools;  // one per reader connection
  /// The traffic as the server itself profiles it: log2-bucketed lengths
  /// (QueryService::ObservedWorkload). That also keeps ChoosePlan cheap —
  /// an exact profile of thousands of distinct lengths costs seconds.
  planner::WorkloadProfile profile;
  SnapshotOptions resolved;  // the workload's configuration, auto resolved
};

/// The data and every request of the run: a pure function of the seed.
Inputs MakeInputs(const Config& config, std::uint64_t seed) {
  const WorkloadSpec& spec = *config.spec;
  const std::int64_t n = config.n;
  Rng data_rng(DeriveSeed(seed, 1));
  Inputs in{Histogram::FromCounts(dphist::ZipfCounts(n, 1.1, 5 * n, &data_rng)),
            std::vector<RequestPool>(static_cast<std::size_t>(spec.readers)),
            planner::WorkloadProfile(n), config.base};
  RangeSource source(spec, n, DeriveSeed(seed, 2));
  for (RequestPool& pool : in.pools) {
    pool.batches.resize(static_cast<std::size_t>(spec.pool_batches));
    for (auto& batch : pool.batches) {
      batch.reserve(static_cast<std::size_t>(spec.batch));
      for (int i = 0; i < spec.batch; ++i) {
        batch.push_back(source.Next());
        const std::int64_t bucket_lo =
            std::int64_t{1} << (std::bit_width(static_cast<std::uint64_t>(
                                    batch.back().Length())) -
                                1);
        in.profile.AddLength(std::min(n, (3 * bucket_lo - 1) / 2));
      }
      if (!spec.binary) pool.lines.push_back(FormatQbLine(batch));
    }
  }
  auto resolved = planner::ResolveAutoStrategy(config.base, in.profile,
                                               config.manager_options.planner);
  if (!resolved.ok()) Fatal("cannot resolve the workload's configuration");
  in.resolved = resolved.value();
  return in;
}

/// answer_rmse: several independent releases of the workload's
/// configuration, answered through Publish + TryQueryBatch like the
/// server, pooled over a fixed sample of the workload's ranges.
double AnswerRmse(const Config& config, const Inputs& in, std::uint64_t seed) {
  RangeSource sample_source(*config.spec, config.n, DeriveSeed(seed, 3));
  std::vector<Interval> sample;
  std::vector<double> truth;
  for (int i = 0; i < kRmseSample; ++i) {
    sample.push_back(sample_source.Next());
    truth.push_back(in.data.Count(sample.back()));
  }
  RmseAccumulator rmse;
  std::vector<double> estimates(sample.size());
  for (int r = 0; r < config.spec->rmse_releases; ++r) {
    QueryService service(config.service_options);
    if (!service.Publish(in.data, in.resolved, DeriveSeed(seed, 1000 + r))
             .ok() ||
        !service
             .TryQueryBatch(sample.data(), sample.size(), estimates.data(),
                            nullptr)
             .ok()) {
      Fatal("answer_rmse release failed");
    }
    rmse.Add(estimates.data(), truth.data(), sample.size());
  }
  return rmse.value();
}

/// What one episode's measured window saw.
struct Episode {
  double setup_s = 0.0;
  double qps = 0.0;
  std::vector<double> p50_us;  // one per slice of the window
  std::vector<double> p99_us;
  std::size_t batch_samples = 0;
  std::size_t min_slice_samples = 0;
  double user_ns_per_query = 0.0;
  double sys_ns_per_query = 0.0;
  double answered = 0.0;  // ranges the service answered in the window
  double engine_queries = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double cache_insertions = 0.0;
  double cache_entries = 0.0;
  double peak_rss_mb = 0.0;
  double publish_p50_ms = 0.0;  // median of this episode's republishes
                               // (NaN when it made none)
};

/// Drives `stack` with the workload's readers (and, on replan-durable,
/// the operator) for a warm-up and then a `seconds`-long window, then
/// times the operator's republishes. Every outcome accumulates into
/// `totals`.
Episode RunLoad(const WorkloadSpec& spec, Stack* stack,
                std::vector<RequestPool>* pools, double seconds,
                const IdleSpinners& spinners, ClientStats* totals) {
  ClientStats publishes;  // the operator's republishes
  QueryService& service = *stack->service;
  SnapshotBook book(&service);
  book.Record(service.snapshot());
  Window window;
  window.start_ns = NowNs() + static_cast<std::int64_t>(kWarmupSeconds * 1e9);
  window.end_ns = window.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  const std::int64_t slices = std::max<std::int64_t>(
      1, std::llround(seconds / kSliceSeconds));
  window.slice_ns = (window.end_ns - window.start_ns + slices - 1) / slices;
  std::vector<ClientStats> client_stats(
      static_cast<std::size_t>(spec.client_threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < spec.client_threads; ++t) {
    std::vector<Lane> lanes;
    for (int c = t; c < spec.readers; c += spec.client_threads) {
      Lane lane;
      lane.conn = stack->readers[static_cast<std::size_t>(c)].get();
      lane.pool = &(*pools)[static_cast<std::size_t>(c)];
      lanes.push_back(std::move(lane));
    }
    ClientStats* stats = &client_stats[static_cast<std::size_t>(t)];
    threads.emplace_back([&, lanes = std::move(lanes), stats, t]() mutable {
      PinCurrentThread(kServerWorkers + t % 2, 1);
      Reader(spec, window, std::move(lanes), &book, stats).Run();
    });
  }
  if (spec.replan_period_ms > 0.0) {
    threads.emplace_back([&] {
      RunOperator(stack->operator_conn.get(), window.start_ns,
                  spec.replan_period_ms, window.end_ns, 1 << 20, &service,
                  &book, &publishes);
    });
  }
  SleepUntilNs(window.start_ns);
  const CpuSample cpu_start = CpuSample::Now(spinners);
  const std::uint64_t observed_start = service.observed_query_count();
  const std::uint64_t engine_start =
      engine::GlobalEngineCounters().total_queries();
  const dphist::AnswerCache::Stats cache_start = service.cache_stats();
  SleepUntilNs(window.end_ns);
  const CpuSample cpu_end = CpuSample::Now(spinners);
  const std::uint64_t observed_end = service.observed_query_count();
  const std::uint64_t engine_end =
      engine::GlobalEngineCounters().total_queries();
  const dphist::AnswerCache::Stats cache_end = service.cache_stats();
  Episode e;
  e.cache_entries = static_cast<double>(service.cache_size());
  for (std::thread& thread : threads) thread.join();
  // Workloads that serve one release time the operator publish on the
  // idle server after the window, exactly as replan-durable times its
  // in-load republishes.
  if (spec.replan_period_ms == 0.0) {
    RunOperator(stack->readers[0].get(), NowNs() + 10'000'000,
                kIdleRepublishPeriodMs, std::numeric_limits<std::int64_t>::max(),
                kIdleRepublishes, &service, nullptr, &publishes);
  }
  e.publish_p50_ms = Median(publishes.publish_ms);
  totals->attempted += publishes.attempted;
  totals->failed += publishes.failed;
  if (totals->first_error.empty()) totals->first_error = publishes.first_error;
  totals->publish_ms.insert(totals->publish_ms.end(),
                            publishes.publish_ms.begin(),
                            publishes.publish_ms.end());
  totals->lateness_ms.insert(totals->lateness_ms.end(),
                             publishes.lateness_ms.begin(),
                             publishes.lateness_ms.end());

  std::vector<SlicedSample> latencies;
  std::uint64_t answered_by_clients = 0;
  for (const ClientStats& s : client_stats) {
    latencies.insert(latencies.end(), s.latencies_us.begin(),
                     s.latencies_us.end());
    answered_by_clients += s.answered_in_window;
    totals->attempted += s.attempted;
    totals->failed += s.failed;
    totals->answered_in_window += s.answered_in_window;
    totals->checks += s.checks;
    totals->check_failures += s.check_failures;
    totals->unchecked += s.unchecked;
    if (totals->first_error.empty()) totals->first_error = s.first_error;
  }
  e.qps = static_cast<double>(answered_by_clients) / seconds;
  e.batch_samples = latencies.size();
  std::vector<std::size_t> per_slice(static_cast<std::size_t>(slices), 0);
  for (const SlicedSample& s : latencies) per_slice[s.slice] += 1;
  e.min_slice_samples = *std::min_element(per_slice.begin(), per_slice.end());
  e.p50_us = PercentilePerSlice(latencies, 50.0);
  e.p99_us = PercentilePerSlice(latencies, 99.0);
  e.answered = static_cast<double>(observed_end - observed_start);
  const double per_query = e.answered > 0 ? 1e9 / e.answered : 0.0;
  e.user_ns_per_query = (cpu_end.user_s - cpu_start.user_s) * per_query;
  e.sys_ns_per_query = (cpu_end.sys_s - cpu_start.sys_s) * per_query;
  e.engine_queries = static_cast<double>(engine_end - engine_start);
  e.cache_hits = static_cast<double>(cache_end.hits - cache_start.hits);
  e.cache_misses = static_cast<double>(cache_end.misses - cache_start.misses);
  e.cache_insertions =
      static_cast<double>(cache_end.insertions - cache_start.insertions);
  return e;
}

/// Ends every session, stops the listener and folds the transport's and
/// the manager's counters into the run's.
void TearDown(Stack* stack, bool binary, ClientStats* totals,
              runtime::SocketServer::Stats* transport,
              runtime::EpochManager::Stats* manager) {
  CloseSessions(stack, binary);
  stack->server->Stop();
  const runtime::SocketServer::Stats t = stack->server->stats();
  transport->session_errors += t.session_errors;
  transport->write_errors += t.write_errors;
  const runtime::EpochManager::Stats m = stack->manager->stats();
  manager->republishes += m.republishes;
  manager->failures += m.failures;
  totals->failed += t.session_errors;
}

template <typename F>
std::vector<double> PerEpisode(const std::vector<Episode>& episodes, F field) {
  std::vector<double> values;
  for (const Episode& e : episodes) values.push_back(field(e));
  return values;
}

template <typename F>
double MedianOf(const std::vector<Episode>& episodes, F field) {
  return Median(PerEpisode(episodes, field));
}

/// Median over every slice of every episode of a per-slice percentile.
double MedianOfSlices(const std::vector<Episode>& episodes,
                      std::vector<double> Episode::*slices) {
  std::vector<double> all;
  for (const Episode& e : episodes) {
    all.insert(all.end(), (e.*slices).begin(), (e.*slices).end());
  }
  return Median(std::move(all));
}

template <typename F>
double SumOf(const std::vector<Episode>& episodes, F field) {
  double total = 0.0;
  for (const Episode& e : episodes) total += field(e);
  return total;
}

std::string JsonList(const std::vector<double>& values) {
  std::string list;
  for (double v : values) list += (list.empty() ? "" : ", ") + Num(v);
  return "[" + list + "]";
}

/// The workload descriptors' raw sums, over the ranges the load actually
/// sent and over one cycle of the pools.
struct Traffic {
  double sent = 0.0;           // ranges sent, repeats included
  double distinct_sent = 0.0;  // distinct ranges among them
  double spanning = 0.0;       // sent ranges that span a shard boundary
  double length_sum = 0.0;     // summed length of the sent ranges
  double cycle_ranges = 0.0;   // ranges in one cycle of every pool
  // Distinct ranges in one cycle: about how many other distinct ranges a
  // pool range meets before it is sent again (every pool cycles at the
  // same pace), so a cache or memo larger than this hits on every
  // recurrence.
  double cycle_distinct = 0.0;
};

/// Every pool cycles from its start, so request i of a pool went out
/// sent / size times, plus once when i < sent % size.
Traffic MeasureTraffic(const std::vector<RequestPool>& pools,
                       std::int64_t shard_width) {
  Traffic t;
  std::unordered_set<std::uint64_t> keys;
  // Pass 0 takes the requests that went out, pass 1 the rest of a cycle.
  for (int pass = 0; pass < 2; ++pass) {
    for (const RequestPool& pool : pools) {
      const std::uint64_t size = pool.batches.size();
      for (std::uint64_t i = 0; i < size; ++i) {
        const auto times = static_cast<double>(pool.sent / size +
                                               (i < pool.sent % size ? 1 : 0));
        if ((times > 0) != (pass == 0)) continue;
        for (const Interval& range : pool.batches[i]) {
          keys.insert((static_cast<std::uint64_t>(range.lo()) << 32) ^
                      static_cast<std::uint64_t>(range.hi()));
          t.cycle_ranges += 1;
          t.sent += times;
          if (range.lo() / shard_width != range.hi() / shard_width) {
            t.spanning += times;
          }
          t.length_sum += times * static_cast<double>(range.Length());
        }
      }
    }
    if (pass == 0) t.distinct_sent = static_cast<double>(keys.size());
  }
  t.cycle_distinct = static_cast<double>(keys.size());
  return t;
}

/// The per-layer metrics of a traced run, from the episodes' replays and
/// the publish trace on the last episode's stack (see README.md). Each
/// layer's figure is the median over the episodes of its self time per
/// replayed query.
std::vector<Metric> LayerMetrics(const Config& config, const Inputs& in,
                                 Stack* stack, const Args& args,
                                 const std::vector<Episode>& episodes,
                                 const std::vector<EpisodeReplay>& replays,
                                 const runtime::SocketServer::Stats& transport,
                                 const runtime::EpochManager::Stats& manager,
                                 double failed_share, ClientStats* totals,
                                 JsonObject* detail) {
  const WorkloadSpec& spec = *config.spec;
  const PublishTrace publish =
      TracePublish(config, in.data, stack->service.get(), args.seed,
                   args.work_dir + "/publish-trace-" + std::to_string(::getpid()));
  const std::string span_path = args.work_dir + "/spans-" + spec.name + "-" +
                                std::to_string(args.seed) + ".jsonl";
  std::filesystem::remove(span_path);
  std::int64_t span_lines = 0;
  std::uint64_t mismatches = 0;
  double traced_queries = 0.0;
  std::map<std::string, std::vector<double>> per_query;  // span name -> ns
  std::vector<double> hit_share;
  std::vector<double> untraced_qps;
  std::vector<double> traced_qps;
  std::vector<double> overhead;
  for (const EpisodeReplay& replay : replays) {
    WriteSpans(span_path, replay.traced.spans, "replay", &span_lines);
    mismatches += replay.mismatches;
    const auto q = static_cast<double>(replay.traced.queries);
    traced_queries += q;
    const std::map<std::string, double> self =
        SelfTimeByName(replay.traced.spans);
    for (const char* name :
         {kSpanWireDecode, kSpanWireEncode, kSpanSessionParse,
          kSpanSessionFormat, kSpanBatch, kSpanValidate, kSpanEngine,
          kSpanWalker}) {
      auto it = self.find(name);
      per_query[name].push_back(it == self.end() ? 0.0 : it->second / q);
    }
    hit_share.push_back(static_cast<double>(replay.traced.cache_hits) / q);
    untraced_qps.push_back(static_cast<double>(replay.untraced.queries) /
                           replay.untraced.seconds);
    traced_qps.push_back(q / replay.traced.seconds);
    overhead.push_back(1.0 - traced_qps.back() / untraced_qps.back());
  }
  WriteSpans(span_path, publish.spans, "publish", &span_lines);
  if (mismatches > 0) {
    totals->failed += mismatches;
    totals->check_failures += mismatches;
    if (totals->first_error.empty()) {
      totals->first_error = "replayed answers differ from the answer path";
    }
  }

  auto median_of = [&](const char* name) { return Median(per_query[name]); };
  const double wire_decode = median_of(kSpanWireDecode);
  const double wire_encode = median_of(kSpanWireEncode);
  const double session_parse = median_of(kSpanSessionParse);
  const double session_format = median_of(kSpanSessionFormat);
  const double batch = median_of(kSpanBatch);
  const double validate = median_of(kSpanValidate);
  const double engine_ns = median_of(kSpanEngine);
  const double walker_ns = median_of(kSpanWalker);
  // Inside TryQueryBatch the answer path runs only for cache misses.
  const double replay_hit_share = Median(hit_share);
  const double answer_path = (engine_ns + walker_ns) * (1.0 - replay_hit_share);
  const double service_self = batch - validate - answer_path;
  const double cpu_ns_per_query = MedianOf(episodes, [](const Episode& e) {
    return e.user_ns_per_query + e.sys_ns_per_query;
  });
  const double unattributed = UnattributedResidual(
      cpu_ns_per_query, {wire_decode, wire_encode, session_parse,
                         session_format, validate, service_self, answer_path});
  const double hits = SumOf(episodes, [](const Episode& e) {
    return e.cache_hits;
  });
  const double misses = SumOf(episodes, [](const Episode& e) {
    return e.cache_misses;
  });
  const double insertions = SumOf(episodes, [](const Episode& e) {
    return e.cache_insertions;
  });
  const double answered = SumOf(episodes, [](const Episode& e) {
    return e.answered;
  });
  detail->Add("replay",
              JsonObject()
                  .Val("traced_queries", traced_queries)
                  .Add("untraced_qps_per_episode", JsonList(untraced_qps))
                  .Add("traced_qps_per_episode", JsonList(traced_qps))
                  .Val("cache_hit_share", replay_hit_share)
                  .Val("answer_path_ns_per_query", answer_path)
                  .Add("cpu_ns_per_query_per_episode",
                       JsonList(PerEpisode(episodes, [](const Episode& e) {
                         return e.user_ns_per_query + e.sys_ns_per_query;
                       })))
                  .Add("batch_ns_per_query_per_episode",
                       JsonList(per_query[kSpanBatch]))
                  .Str("spans_file", span_path)
                  .str());
  return {
      {"runtime.cpu_ns_per_query", "ns", cpu_ns_per_query},
      {"runtime.unattributed_ns_per_query", "ns", unattributed},
      {"runtime.wire.decode_ns_per_query", "ns", wire_decode},
      {"runtime.wire.encode_ns_per_query", "ns", wire_encode},
      {"runtime.session.parse_ns_per_query", "ns", session_parse},
      {"runtime.session.format_ns_per_query", "ns", session_format},
      {"runtime.transport.session_errors", "count",
       static_cast<double>(transport.session_errors)},
      {"runtime.transport.write_errors", "count",
       static_cast<double>(transport.write_errors)},
      {"runtime.epoch_manager.republishes", "count",
       static_cast<double>(manager.republishes)},
      {"runtime.epoch_manager.failures", "count",
       static_cast<double>(manager.failures)},
      {"runtime.failed_share", "ratio", failed_share},
      {"runtime.trace.qps_overhead_share", "ratio", Median(overhead)},
      {"service.query_service.batch_ns_per_query", "ns", batch},
      {"service.query_service.validate_ns_per_query", "ns", validate},
      {"service.query_service.self_ns_per_query", "ns", service_self},
      {"service.answer_cache.hit_ratio", "ratio",
       hits + misses > 0 ? hits / (hits + misses) : 0.0},
      {"service.answer_cache.insert_ratio", "ratio",
       misses > 0 ? insertions / misses : 0.0},
      {"service.answer_cache.entries", "count", episodes.back().cache_entries},
      {"service.snapshot.walker_ns_per_query", "ns", walker_ns},
      {"service.snapshot.build_ms", "ms",
       MedianPerRequestMs(publish.spans, "service.snapshot.build")},
      {"service.query_service.commit_ms", "ms",
       MedianPerRequestMs(publish.spans, "service.query_service.commit")},
      {"engine.answer_engine.ns_per_query", "ns", engine_ns},
      {"engine.query_share", "ratio",
       answered > 0 ? SumOf(episodes,
                            [](const Episode& e) { return e.engine_queries; }) /
                          answered
                    : 0.0},
      {"planner.choose_plan_ms", "ms",
       MedianPerRequestMs(publish.spans, "planner.choose_plan")},
      {"mechanism.laplace.ns_per_draw", "ns", publish.laplace_ns_per_draw},
      {"inference.hierarchical_ms", "ms", publish.hierarchical_ms},
      {"storage.wal_append_ms", "ms",
       MedianPerRequestMs(publish.spans, "storage.wal_append")},
      {"storage.persist_ms", "ms",
       MedianPerRequestMs(publish.spans, "storage.persist")},
      {"storage.bytes_per_publish", "B", publish.bytes_per_publish},
      {"storage.recover_ms", "ms", publish.recover_ms},
  };
}

int Run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads) {
    if (args.workload == candidate.name) spec = &candidate;
  }
  if (spec == nullptr) Fatal("unknown workload '" + args.workload + "'");
  std::filesystem::create_directories(args.work_dir);
  const Config config = MakeConfig(*spec, args.work_dir);
  Inputs in = MakeInputs(config, args.seed);
  const double answer_rmse =
      args.trace ? 0.0 : AnswerRmse(config, in, args.seed);

  // ---- episodes: each a fresh set-up (timed) serving seconds/kEpisodes
  // of load, so one unlucky set-up or a burst of interference from the
  // machine's other tenants never decides the run.
  const std::uint64_t manager_seed = DeriveSeed(args.seed, 4);
  if (spec->durable) PrefillStateDir(config, in.data, in.profile, manager_seed);
  ClientStats totals;
  runtime::SocketServer::Stats transport;
  runtime::EpochManager::Stats manager;
  std::vector<Episode> episodes;
  std::vector<EpisodeReplay> replays;  // --trace 1 only
  const IdleSpinners spinners;
  std::unique_ptr<Stack> stack;
  std::shared_ptr<const Snapshot> served;
  for (int e = 0; e < kEpisodes; ++e) {
    if (stack != nullptr) {
      TearDown(stack.get(), spec->binary, &totals, &transport, &manager);
      stack.reset();
    }
    ResetPeakRss();
    const std::int64_t t0 = NowNs();
    // Server threads (pool workers, accept loop, manager worker) inherit
    // the creating thread's CPUs: they get CPUs 0-1 and the load
    // generator CPUs 2-3, so client and server never share a core.
    PinCurrentThread(0, kServerWorkers);
    stack = SetUp(config, in.data, manager_seed);
    PinCurrentThread(0, static_cast<int>(AllowedCpus().size()));
    const std::int64_t t1 = NowNs();
    if (stack == nullptr) Fatal("set-up failed");
    served = stack->service->snapshot();
    Episode episode =
        RunLoad(*spec, stack.get(), &in.pools, args.seconds / kEpisodes,
                spinners, &totals);
    episode.setup_s = static_cast<double>(t1 - t0) / 1e9;
    episode.peak_rss_mb = PeakRssMb();
    episodes.push_back(std::move(episode));
    if (args.trace) {
      replays.push_back(
          ReplayEpisode(config, stack->service.get(), &in.pools, e));
    }
  }
  TearDown(stack.get(), spec->binary, &totals, &transport, &manager);
  const double failed_share =
      totals.attempted == 0 ? 0.0
                            : static_cast<double>(totals.failed) /
                                  static_cast<double>(totals.attempted);

  const Traffic traffic = MeasureTraffic(in.pools, served->shard_width());
  const double qps = MedianOf(episodes, [](const Episode& e) { return e.qps; });

  JsonObject detail;
  detail.Str("workload", spec->name).Add("seed", std::to_string(args.seed));
  detail.Val("trace", args.trace ? 1 : 0);
  detail.Add(
      "provenance",
      JsonObject()
          .Str("cpu_model", CpuModel())
          .Val("cores", std::thread::hardware_concurrency())
          .Str("kernel", Kernel())
          .Str("compiler", std::string("gcc-compatible ") + __VERSION__)
          .Str("cxx_flags", PERFBENCH_CXX_FLAGS)
          .Str("build_type", PERFBENCH_BUILD_TYPE)
          .Str("git_sha", args.git_sha)
          .Str("source_sha256", args.source_digest)
          .Str("engine_kernel", engine::KernelKindName(engine::ActiveKernel()))
          .str());
  detail.Add(
      "descriptors",
      JsonObject()
          .Val("domain_size", static_cast<double>(config.n))
          .Str("strategy", dphist::StrategyKindName(served->strategy()))
          .Val("shards", static_cast<double>(served->shard_count()))
          .Val("cache_capacity", static_cast<double>(spec->cache_capacity))
          .Str("protocol", spec->binary ? "binary" : "text")
          .Val("connections", spec->readers)
          .Val("client_threads", spec->client_threads)
          .Val("batch", spec->batch)
          .Val("in_flight_per_connection", spec->in_flight)
          .Val("ranges_sent", traffic.sent)
          .Val("repeat_share", 1.0 - traffic.distinct_sent / traffic.sent)
          .Val("shard_spanning_share", traffic.spanning / traffic.sent)
          .Val("mean_range_length", traffic.length_sum / traffic.sent)
          .Val("cycle_ranges", traffic.cycle_ranges)
          .Val("cycle_seconds", traffic.cycle_ranges / qps)
          .Val("reuse_distance_ranges", traffic.cycle_distinct)
          .Val("within_cycle_repeat_share",
               1.0 - traffic.cycle_distinct / traffic.cycle_ranges)
          .str());
  auto per_episode = [&](auto field) {
    return JsonList(PerEpisode(episodes, field));
  };
  double min_slice_samples = std::numeric_limits<double>::infinity();
  for (const Episode& e : episodes) {
    min_slice_samples =
        std::min(min_slice_samples, static_cast<double>(e.min_slice_samples));
  }
  detail.Add(
      "counts",
      JsonObject()
          .Val("episodes", kEpisodes)
          .Val("window_seconds", args.seconds)
          .Val("ranges_answered", static_cast<double>(totals.answered_in_window))
          .Add("qps_per_episode", per_episode([](const Episode& e) {
                 return e.qps;
               }))
          .Add("batch_p50_us_per_episode", per_episode([](const Episode& e) {
                 return Median(e.p50_us);
               }))
          .Add("batch_p99_us_per_episode", per_episode([](const Episode& e) {
                 return Median(e.p99_us);
               }))
          .Add("setup_s_per_episode", per_episode([](const Episode& e) {
                 return e.setup_s;
               }))
          .Add("peak_rss_mb_per_episode", per_episode([](const Episode& e) {
                 return e.peak_rss_mb;
               }))
          .Val("batch_samples", SumOf(episodes, [](const Episode& e) {
                 return static_cast<double>(e.batch_samples);
               }))
          .Val("batch_slices", SumOf(episodes, [](const Episode& e) {
                 return static_cast<double>(e.p99_us.size());
               }))
          .Val("batch_samples_min_per_slice", min_slice_samples)
          .Val("attempted", static_cast<double>(totals.attempted))
          .Val("failed", static_cast<double>(totals.failed))
          .Val("failed_share", failed_share)
          .Val("answer_checks", static_cast<double>(totals.checks))
          .Val("answer_check_failures",
               static_cast<double>(totals.check_failures))
          .Val("answer_checks_skipped_stale_epoch",
               static_cast<double>(totals.unchecked))
          .Val("republish_samples",
               static_cast<double>(totals.publish_ms.size()))
          .Add("publish_p50_ms_per_episode", per_episode([](const Episode& e) {
                 return e.publish_p50_ms;
               }))
          .Val("schedule_lateness_p50_ms",
               totals.lateness_ms.empty() ? 0.0 : Median(totals.lateness_ms))
          .Val("schedule_lateness_max_ms",
               totals.lateness_ms.empty()
                   ? 0.0
                   : *std::max_element(totals.lateness_ms.begin(),
                                       totals.lateness_ms.end()))
          .Val("cpu_user_ns_per_query", MedianOf(episodes, [](const Episode& e) {
                 return e.user_ns_per_query;
               }))
          .Val("cpu_sys_ns_per_query", MedianOf(episodes, [](const Episode& e) {
                 return e.sys_ns_per_query;
               }))
          .Str("first_error", totals.first_error)
          .str());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"qps", "1/s", qps},
        {"batch_p50_us", "us", MedianOfSlices(episodes, &Episode::p50_us)},
        {"batch_p99_us", "us", MedianOfSlices(episodes, &Episode::p99_us)},
        {"publish_p50_ms", "ms", Median(totals.publish_ms)},
        {"answer_rmse", "count", answer_rmse},
        {"setup_s", "s",
         MedianOf(episodes, [](const Episode& e) { return e.setup_s; })},
        {"peak_rss_mb", "MB",
         MedianOf(episodes, [](const Episode& e) { return e.peak_rss_mb; })},
    };
  } else {
    metrics = LayerMetrics(config, in, stack.get(), args, episodes, replays,
                           transport, manager, failed_share, &totals, &detail);
  }
  stack.reset();
  if (spec->durable) std::filesystem::remove_all(config.state_dir);

  const bool correct = totals.check_failures == 0 && totals.failed == 0;
  std::printf("%s\n", detail.str().c_str());
  JsonObject metric_json;
  for (const Metric& m : metrics) {
    metric_json.Add(m.name,
                    JsonObject().Val("value", m.value).Str("unit", m.unit).str());
  }
  std::printf("%s\n", JsonObject()
                          .Add("correct", correct ? "true" : "false")
                          .Val("attempted", static_cast<double>(totals.attempted))
                          .Val("failed", static_cast<double>(totals.failed))
                          .Add("metrics", metric_json.str())
                          .str()
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
