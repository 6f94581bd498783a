// Lifecycle tests for SocketServer: concurrent and racing shutdowns, the
// threads Start adds, and the max_sessions listener close.
//
//   1. Stop is safe against itself and the destructor: exactly one caller
//      joins the workers (joining a std::thread twice is undefined
//      behaviour), and every other caller returns once the joins are
//      done.
//   2. Stop racing a burst of connects never leaks a connection: each
//      accepted one is completed, and every client reads EOF.
//   3. The listener lives in worker 0's readiness loop, so a running
//      server has exactly `workers` threads of its own and no accept
//      thread; after max_sessions accepts the listener is closed.
//
// The suite name rides the TSan and ASan+LSan CI filters
// (SocketTransportTest.*), so these races also run under both
// sanitizers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "data/zipf.h"
#include "domain/histogram.h"
#include "runtime/epoch_manager.h"
#include "runtime/transport.h"
#include "service/query_service.h"

namespace dphist::runtime {
namespace {

Histogram ShutdownTestData(std::int64_t n) {
  Rng rng(23);
  return Histogram::FromCounts(ZipfCounts(n, 1.3, 6 * n, &rng));
}

struct PublishedRuntime {
  PublishedRuntime()
      : data(ShutdownTestData(64)), manager(&service, data, Options(), 7) {
    auto initial = manager.PublishInitial();
    EXPECT_TRUE(initial.ok());
  }
  static EpochManagerOptions Options() {
    EpochManagerOptions options;
    options.base.strategy = StrategyKind::kHBar;
    options.base.epsilon = 400.0;
    return options;
  }
  QueryService service;
  Histogram data;
  EpochManager manager;
};

/// Reads until the server closes the connection; returns the lines read.
std::vector<std::string> ReadToEof(SocketStream& stream) {
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(stream, line)) lines.push_back(line);
  return lines;
}

/// Sends "quit" and reads until the server closes the connection;
/// returns the lines read. Sending first matters for a connection whose
/// handshake raced the listener's close: the kernel may drop the server
/// end of it without a reset, and only the reply to new data ends the
/// client's read.
std::vector<std::string> QuitAndReadToEof(SocketStream& stream) {
  stream << "quit\n";
  stream.flush();
  return ReadToEof(stream);
}

/// Threads in this process (/proc/self/task must exist).
std::ptrdiff_t ProcessThreads() {
  return std::distance(std::filesystem::directory_iterator("/proc/self/task"),
                       std::filesystem::directory_iterator());
}

/// ProcessThreads once it reads `expected` (or holds still, when
/// `expected` is negative): a thread that was just joined, here or in an
/// earlier test, can stay listed for a moment after join returns.
std::ptrdiff_t SettledThreads(std::ptrdiff_t expected = -1) {
  std::ptrdiff_t count = ProcessThreads();
  for (int i = 0; i < 200 && count != expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const std::ptrdiff_t next = ProcessThreads();
    if (expected < 0 && next == count) break;
    count = next;
  }
  return count;
}

TEST(SocketTransportTest, ConcurrentStopsJoinWorkersExactlyOnce) {
  PublishedRuntime rt;
  TransportOptions transport;
  transport.workers = 2;
  SocketServer server(rt.service, rt.manager, transport);
  ASSERT_TRUE(server.Start().ok());

  // A live connection so Stop has something to force-close. The client
  // stays silent: a forced Stop must not need the peer's cooperation.
  auto stream = ConnectLoopback(server.port());
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  std::string banner;
  ASSERT_TRUE(static_cast<bool>(std::getline(*stream.value(), banner)));
  EXPECT_EQ(banner.rfind("# serving n=64", 0), 0u);

  // One of these joins the workers; the rest block until it is done.
  std::vector<std::thread> stoppers;
  for (int i = 0; i < 4; ++i) {
    stoppers.emplace_back([&server] { server.Stop(); });
  }
  for (std::thread& t : stoppers) t.join();

  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_TRUE(ReadToEof(*stream.value()).empty());
  // The destructor is one more Stop: idempotent.
}

TEST(SocketTransportTest, StopRacingConnectsNeverLeaksAConnection) {
  PublishedRuntime rt;
  TransportOptions transport;
  transport.workers = 2;
  SocketServer server(rt.service, rt.manager, transport);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // Connect from one thread while another stops: every connection must
  // end up refused, reset in the backlog, or accepted and then closed
  // with its session counted — never left open.
  constexpr int kConns = 16;
  std::vector<std::unique_ptr<SocketStream>> clients;
  std::thread connector([&] {
    for (int i = 0; i < kConns; ++i) {
      auto stream = ConnectLoopback(port);
      if (stream.ok()) clients.push_back(std::move(stream).value());
    }
  });
  std::thread stopper([&server] { server.Stop(); });
  connector.join();
  stopper.join();

  server.Stop();  // idempotent after the race
  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_LE(stats.accepted, static_cast<std::uint64_t>(kConns));
  for (const std::unique_ptr<SocketStream>& client : clients) {
    // At most the banner, then EOF: nothing is served after Stop.
    EXPECT_LE(QuitAndReadToEof(*client).size(), 1u);
  }
}

TEST(SocketTransportTest, StartAddsExactlyTheWorkerThreads) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  }
  PublishedRuntime rt;
  TransportOptions transport;
  transport.workers = 3;
  SocketServer server(rt.service, rt.manager, transport);
  const std::ptrdiff_t before = SettledThreads();
  ASSERT_TRUE(server.Start().ok());
  // The workers alone: worker 0's loop owns the listener.
  EXPECT_EQ(ProcessThreads(), before + 3);

  server.Stop();
  EXPECT_EQ(SettledThreads(before), before);
}

TEST(SocketTransportTest, MaxSessionsClosesTheListenerAfterTheLastAccept) {
  PublishedRuntime rt;
  TransportOptions transport;
  transport.max_sessions = 2;
  SocketServer server(rt.service, rt.manager, transport);
  ASSERT_TRUE(server.Start().ok());

  // Two sessions, both greeted, so both are accepted.
  std::vector<std::unique_ptr<SocketStream>> sessions;
  for (int i = 0; i < 2; ++i) {
    auto stream = ConnectLoopback(server.port());
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    std::string banner;
    ASSERT_TRUE(static_cast<bool>(std::getline(*stream.value(), banner)));
    EXPECT_EQ(banner.rfind("# serving n=64", 0), 0u);
    sessions.push_back(std::move(stream).value());
  }
  std::atomic<bool> stopped{false};
  std::thread waiter([&] {
    server.WaitUntilStopped();
    stopped = true;
  });

  // A third connect is refused outright, or reset from the backlog when
  // worker 0 closes the listener: never greeted either way.
  auto third = ConnectLoopback(server.port());
  if (third.ok()) {
    EXPECT_TRUE(QuitAndReadToEof(*third.value()).empty());
  }
  // Both accepted sessions are still open, so the wait cannot be over.
  EXPECT_FALSE(stopped.load());

  for (const std::unique_ptr<SocketStream>& session : sessions) {
    *session << "q 0 5\nquit\n";
    session->flush();
    const std::vector<std::string> lines = ReadToEof(*session);
    EXPECT_EQ(lines.empty() ? std::string() : lines.back(),
              "# served 1 queries from epoch 1");
  }
  waiter.join();
  EXPECT_TRUE(stopped.load());
  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.session_errors, 0u);
}

TEST(SocketTransportTest, ConcurrentServerStopsAndWaitersAreSafe) {
  PublishedRuntime rt;
  TransportOptions transport;
  transport.port = 0;
  transport.workers = 2;
  SocketServer server(rt.service, rt.manager, transport);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  // One complete session so the stats below have something to count.
  auto stream = ConnectLoopback(server.port());
  ASSERT_TRUE(stream.ok()) << stream.status().ToString();
  *stream.value() << "q 0 5\nquit\n";
  stream.value()->flush();
  ReadToEof(*stream.value());

  // Concurrent Stop() calls mixed with waiters: Stop and
  // WaitUntilStopped must compose.
  std::vector<std::thread> threads;
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&server] { server.Stop(); });
  }
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&server] { server.WaitUntilStopped(); });
  }
  for (std::thread& t : threads) t.join();

  const SocketServer::Stats stats = server.stats();
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.completed, stats.accepted);
  EXPECT_EQ(stats.session_errors, 0u);
  // Destructor performs one more Stop: idempotent.
}

}  // namespace
}  // namespace dphist::runtime
